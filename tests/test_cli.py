"""The command-line entry point and its exit codes."""

import json

from affground.cli import main
from affground.corruption import KINDS, LEVELS


def test_eval_on_truncated_checkpoint_manifest_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "32", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    run = tmp_path / "run"
    assert main(["train", "--data", manifest, "--out", str(run),
                 "--set", "model.n_points=128", "--set", "model.d=16",
                 "--set", "model.d_h=32", "--set", "model.seq_len=4",
                 "--set", "model.cont_width=16", "--set", "model.k_max=[8,8,8]",
                 "--set", "optimizer.epochs=1"]) == 0
    ckpt = run / "checkpoint"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 0

    text = (ckpt / "manifest.json").read_text()
    (ckpt / "manifest.json").write_text(text[: len(text) // 2])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "manifest.json" in err


def test_gen_data_train_eval_corrupt_smoke(tmp_path, capsys):
    data, run, report, tree = (tmp_path / name for name in
                               ("data", "run", "report", "tree"))
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "16", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    assert main(["train", "--data", manifest, "--out", str(run),
                 "--set", "model.n_points=128", "--set", "model.d=16",
                 "--set", "model.d_h=16", "--set", "model.seq_len=4",
                 "--set", "model.cont_width=16", "--set", "model.k_max=[8,8,8]",
                 "--set", "optimizer.epochs=1"]) == 0
    ckpt = run / "checkpoint"
    assert (ckpt / "manifest.json").exists()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest,
                 "--out", str(report)]) == 0
    assert json.loads(report.with_suffix(".json").read_text())
    assert report.with_suffix(".txt").exists()
    assert main(["corrupt", "--in", manifest, "--out", str(tree),
                 "--seed", "3"]) == 0
    assert (tree / "benchmark.json").exists()
    cells = sorted(tree.glob("*/level_*/manifest.jsonl"))
    assert len(cells) == len(KINDS) * len(LEVELS)
    assert capsys.readouterr().err == ""
