"""The command-line entry point and its exit codes."""

import json

from affground.cli import main
from affground.corruption import KINDS, LEVELS
from affground.dataio import read_dataset


def _toy_checkpoint(tmp_path):
    """(manifest, checkpoint dir) of a one-epoch toy run that evaluates cleanly."""
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
    return manifest, ckpt


def test_eval_on_truncated_checkpoint_manifest_exits_2(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    text = (ckpt / "manifest.json").read_text()
    (ckpt / "manifest.json").write_text(text[: len(text) // 2])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "manifest.json" in err


def test_eval_on_truncated_parameter_file_exits_2(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    param = next((ckpt / "params").glob("*.htns"))
    param.write_bytes(param.read_bytes()[:-4])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and param.name in err


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


def test_cell_keeps_its_fixtures_when_the_source_is_regenerated(tmp_path, capsys):
    data, run, tree = (tmp_path / name for name in ("data", "run", "tree"))
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "16", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    assert main(["train", "--data", manifest, "--out", str(run),
                 "--set", "model.n_points=128", "--set", "model.d=16",
                 "--set", "model.d_h=16", "--set", "model.seq_len=4",
                 "--set", "model.cont_width=16", "--set", "model.k_max=[8,8,8]",
                 "--set", "optimizer.epochs=1"]) == 0
    assert main(["corrupt", "--in", manifest, "--out", str(tree),
                 "--kinds", "jitter", "--levels", "0", "--seed", "3"]) == 0
    cell = tree / "jitter" / "level_0" / "manifest.jsonl"
    eval_args = ["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(cell)]
    capsys.readouterr()
    assert main(eval_args) == 0
    before = capsys.readouterr().out

    assert main(["gen-fixtures", "--manifest", manifest, "--d-h", "16",
                 "--seq-len", "8"]) == 0
    cells = read_dataset(cell)
    for record in cells.records:
        hidden = cells.load_hidden(record)
        assert hidden.states.shape[0] == 4 and hidden.cont_index == 3
    capsys.readouterr()
    assert main(eval_args) == 0
    assert capsys.readouterr().out == before


def test_train_on_empty_manifest_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "32", "--seq-len", "4"]) == 0
    empty = data / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert main(["train", "--data", str(empty), "--out", str(tmp_path / "run"),
                 "--set", "model.n_points=128", "--set", "model.d=16",
                 "--set", "model.d_h=32", "--set", "model.seq_len=4",
                 "--set", "model.cont_width=16",
                 "--set", "model.k_max=[8,8,8]"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dataset has no samples" in err
    assert "Traceback" not in err
