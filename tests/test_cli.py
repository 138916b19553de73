"""The command-line entry point and its exit codes."""

import builtins
import json
import pathlib
import shutil

import numpy as np
import pytest

from affground import cli as cli_module
from affground.cli import main
from affground.corruption import KINDS, LEVELS
from affground.dataio import (MOMENTS, load_checkpoint, read_dataset, read_tensor,
                              write_tensor)
from affground.gradcheck import CheckResult
from affground.train import load_model

from conftest import TOY_MODEL_SETS

TOY_SETS = TOY_MODEL_SETS + ["--set", "optimizer.epochs=1"]


def _toy_checkpoint(tmp_path):
    """(manifest, checkpoint dir) of a one-epoch toy run that evaluates cleanly."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "32", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    run = tmp_path / "run"
    assert main(["train", "--data", manifest, "--out", str(run)] + TOY_SETS) == 0
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


def test_eval_on_checkpoint_vocab_without_affordances_exits_2(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    saved = json.loads((ckpt / "manifest.json").read_text())
    saved["vocab"] = {"x": 1}
    (ckpt / "manifest.json").write_text(json.dumps(saved))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "affordances" in err
    assert "Traceback" not in err


def test_eval_on_checkpoint_with_empty_vocab_exits_2(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    saved = json.loads((ckpt / "manifest.json").read_text())
    saved["vocab"] = {}
    (ckpt / "manifest.json").write_text(json.dumps(saved))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err
    assert "lacks classes and affordances" in err


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
                 "--set", "optimizer.epochs=1", "--set", "seed=3"]) == 0
    ckpt = run / "checkpoint"
    assert load_checkpoint(ckpt).config["seed"] == 3
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


def test_pca_viz_writes_projection_and_sidecar(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    sample = read_dataset(manifest).records[0].id
    out = tmp_path / "viz" / "pca.htns"
    args = ["pca-viz", "--checkpoint", str(ckpt), "--data", manifest,
            "--out", str(out), "--sample"]
    assert main(args + [sample]) == 0
    projection = read_tensor(out)
    assert projection.shape == (128, 3) and projection.dtype == np.float32
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert set(sidecar) == {"sample", "rank", "padded", "explained_variance"}
    assert sidecar["sample"] == sample
    capsys.readouterr()
    assert main(args + ["no_such_sample"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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

    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "16", "--seq-len", "8"]) == 0
    source = read_dataset(manifest)
    assert source.load_hidden(source.records[0]).states.shape[0] == 8
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
    assert main(["train", "--data", str(empty), "--out", str(tmp_path / "run")]
                + TOY_MODEL_SETS) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dataset has no samples" in err
    assert "Traceback" not in err


def test_eval_on_empty_manifest_exits_1(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    empty = pathlib.Path(manifest).parent / "empty.jsonl"
    empty.write_text("")
    report = tmp_path / "eval" / "report"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(empty),
                 "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dataset has no samples" in err
    assert "Traceback" not in err
    assert not report.parent.exists()


@pytest.mark.parametrize("command", ["train", "eval", "corrupt"])
@pytest.mark.parametrize("where", ["typo.jsonl", "."],
                         ids=["missing", "directory"])
def test_manifest_that_is_not_a_file_exits_1(tmp_path, capsys, command, where):
    data, ckpt = tmp_path / "data", None
    if command == "eval":
        _, ckpt = _toy_checkpoint(tmp_path)   # its data is under data/
    else:
        assert main(["gen-data", "--out", str(data), "--classes", "1",
                     "--affordances", "2", "--samples-per", "1", "--points",
                     "128", "--d-h", "32", "--seq-len", "4"]) == 0
    path, out = data / where, tmp_path / "out"
    args = {"train": ["train", "--data", str(path), "--out", str(out)]
            + TOY_MODEL_SETS,
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(path),
                     "--out", str(out / "report")],
            "corrupt": ["corrupt", "--in", str(path), "--out", str(out),
                        "--seed", "1"]}
    capsys.readouterr()
    assert main(args[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {path} ") and "Traceback" not in err
    assert "vocab.json" not in err
    assert not out.exists()


def _edit_entries(ckpt, added, renamed=(), removed=()):
    """Rename entries (old, new), remove entries and add entries (name ->
    shape, filled with 0.5) in a checkpoint's parameters and both AdamW
    moments."""
    saved = json.loads((ckpt / "manifest.json").read_text())
    groups = {"params": saved["params"],
              **{moment: saved["optimizer"][moment] for moment in MOMENTS}}
    for group, files in groups.items():
        for old, new in renamed:
            files[new] = files.pop(old)
        for name in removed:
            del files[name]
        for name, shape in added.items():
            files[name] = f"{group}/{name}.htns"
            write_tensor(ckpt / files[name], np.full(shape, 0.5, np.float32))
    (ckpt / "manifest.json").write_text(json.dumps(saved))


FUSE_PARTS = ("fusion.fuse.w_row", "fusion.fuse.w_desc")


def _to_old_layout(ckpt):
    """Rewrite a checkpoint as the model saved it when FP3 and the Stage II
    fuse were two-layer MLPs: ``fusion.fuse.0`` in place of ``fusion.fuse``,
    plus the (d, d) ``backbone.fp3.1`` and ``fusion.fuse.1`` layers, in the
    parameters and in both AdamW moments."""
    d = load_checkpoint(ckpt, moments=False).params["fusion.fuse.b"].shape[1]
    _edit_entries(ckpt, {"fusion.fuse.0.w": (2 * d, d),
                         **{f"{layer}.{part}": shape
                            for layer in ("backbone.fp3.1", "fusion.fuse.1")
                            for part, shape in (("w", (d, d)), ("b", (1, d)))}},
                  [("fusion.fuse.b", "fusion.fuse.0.b")], FUSE_PARTS)


def _to_joined_fuse_weight(ckpt):
    """Rewrite a checkpoint as the model saved it when each layer over a
    concatenated input had one weight: the (2d, d) ``fusion.fuse.w`` in
    place of its two parts."""
    d = load_checkpoint(ckpt, moments=False).params["fusion.fuse.b"].shape[1]
    _edit_entries(ckpt, {"fusion.fuse.w": (2 * d, d)}, removed=FUSE_PARTS)


def _snapshot(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _edit_rows(manifest, edit):
    """Rewrite a manifest's rows, a list of dicts, in place with ``edit``."""
    path = pathlib.Path(manifest)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def test_resume_on_a_relabelled_dataset_exits_1(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    vocab_path = pathlib.Path(manifest).parent / "vocab.json"
    vocab = json.loads(vocab_path.read_text())
    vocab["affordances"] = vocab["affordances"][::-1]
    assert len(set(vocab["affordances"])) == 2
    vocab_path.write_text(json.dumps(vocab))

    def relabel(rows):
        for row in rows:
            row["affordance_id"] = vocab["affordances"].index(row["affordance_name"])

    _edit_rows(manifest, relabel)
    before = _snapshot(ckpt.parent)
    assert ckpt.parent / "log.jsonl" in before
    _assert_usage_error(capsys, ["train", "--data", manifest,
                                 "--out", str(ckpt.parent),
                                 "--resume", str(ckpt)] + TOY_SETS,
                        "does not match dataset")
    assert _snapshot(ckpt.parent) == before


def test_affordance_id_naming_another_affordance_exits_1(tmp_path, capsys):
    manifest, ckpt = _toy_checkpoint(tmp_path)

    def mislabel(rows):
        rows[0]["affordance_id"] = 1 - rows[0]["affordance_id"]

    _edit_rows(manifest, mislabel)
    for args in (["train", "--data", manifest, "--out", str(tmp_path / "run2")]
                 + TOY_SETS,
                 ["eval", "--checkpoint", str(ckpt), "--data", manifest]):
        _assert_usage_error(capsys, args, "manifest.jsonl:1: affordance_id")
    assert not (tmp_path / "run2").exists()


def _escape(rows):
    rows[0]["id"] = "../../../escaped"


def _repeat(rows):
    rows[1]["id"] = rows[0]["id"]


@pytest.mark.parametrize("edit, message", [
    (_escape, "is not one plain file name"), (_repeat, "repeats line 1")],
    ids=["escape", "repeat"])
def test_corrupt_on_an_unsafe_or_repeated_id_exits_1(tmp_path, capsys, edit,
                                                     message):
    data, tree = tmp_path / "data", tmp_path / "tree"
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "16", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    _edit_rows(manifest, edit)
    _assert_usage_error(capsys, ["corrupt", "--in", manifest, "--out", str(tree),
                                 "--kinds", "jitter", "--levels", "0",
                                 "--seed", "1"], message)
    assert not tree.exists()
    assert not any(tmp_path.rglob("escaped*"))


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_old_layout_checkpoint_exits_2(tmp_path, capsys, command):
    # three earlier layouts: FP3 and the Stage II fuse as two-layer MLPs,
    # Stage I with the key weight its query weight now folds in, and the
    # fuse with one weight over its concatenated input
    manifest, ckpt = _toy_checkpoint(tmp_path)
    attn_k, joined = tmp_path / "attn_k", tmp_path / "joined"
    shutil.copytree(ckpt, attn_k)
    shutil.copytree(ckpt, joined)
    _to_old_layout(ckpt)
    _edit_entries(attn_k, {"fusion.attn.k.w": (16, 16)})
    _to_joined_fuse_weight(joined)
    for old, entries in ((ckpt, ["fusion.fuse"]), (attn_k, ["fusion.attn.k.w"]),
                         (joined, FUSE_PARTS)):
        args = {"eval": ["eval", "--checkpoint", str(old), "--data", manifest],
                "resume": ["train", "--data", manifest,
                           "--out", str(tmp_path / f"r2-{old.name}"),
                           "--resume", str(old)] + TOY_SETS}[command]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error:")
        assert all(entry in err for entry in entries), err
        assert "Traceback" not in err
    assert not any(tmp_path.glob("r2-*"))  # a refused resume makes no --out


def test_load_model_opens_no_optimizer_moment(tmp_path, capsys, monkeypatch):
    manifest, ckpt = _toy_checkpoint(tmp_path)
    opened = []
    real_open, real_path_open = builtins.open, pathlib.Path.open

    def recorded_open(file, *args, **kwargs):
        opened.append(pathlib.Path(file))
        return real_open(file, *args, **kwargs)

    def recorded_path_open(self, *args, **kwargs):
        opened.append(self)
        return real_path_open(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", recorded_open)
        m.setattr(pathlib.Path, "open", recorded_path_open)
        model, _, _ = load_model(ckpt)
    groups = {path.relative_to(ckpt).parts[0] for path in opened}
    assert groups == {"manifest.json", "params"}
    assert len(model.params) == len(list((ckpt / "params").iterdir()))
    # so a damaged moment file stops a resume but not an evaluation
    moment = next((ckpt / MOMENTS[1]).glob("*.htns"))
    moment.write_bytes(moment.read_bytes()[:-4])
    assert main(["eval", "--checkpoint", str(ckpt), "--data", manifest]) == 0
    capsys.readouterr()
    assert main(["train", "--data", manifest, "--out", str(tmp_path / "r2"),
                 "--resume", str(ckpt)] + TOY_SETS) == 2
    assert moment.name in capsys.readouterr().err


def _assert_usage_error(capsys, args, message):
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_corrupt_with_non_integer_levels_exits_1(tmp_path, capsys):
    manifest = tmp_path / "data" / "manifest.jsonl"
    assert main(["gen-data", "--out", str(manifest.parent), "--classes", "1",
                 "--affordances", "1", "--samples-per", "1", "--points", "16",
                 "--d-h", "4", "--seq-len", "2"]) == 0
    _assert_usage_error(capsys, ["corrupt", "--in", str(manifest),
                                 "--out", str(tmp_path / "tree"),
                                 "--levels", "a..3", "--seed", "1"], "'a..3'")
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--levels", "3..1", "no corruption level"),
    ("--levels", "", "no corruption level"),
    ("--levels", ",", "no corruption level"),
    ("--levels", "7", "unknown corruption level 7"),
    ("--levels", "1,1", "corruption levels repeat"),
    ("--kinds", "jitter,jitter", "corruption kinds repeat"),
    ("--kinds", "", "unknown corruption kind ''"),
], ids=["empty_range", "empty", "comma", "unknown_level", "repeated_level",
        "repeated_kind", "empty_kind"])
def test_corrupt_with_empty_repeated_or_unknown_selection_exits_1(
        tmp_path, capsys, option, value, message):
    manifest = tmp_path / "data" / "manifest.jsonl"
    assert main(["gen-data", "--out", str(manifest.parent), "--classes", "1",
                 "--affordances", "1", "--samples-per", "1", "--points", "16",
                 "--d-h", "4", "--seq-len", "2"]) == 0
    _assert_usage_error(capsys, ["corrupt", "--in", str(manifest),
                                 "--out", str(tmp_path / "tree"),
                                 option, value, "--seed", "1"], message)
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--points", "5", "at least 8 points"),
    ("--d-h", "0", "d_h=0"),
])
def test_gen_data_with_bad_size_exits_1(tmp_path, capsys, option, value, message):
    data = tmp_path / "data"
    _assert_usage_error(capsys, ["gen-data", "--out", str(data), "--classes", "1",
                                 "--affordances", "1", "--samples-per", "1",
                                 "--points", "16", option, value], message)
    assert not (data / "manifest.jsonl").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--points", "5", "at least 8 points"),
    ("--d-h", "0", "d_h=0"),
    ("--seq-len", "1", "L=1"),
])
def test_refused_gen_data_leaves_no_out_directory(tmp_path, capsys, option,
                                                  value, message):
    data = tmp_path / "nested" / "data"
    _assert_usage_error(capsys, ["gen-data", "--out", str(data), "--classes", "1",
                                 "--affordances", "1", "--samples-per", "1",
                                 "--points", "16", "--d-h", "4", "--seq-len", "2",
                                 option, value], message)
    assert not (tmp_path / "nested").exists()


def test_gen_fixtures_is_no_longer_a_command(capsys):
    # gen-data, rerun into the same --out, writes the fixtures
    capsys.readouterr()
    assert main(["gen-fixtures", "--manifest", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid choice: 'gen-fixtures'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0"])
def test_gradcheck_with_a_bad_tolerance_exits_1(capsys, monkeypatch, tol):
    def suite(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli_module, "run_gradcheck_suite", suite)
    _assert_usage_error(capsys, ["gradcheck", f"--tol={tol}"],
                        "--tol must be a positive finite number")


def test_gradcheck_runs_the_suite_at_a_positive_tolerance(capsys, monkeypatch):
    asked = []

    def suite(tol):
        asked.append(tol)
        return [CheckResult("primitive.add", 0.5 * tol, tol)]

    monkeypatch.setattr(cli_module, "run_gradcheck_suite", suite)
    assert main(["gradcheck", "--tol", "1e-3"]) == 0
    assert asked == [1e-3]
    assert "1/1 checks passed" in capsys.readouterr().out
