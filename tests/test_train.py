"""Training runs: resuming from a checkpoint, and stopping on divergence."""

import json
import math

import numpy as np
import pytest

from affground import train as train_module
from affground.cli import main
from affground.config import ModelConfig, OptimConfig, RunConfig
from affground.dataio import gen_synthetic_dataset, load_checkpoint, write_tensor
from affground.errors import CheckpointError, ConfigError, TrainingDiverged
from affground.train import train

TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}


class Interrupt(Exception):
    pass


def test_resumed_run_matches_uninterrupted_run(tmp_path):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    # two samples in one batch per step: 16 optimizer steps
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=16, batch_size=2),
                       checkpoint_every=4)
    full = train(config, manifest, tmp_path / "full")

    def crash_at_step_5(row):
        if row["step"] == 5:
            raise Interrupt

    with pytest.raises(Interrupt):
        train(config, manifest, tmp_path / "cut", log_fn=crash_at_step_5)
    assert load_checkpoint(tmp_path / "cut" / "checkpoint").step == 4
    resumed = train(config, manifest, tmp_path / "cut",
                    resume=tmp_path / "cut" / "checkpoint")

    full_log = full.log_path.read_text().splitlines()
    assert len(full_log) == 16
    assert resumed.log_path.read_text().splitlines() == full_log
    want = load_checkpoint(full.checkpoint_dir)
    got = load_checkpoint(resumed.checkpoint_dir)
    assert got.step == want.step == 16
    assert got.params.keys() == want.params.keys()
    for name, arr in want.params.items():
        assert got.params[name].tobytes() == arr.tobytes(), name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_stops_as_training_diverged(tmp_path, capsys):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=4, batch_size=2, lr=1e4))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 1
    rows = [json.loads(line) for line in
            (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert [row["step"] for row in rows] == [0, 1]
    assert "event" not in rows[0] and math.isfinite(rows[0]["total"])
    assert rows[1]["event"] == "nan_abort" and rows[1]["reason"]
    assert not (tmp_path / "run" / "checkpoint").exists()

    args = ["train", "--data", str(manifest), "--out", str(tmp_path / "cli"),
            "--set", "optimizer.lr=10000", "--set", "optimizer.epochs=4",
            "--set", "optimizer.batch_size=2"]
    for key, value in TOY.items():
        args += ["--set", f"model.{key}={json.dumps(value)}"]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("runtime error:")


def test_nonfinite_gradient_aborts_before_the_update(tmp_path, monkeypatch):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    models = []

    class RecordedModel(train_module.AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            self.initial = {k: p.data.copy() for k, p in self.params.items()}
            models.append(self)

    def poisoned_backward(loss):
        real_backward(loss)
        next(iter(models[0].params.values())).grad[0] = np.nan

    real_backward = train_module.backward
    monkeypatch.setattr(train_module, "AffordanceModel", RecordedModel)
    monkeypatch.setattr(train_module, "backward", poisoned_backward)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["event"] == "nan_abort" and math.isfinite(row["total"])
    assert row["reason"].startswith("non-finite gradient in ")
    (model,) = models
    for name, p in model.params.items():
        assert p.data.tobytes() == model.initial[name].tobytes(), name


def test_empty_manifest_is_rejected_before_the_model_is_built(tmp_path,
                                                              monkeypatch):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    empty = manifest.parent / "empty.jsonl"
    empty.write_text("")

    def no_model(config):
        raise AssertionError("model built for an empty dataset")

    monkeypatch.setattr(train_module, "AffordanceModel", no_model)
    with pytest.raises(ConfigError, match="dataset has no samples"):
        train(RunConfig(model=ModelConfig(**TOY)), empty, tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_update_stops_before_reaching_the_parameters(
        tmp_path, monkeypatch, capsys):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    models = []

    class RecordedModel(train_module.AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            models.append(self)

    monkeypatch.setattr(train_module, "AffordanceModel", RecordedModel)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2, lr=1e300))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["event"] == "nan_abort" and math.isfinite(row["total"])
    assert row["reason"].startswith("non-finite AdamW update in ")
    assert not (tmp_path / "run" / "checkpoint").exists()
    (model,) = models
    for name, p in model.params.items():
        assert np.isfinite(p.data).all(), name

    args = ["train", "--data", str(manifest), "--out", str(tmp_path / "cli"),
            "--set", "optimizer.lr=1e300", "--set", "optimizer.epochs=2",
            "--set", "optimizer.batch_size=2"]
    for key, value in TOY.items():
        args += ["--set", f"model.{key}={json.dumps(value)}"]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("runtime error:")
    assert not (tmp_path / "cli" / "checkpoint").exists()


def _drop_moment_entry(ckpt, manifest):
    files = manifest["optimizer"]["exp_avg_sq"]
    del files[next(iter(files))]


def _misshape_moment(ckpt, manifest):
    rel = next(iter(manifest["optimizer"]["exp_avg"].values()))
    write_tensor(ckpt / rel, np.zeros(3, dtype=np.float32))


def _non_integer_optimizer_step(ckpt, manifest):
    manifest["optimizer"]["step"] = "x"


def _truncate_moment_file(ckpt, manifest):
    path = ckpt / next(iter(manifest["optimizer"]["exp_avg"].values()))
    path.write_bytes(path.read_bytes()[:-4])


@pytest.mark.parametrize("damage", [
    _drop_moment_entry, _misshape_moment, _non_integer_optimizer_step,
    _truncate_moment_file,
], ids=["missing_moment_entry", "moment_shape", "optimizer_step",
        "truncated_moment_file"])
def test_damaged_optimizer_state_fails_resume_as_checkpoint_error(
        tmp_path, capsys, damage):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2))
    ckpt = train(config, manifest, tmp_path / "run").checkpoint_dir
    payload = json.loads((ckpt / "manifest.json").read_text())
    damage(ckpt, payload)
    (ckpt / "manifest.json").write_text(json.dumps(payload))

    with pytest.raises(CheckpointError):
        train(config, manifest, tmp_path / "resumed", resume=ckpt)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path), "--data", str(manifest),
                 "--out", str(tmp_path / "cli"), "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err
