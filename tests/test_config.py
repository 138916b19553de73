"""Run configuration: key and type checks, retired keys, and every switch."""

import json
import math

import pytest

from affground.cli import main
from affground.config import (
    RETIRED_KEYS,
    FusionConfig,
    LiftingConfig,
    ModelConfig,
    OptimConfig,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from affground.dataio import gen_synthetic_dataset, load_checkpoint
from affground.errors import ConfigError
from affground.train import load_model, train

TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}


def with_retired(payload: dict, **retired) -> dict:
    """A config dict as older versions saved it: with every retired key."""
    for dotted, value in {**RETIRED_KEYS, **retired}.items():
        section, key = dotted.split(".")
        payload[section][key] = value
    return payload


def saved_config(**retired) -> dict:
    return with_retired(RunConfig().to_dict(), **retired)


def run_cli(args, capsys) -> tuple:
    capsys.readouterr()
    code = main(args)
    return code, capsys.readouterr().err


def toy_manifest(root):
    return gen_synthetic_dataset(root, 1, 2, 1, TOY["n_points"], seed=2,
                                 d_h=TOY["d_h"], seq_len=TOY["seq_len"])


# -- keys ------------------------------------------------------------------


def test_settable_field_count():
    payload = RunConfig().to_dict()
    leaves = [k for v in payload.values() for k in (v if isinstance(v, dict) else [v])]
    assert len(leaves) == 27


@pytest.mark.parametrize("payload, name", [
    ({"model": {"depth": 3}}, "depth"),
    ({"fusion": {"n_head": 1}}, "n_head"),
    ({"epochs": 3}, "epochs"),
])
def test_unknown_keys_are_rejected(payload, name):
    with pytest.raises(ConfigError, match=name):
        config_from_dict(payload)


def test_unknown_override_is_rejected():
    with pytest.raises(ConfigError, match="fusion.heads"):
        apply_overrides(RunConfig(), ["fusion.heads=2"])


def test_retired_keys_at_their_kept_value_are_dropped():
    payload = saved_config()
    config = config_from_dict(payload)
    assert config.to_dict() == RunConfig().to_dict()
    # the caller's dict is left as it was
    assert payload["fusion"]["n_heads"] == 1


@pytest.mark.parametrize("dotted, value", [
    ("model.include_bottleneck_scale", False),
    ("fusion.n_heads", 2),
    ("fusion.n_heads", True),
    ("fusion.residual", True),
    ("lifting.share_weights", True),
    ("lifting.coarse_to_fine", False),
    ("optimizer.schedule", "constant"),
])
def test_retired_keys_at_any_other_value_are_rejected(dotted, value):
    with pytest.raises(ConfigError, match=dotted):
        config_from_dict(saved_config(**{dotted: value}))


# -- types and ranges ------------------------------------------------------


@pytest.mark.parametrize("override, name", [
    ('model.d="abc"', "model.d"),
    ('checkpoint_every="abc"', "checkpoint_every"),
    ('optimizer.lr="x"', "optimizer.lr"),
    ("optimizer.lr=NaN", "optimizer.lr"),
    ("optimizer.epochs=true", "optimizer.epochs"),
    ("optimizer.epochs=2.0", "optimizer.epochs"),
    ('model.k_max=[8,"8",8]', "model.k_max[1]"),
    ("model.radii=0.1", "model.radii"),
    ('fusion.stage1="no"', "fusion.stage1"),
    ("lifting.mode=1", "lifting.mode"),
    ('losses.lambda_txt="x"', "losses"),
    ("optimizer.beta1=1", "optimizer.beta1"),
    ("optimizer.beta2=1.5", "optimizer.beta2"),
    ("optimizer.beta1=-0.1", "optimizer.beta1"),
    ("optimizer.eps=0", "optimizer.eps"),
    ("optimizer.weight_decay=-0.01", "optimizer.weight_decay"),
    ("model.cont_width=0", "model.cont_width"),
])
def test_bad_values_exit_1_without_traceback(tmp_path, capsys, override, name):
    code, err = run_cli(["train", "--data", str(tmp_path / "none.jsonl"),
                         "--out", str(tmp_path / "run"), "--set", override],
                        capsys)
    assert code == 1
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_an_int_is_accepted_for_a_float():
    config = apply_overrides(RunConfig(), ["optimizer.lr=1", "model.radii=[1,2,3]"])
    assert config.optimizer.lr == 1
    assert config.model.radii == [1, 2, 3]


def test_wrong_types_in_python_fail_validate():
    with pytest.raises(ConfigError, match="model.d"):
        RunConfig(model=ModelConfig(d="abc")).validate()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=1.5).validate()


@pytest.mark.parametrize("text", ["{", '{"model": }', "[1, 2]", ""])
def test_bad_json_in_load_config(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)
    code, err = run_cli(["train", "--config", str(path), "--data", "none.jsonl",
                         "--out", str(tmp_path / "run")], capsys)
    assert code == 1 and "Traceback" not in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code, err = run_cli(["train", "--config", str(tmp_path / "absent.json"),
                         "--data", "none.jsonl", "--out", str(tmp_path / "run")],
                        capsys)
    assert code == 1 and "cannot read config" in err


def test_saved_config_with_a_retired_key_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(saved_config(**{"fusion.n_heads": 2})))
    code, err = run_cli(["train", "--config", str(path), "--data", "none.jsonl",
                         "--out", str(tmp_path / "run")], capsys)
    assert code == 1 and "fusion.n_heads" in err


# -- every remaining switch, one training step each ------------------------


@pytest.mark.parametrize("fusion, lifting", [
    (FusionConfig(stage1=False), LiftingConfig()),
    (FusionConfig(stage2=False), LiftingConfig()),
    (FusionConfig(), LiftingConfig(mode="single")),
    (FusionConfig(), LiftingConfig(mode="concat")),
])
def test_one_training_step_per_switch_setting(tmp_path, fusion, lifting):
    config = RunConfig(model=ModelConfig(**TOY), fusion=fusion, lifting=lifting,
                       optimizer=OptimConfig(epochs=1, batch_size=2))
    result = train(config, toy_manifest(tmp_path / "data"), tmp_path / "run")
    rows = [json.loads(line) for line in result.log_path.read_text().splitlines()]
    assert len(rows) == 1 and result.steps == 1
    assert all(math.isfinite(rows[0][k]) for k in ("l_txt", "l_aff", "total", "lr"))
    model, loaded, ckpt = load_model(result.checkpoint_dir)
    assert loaded.to_dict() == config.to_dict()
    assert model.params.keys() == ckpt.params.keys()
    for name, p in model.params.items():
        assert p.data.tobytes() == ckpt.params[name].tobytes(), name


# -- checkpoints written before the keys were retired ----------------------


def age_checkpoint(ckpt_dir, **retired):
    """Rewrite a checkpoint manifest as an older version wrote it."""
    path = ckpt_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    with_retired(manifest["config"], **retired)
    manifest["rng"] = {"seed": 0, "step": manifest["step"]}
    path.write_text(json.dumps(manifest))


class Interrupt(Exception):
    pass


def test_older_checkpoint_evaluates_and_resumes(tmp_path, capsys):
    manifest = toy_manifest(tmp_path / "data")
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2),
                       checkpoint_every=1)
    full = train(config, manifest, tmp_path / "full")

    def crash_at_step_1(row):
        if row["step"] == 1:
            raise Interrupt

    with pytest.raises(Interrupt):
        train(config, manifest, tmp_path / "cut", log_fn=crash_at_step_1)
    ckpt_dir = tmp_path / "cut" / "checkpoint"
    assert load_checkpoint(ckpt_dir).step == 1
    age_checkpoint(ckpt_dir)

    code, err = run_cli(["eval", "--checkpoint", str(ckpt_dir), "--data",
                         str(manifest)], capsys)
    assert code == 0 and err == ""
    resumed = train(config, manifest, tmp_path / "cut", resume=ckpt_dir)
    assert resumed.log_path.read_text() == full.log_path.read_text()
    want = load_checkpoint(full.checkpoint_dir)
    got = load_checkpoint(resumed.checkpoint_dir)
    for name, arr in want.params.items():
        assert got.params[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("dotted, value", [("fusion.n_heads", 2),
                                           ("optimizer.schedule", "constant")])
def test_older_checkpoint_with_another_value_exits_1(tmp_path, capsys, dotted, value):
    run = train(RunConfig(model=ModelConfig(**TOY),
                          optimizer=OptimConfig(epochs=1, batch_size=2)),
                toy_manifest(tmp_path / "data"), tmp_path / "run")
    age_checkpoint(run.checkpoint_dir, **{dotted: value})
    code, err = run_cli(["eval", "--checkpoint", str(run.checkpoint_dir), "--data",
                         str(tmp_path / "data" / "manifest.jsonl")], capsys)
    assert code == 1 and dotted in err and "Traceback" not in err
