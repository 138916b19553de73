"""Training runs: an interrupted run resumed from its checkpoint."""

import pytest

from affground.config import ModelConfig, OptimConfig, RunConfig
from affground.dataio import gen_synthetic_dataset, load_checkpoint
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
