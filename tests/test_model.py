"""The assembled model: every registered parameter takes part in training."""

import numpy as np
import pytest

from affground import tensor as T
from affground.config import FusionConfig, LiftingConfig, ModelConfig, RunConfig
from affground.dataio import synth_cloud
from affground.intention import synth_fixture
from affground.model import AffordanceModel

TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}


@pytest.mark.parametrize("mode, stages", [
    ("multi", {}), ("single", {}), ("concat", {}),
    ("multi", {"stage1": False}), ("multi", {"stage2": False}),
    ("multi", {"stage1": False, "stage2": False}),
], ids=["multi", "single", "concat", "stage1_off", "stage2_off", "both_off"])
def test_every_parameter_gets_a_nonzero_gradient(mode, stages):
    # an ablation builds only what it runs: no zero-gradient weights
    config = RunConfig(model=ModelConfig(**TOY), lifting=LiftingConfig(mode=mode),
                       fusion=FusionConfig(**stages))
    model = AffordanceModel(config)
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])
    result = model.forward(cloud, hidden)
    total, _, _ = model.loss(result, cloud, hidden)
    T.backward(total)
    dead = [name for name, p in model.params.items()
            if p.grad is None or not np.any(p.grad != 0)]
    assert dead == []


def test_paper_config_parameter_count():
    # FP3 and the Stage II fuse are one linear layer each
    model = AffordanceModel(RunConfig())
    assert sum(p.data.size for p in model.params.values()) == 13_966_595
    assert not any(name.startswith(("backbone.fp3.1.", "fusion.fuse.1."))
                   for name in model.params)
