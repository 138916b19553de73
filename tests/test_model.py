"""The assembled model: every registered parameter takes part in training."""

import weakref

import numpy as np
import pytest

from affground import backbone as backbone_module
from affground import tensor as T
from affground.config import FusionConfig, LiftingConfig, ModelConfig, RunConfig
from affground.dataio import synth_cloud
from affground.intention import synth_fixture
from affground.model import AffordanceModel
from affground.nn import make_linear, uniform_init
from affground.rng import rng_for

from conftest import TOY


@pytest.mark.parametrize("mode, stages", [
    ("multi", {}), ("single", {}), ("concat", {}),
    ("multi", {"stage1": False}), ("multi", {"stage2": False}),
    ("multi", {"stage1": False, "stage2": False}),
], ids=["multi", "single", "concat", "stage1_off", "stage2_off", "both_off"])
def test_every_parameter_gets_a_nonzero_gradient(mode, stages):
    # an ablation builds only what it runs: no zero-gradient weights. At
    # TOY's radii SA3's two groups hold only their centres, so every offset
    # and w_geo's gradient would be zero: SA3 gets a radius that reaches
    # neighbours, and every stage has a group of two or more
    toy = {**TOY, "radii": [0.1, 0.2, 0.8]}
    config = RunConfig(model=ModelConfig(**toy), lifting=LiftingConfig(mode=mode),
                       fusion=FusionConfig(**stages))
    model = AffordanceModel(config)
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])
    plan = model.build_plan(cloud)
    assert all(np.diff(sa.starts, append=len(sa.group_idx)).max() >= 2
               for sa in plan.sa)
    result = model.forward(hidden, plan)
    total, _, _ = model.loss(result, cloud, hidden)
    T.backward(total)
    dead = [name for name, p in model.params.items()
            if p.grad is None or not np.any(p.grad != 0)]
    assert dead == []


@pytest.mark.parametrize("mode, stages", [
    ("multi", {}), ("single", {}), ("concat", {}),
    ("multi", {"stage1": False}), ("multi", {"stage2": False}),
    ("multi", {"stage1": False, "stage2": False}),
], ids=["multi", "single", "concat", "stage1_off", "stage2_off", "both_off"])
def test_each_half_reads_only_its_own_parameters(mode, stages):
    # train updates integrate_params first and runs the next integrate
    # beside the others' update: poisoning every parameter the other half
    # reads changes neither half's bytes
    config = RunConfig(model=ModelConfig(**TOY), lifting=LiftingConfig(mode=mode),
                       fusion=FusionConfig(**stages))
    model = AffordanceModel(config)
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])
    plan = model.build_plan(cloud)
    fused, scales = model.integrate(hidden, plan)
    result = model.score(hidden, fused, scales)
    first = {id(p) for p in model.integrate_params()}
    assert first and len(first) < len(model.params)
    weights = {name: p.data for name, p in model.params.items()}
    for poisoned in (False, True):
        for name, p in model.params.items():
            p.data = (np.full_like(weights[name], np.nan)
                      if (id(p) in first) == poisoned else weights[name])
        if poisoned:
            again = model.score(hidden, fused, scales)
            assert again.logits.data.tobytes() == result.logits.data.tobytes()
            assert again.aux_logits.data.tobytes() == \
                result.aux_logits.data.tobytes()
        else:
            got, got_scales = model.integrate(hidden, plan)
            assert got.data.tobytes() == fused.data.tobytes()
            assert [s.data.tobytes() for s in got_scales] == \
                [s.data.tobytes() for s in scales]


def test_paper_config_parameter_count():
    # FP3 and the Stage II fuse are one linear layer each; Stage I learns
    # W_q W_k^T and W_v W_o, each lift stage W_q W_k^T, and the decoder
    # W_v W_head.0, each as one matrix. The first layers of SA2, SA3 and
    # FP1-3 and the fuse hold one weight per input part
    model = AffordanceModel(RunConfig())
    assert sum(p.data.size for p in model.params.values()) == 12_524_803
    assert len(model.params) == 66
    assert not any(name.startswith(("backbone.fp3.1.", "fusion.fuse.1.",
                                    "fusion.attn.out."))
                   or ".k." in name for name in model.params)
    assert model.params["decoder.v.w"].shape == (512, 256)


@pytest.mark.parametrize("mode, stages, count", [
    ("multi", {"stage1": False}, 12_000_515),
    ("multi", {"stage2": False}, 11_999_491),
    ("multi", {"stage1": False, "stage2": False}, 10_819_075),
    ("single", {}, 7_276_803),
    ("concat", {}, 5_177_603),
], ids=["stage1_off", "stage2_off", "both_off", "single", "concat"])
def test_paper_config_ablation_parameter_counts(mode, stages, count):
    model = AffordanceModel(RunConfig(lifting=LiftingConfig(mode=mode),
                                      fusion=FusionConfig(**stages)))
    assert sum(p.data.size for p in model.params.values()) == count


@pytest.mark.parametrize("stage2", [True, False], ids=["stage2", "stage2_off"])
def test_full_resolution_params_are_every_part_of_the_layers_on_all_points(
        stage2):
    model = AffordanceModel(RunConfig(model=ModelConfig(**TOY),
                                      fusion=FusionConfig(stage2=stage2)))
    names = {id(p): name for name, p in model.params.items()}
    want = ["backbone.fp3.0.w_src", "backbone.fp3.0.w_skip", "backbone.fp3.0.b",
            "decoder.head.0.w", "decoder.head.0.b",
            "decoder.head.1.w", "decoder.head.1.b"]
    if stage2:
        want += ["fusion.fuse.w_row", "fusion.fuse.w_desc", "fusion.fuse.b"]
    got = [names[id(p)] for p in model.full_resolution_params()]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_split_weight_holds_the_rows_of_one_whole_draw(dtype):
    params = {}
    make_linear(params, "layer", rng_for(9, "init"), 7, 5, dtype,
                parts={"x": 3, "y": 4})
    rng = rng_for(9, "init")
    whole = uniform_init(rng, 7, 5, dtype)
    bias = rng.uniform(-1 / np.sqrt(7), 1 / np.sqrt(7), size=(1, 5))
    x, y, b = (params[f"layer.{key}"].data for key in ("x", "y", "b"))
    assert x.shape == (3, 5) and y.shape == (4, 5)
    assert np.concatenate([x, y]).tobytes() == whole.tobytes()
    assert b.tobytes() == bias.astype(dtype).tobytes()
    assert not np.shares_memory(x, y)


def owned_bytes(nodes):
    """Bytes of the distinct buffers that ``nodes`` hold, each view
    counted as the array it views."""
    owners = {}
    for node in nodes:
        owner = np.asarray(node.data)
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        owners[id(owner)] = owner
    return sum(owner.nbytes for owner in owners.values())


def interior_bytes(root):
    """Bytes of the distinct buffers that the interior nodes of ``root``'s
    graph hold."""
    return owned_bytes(node for node in T.Tape.trace(root).nodes
                       if node._parents)


def test_graph_keeps_no_gathered_or_interpolated_term(monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY))
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])

    def run():
        model = AffordanceModel(config)
        result = model.forward(hidden, model.build_plan(cloud))
        total, _, _ = model.loss(result, cloud, hidden)
        terms = sum(node.data.nbytes for node in T.Tape.trace(total).nodes
                    if node._op in ("gather_rows", "interpolate"))
        kept = interior_bytes(total)
        T.backward(total)
        return kept, terms, {name: p.grad for name, p in model.params.items()}

    kept, _, grads = run()
    # the former graph: linear keeps every addend's buffer
    real_linear = T.linear
    monkeypatch.setattr(backbone_module, "linear",
                        lambda *args, spent=(), **kwargs: real_linear(*args, **kwargs))
    kept_before, terms, grads_before = run()
    assert terms > 0 and kept_before - kept == terms
    for name, grad in grads_before.items():
        assert grads[name].tobytes() == grad.tobytes(), name


def test_graph_keeps_no_gathered_or_interpolated_product(monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY))
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])

    def run():
        model = AffordanceModel(config)
        result = model.forward(hidden, model.build_plan(cloud))
        total, _, _ = model.loss(result, cloud, hidden)
        products = [node._parents[0] for node in T.Tape.trace(total).nodes
                    if node._op in ("gather_rows", "interpolate")]
        held = owned_bytes(products), interior_bytes(total)
        released = all(not any(p.data.strides) for p in products)
        T.backward(total)
        return held, released, {name: p.grad for name, p in model.params.items()}

    (products, kept), released, grads = run()
    assert len(grads) and released
    # the former graph: gather_rows and interpolate keep their input
    for name in ("gather_rows", "interpolate"):
        real = getattr(T, name)
        monkeypatch.setattr(backbone_module, name,
                            lambda *args, release=False, real=real: real(*args))
    (products_before, kept_before), released, grads_before = run()
    assert not released and products_before > 100 * products
    assert kept_before - kept == products_before - products
    for name, grad in grads_before.items():
        assert grads[name].tobytes() == grad.tobytes(), name


def test_graph_keeps_no_pooled_set_abstraction_buffer(monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY))
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])
    real = T.segment_max

    def run(keep_input):
        pooled, buffers = [], []

        def pool(x, starts, release=False):
            pooled.append(x)
            buffers.append(weakref.ref(x.data))
            return real(x, starts, release=release and not keep_input)

        monkeypatch.setattr(backbone_module, "segment_max", pool)
        model = AffordanceModel(config)
        result = model.forward(hidden, model.build_plan(cloud))
        total, _, _ = model.loss(result, cloud, hidden)
        freed = [ref() is None for ref in buffers]
        held = owned_bytes(pooled), interior_bytes(total)
        T.backward(total)
        return freed, held, {name: p.grad for name, p in model.params.items()}

    # every SA stage's (rows, C) layer output is freed while the graph lives
    freed, (pooled, kept), grads = run(keep_input=False)
    assert freed == [True] * 3 and len(grads)
    # the former graph: the pool keeps its input
    freed, (pooled_before, kept_before), grads_before = run(keep_input=True)
    assert freed == [False] * 3 and pooled_before > 100 * pooled
    assert kept_before - kept == pooled_before - pooled
    for name, grad in grads_before.items():
        assert grads[name].tobytes() == grad.tobytes(), name


def test_predict_scores_lie_in_the_closed_unit_interval(monkeypatch):
    # in float32, sigmoid of a logit above about 16.6 rounds to exactly 1.0
    model = AffordanceModel(RunConfig(model=ModelConfig(**TOY)))
    cloud = synth_cloud(1, 0, seed=3, n=TOY["n_points"])
    hidden = synth_fixture(1, 0, seed=4, L=TOY["seq_len"], d_h=TOY["d_h"])
    logits = T.Tensor(np.array([[17.0], [16.0], [0.0], [-17.0]], np.float32))
    monkeypatch.setattr(model.decoder, "predict_map", lambda feats, row: logits)
    scores = model.predict(hidden, model.build_plan(cloud))
    assert scores.dtype == np.float32 and scores.shape == (4,)
    assert scores[0] == 1.0 and 0.5 < scores[1] < 1.0 and scores[2] == 0.5
    assert 0.0 < scores[3] < 1e-7
