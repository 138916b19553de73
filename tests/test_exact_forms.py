"""The exact-algebra layer forms against the repeated-row forms they replace.

Set abstraction, feature propagation, Stage II fusion and lifting compute
each first linear layer on distinct rows only (see the module
docstrings). The oracles below are the forms that build the repeated rows
and multiply them: gather then concatenate, interpolate then concatenate,
tile then concatenate, and the (N, d) x (d, d) key and value projections
of a single query. Both are equal in exact arithmetic. In floating point
every output must lie within ``TOL[dtype]`` times the largest output
magnitude, and every gradient within ``TOL[dtype]`` times the largest
gradient magnitude over all parameters and inputs.
"""

import numpy as np
import pytest

from affground import tensor as T
from affground.backbone import (
    FeaturePropagation,
    PointBackbone,
    SetAbstraction,
    normalize_unit_sphere,
)
from affground.config import ModelConfig, RunConfig
from affground.dataio import synth_cloud
from affground.fusion import FusionModule
from affground.intention import synth_fixture
from affground.lifting import LiftStage
from affground.model import AffordanceModel
from affground.rng import rng_for

TOL = {np.float64: 1e-13, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]


def sa_call_oracle(stage, feats, plan):
    """SetAbstraction: gather member features, concatenate, run the MLP."""
    m, k, _ = plan.rel_coords.shape
    rel = T.Tensor(plan.rel_coords.reshape(m * k, 3).astype(stage.dtype))
    member = T.gather_rows(feats, plan.group_idx.reshape(-1))
    encoded = stage.mlp(T.concat([rel, member], axis=1))
    return T.max_reduce(encoded.reshape(m, k, stage.out_dim), axis=1)


def fp_call_oracle(fp, src_feats, plan, skip_feats):
    """FeaturePropagation: interpolate, concatenate the skip, run the MLP."""
    mixed = T.interpolate(src_feats, plan.nn_idx, plan.weights)
    return fp.mlp(T.concat([mixed, skip_feats], axis=1))


def repeat_rows_oracle(x, n):
    """n copies of a (1, d) row; the backward sums the rows' gradients."""
    def backward(g):
        T._accumulate(x, g.sum(axis=0, keepdims=True))

    data = np.broadcast_to(x.data, (n, x.shape[1])).copy()
    return T._node(data, (x,), backward, "repeat_rows")


def fuse_full_res_oracle(fusion, full_res, descriptor):
    """Stage II: tile the descriptor, concatenate, run the MLP."""
    tiled = repeat_rows_oracle(descriptor, full_res.shape[0])
    return fusion.fuse_mlp(T.concat([full_res, tiled], axis=1))


def lift_stage_oracle(stage, embedding, point_feats):
    """LiftStage with per-point key and value projections."""
    q = stage.wq(embedding)
    k = stage.wk(point_feats)
    v = stage.wv(point_feats)
    scale = 1.0 / np.sqrt(stage.d)
    attn = T.softmax_lastdim(T.matmul(q, T.transpose(k)) * scale)
    updated = embedding + T.matmul(attn, v)
    return updated + stage.ffn(updated)


def assert_within(got: dict, want: dict, tol: float):
    """Every array within tol x the largest magnitude over all of ``want``."""
    assert sorted(got) == sorted(want)
    scale = max(float(np.abs(w).max()) for w in want.values())
    assert scale > 0
    for name, w in want.items():
        assert got[name].shape == w.shape and got[name].dtype == w.dtype, name
        err = float(np.abs(got[name].astype(np.float64) - w).max())
        assert err <= tol * scale, (name, err / scale)


def run(form, inputs: dict, params: dict, seed: int):
    """Output and every gradient of ``sum(form(*inputs) * c)``, c random."""
    leaves = {**params, **inputs}
    for t in leaves.values():
        t.grad = None
    out = form(*inputs.values())
    c = np.random.default_rng(seed).normal(size=out.shape)
    T.backward((out * T.tensor(c, dtype=out.dtype)).sum())
    return out.data.copy(), {k: t.grad.copy() for k, t in leaves.items()}


def check_against_oracle(new, oracle, inputs, params, dtype, seed):
    out, grads = run(new, inputs, params, seed)
    want_out, want_grads = run(oracle, inputs, params, seed)
    assert_within({"out": out}, {"out": want_out}, TOL[dtype])
    assert_within(grads, want_grads, TOL[dtype])


def leaf(rng, shape, dtype):
    return T.tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)


def real_plan(d, dtype):
    """A backbone and the plan of a cloud whose groups are padded."""
    params = {}
    backbone = PointBackbone(params, "backbone", rng_for(0, "init"), d=d,
                             stage_points=[64, 16, 4], k_max=[8, 8, 8],
                             dtype=dtype)
    coords = normalize_unit_sphere(np.random.default_rng(41).normal(size=(160, 3)))
    return params, backbone, backbone.build_plan(coords)


def stage_params(params, prefix):
    return {k: v for k, v in params.items() if k.startswith(prefix + ".")}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_set_abstraction_matches_gather_concat(i, dtype):
    params, backbone, plan = real_plan(16, dtype)
    stage = backbone.sa_stages[i]
    in_dim = stage.mlp.layers[0].w.shape[0] - 3
    rng = np.random.default_rng(42 + i)
    feats = leaf(rng, (len(plan.level_coords[i]), in_dim), dtype)
    check_against_oracle(lambda f: stage(f, plan.sa[i]),
                         lambda f: sa_call_oracle(stage, f, plan.sa[i]),
                         {"feats": feats},
                         stage_params(params, f"backbone.sa{i + 1}"), dtype, i)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_feature_propagation_matches_interpolate_concat(i, dtype):
    params, backbone, plan = real_plan(16, dtype)
    fp = backbone.fp_stages[i]
    fp_plan = plan.fp[i]
    skip_dim = fp.mlp.layers[0].w.shape[0] - 16
    rng = np.random.default_rng(45 + i)
    inputs = {"src": leaf(rng, (int(fp_plan.nn_idx.max()) + 1, 16), dtype),
              "skip": leaf(rng, (len(fp_plan.nn_idx), skip_dim), dtype)}
    check_against_oracle(lambda s, k: fp(s, fp_plan, k),
                         lambda s, k: fp_call_oracle(fp, s, fp_plan, k),
                         inputs, stage_params(params, f"backbone.fp{i + 1}"),
                         dtype, 3 + i)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_rows", [1, 50])
def test_fuse_full_res_matches_tile_concat(n_rows, dtype):
    params = {}
    fusion = FusionModule(params, "fusion", rng_for(1, "init"), 16, dtype=dtype)
    rng = np.random.default_rng(48)
    inputs = {"full_res": leaf(rng, (n_rows, 16), dtype),
              "descriptor": leaf(rng, (1, 16), dtype)}
    check_against_oracle(fusion.fuse_full_res,
                         lambda f, dsc: fuse_full_res_oracle(fusion, f, dsc),
                         inputs, stage_params(params, "fusion.fuse"), dtype, 6)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_points", [1, 7, 64])
def test_lift_stage_matches_key_value_projections(n_points, dtype):
    params = {}
    stage = LiftStage(params, "stage", rng_for(2, "init"), 16, dtype=dtype)
    rng = np.random.default_rng(49)
    inputs = {"embedding": leaf(rng, (1, 16), dtype),
              "point_feats": leaf(rng, (n_points, 16), dtype)}
    check_against_oracle(stage,
                         lambda e, p: lift_stage_oracle(stage, e, p),
                         inputs, params, dtype, 7)


TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}


def toy_samples():
    return [(synth_cloud(c, a, seed=5 + c, n=TOY["n_points"]),
             synth_fixture(c, a, seed=7 + c, L=TOY["seq_len"], d_h=TOY["d_h"]))
            for c, a in [(0, 1), (2, 0)]]


def patch_in_oracles(m):
    m.setattr(SetAbstraction, "__call__", sa_call_oracle)
    m.setattr(FeaturePropagation, "__call__", fp_call_oracle)
    m.setattr(FusionModule, "fuse_full_res", fuse_full_res_oracle)
    m.setattr(LiftStage, "__call__", lift_stage_oracle)


@pytest.mark.parametrize("dtype", DTYPES)
def test_model_matches_the_repeated_row_forms(dtype, monkeypatch):
    samples = toy_samples()

    def accumulated():
        model = AffordanceModel(RunConfig(model=ModelConfig(**TOY)), dtype=dtype)
        outputs = {}
        for j, (cloud, hidden) in enumerate(samples):
            result = model.forward(cloud, hidden)
            total, _, _ = model.loss(result, cloud, hidden)
            T.backward(total)
            outputs[f"loss{j}"] = total.data.copy()
            outputs[f"scores{j}"] = result.scores.data.copy()
        return outputs, {k: p.grad for k, p in model.params.items()}

    outputs, grads = accumulated()
    with monkeypatch.context() as m:
        patch_in_oracles(m)
        want_outputs, want_grads = accumulated()
    for name in outputs:
        assert_within({name: outputs[name]}, {name: want_outputs[name]}, TOL[dtype])
    assert_within(grads, want_grads, TOL[dtype])


def test_forward_multiplies_fewer_rows(monkeypatch):
    """The model's forward does fewer multiply-adds than the oracle forms."""
    cloud, hidden = toy_samples()[0]
    model = AffordanceModel(RunConfig(model=ModelConfig(**TOY)))
    plan = model.build_plan(cloud)
    matmul = T.matmul
    macs = []

    def counting(a, b):
        macs[-1] += a.shape[0] * a.shape[1] * b.shape[1]
        return matmul(a, b)

    def forward_macs():
        macs.append(0)
        with T.no_grad():
            model.forward(cloud, hidden, plan)
        return macs[-1]

    for module in ("tensor", "backbone", "fusion", "lifting", "nn"):
        monkeypatch.setattr(f"affground.{module}.matmul", counting)
    new = forward_macs()
    patch_in_oracles(monkeypatch)
    assert new < forward_macs()
