"""The finite-difference suite: every primitive and composite block.

All checks run in float64 at toy shapes (d=8, N=16, L=3) against central
differences with step 1e-5 (1e-6 for raw primitives, whose closed forms
tolerate the smaller step). Used by the gradcheck CLI and the
acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .backbone import PointBackbone, normalize_unit_sphere
from .decoder import AffordanceDecoder
from .fusion import FusionModule
from .gradcheck import CheckResult, finite_difference_check, \
    finite_difference_check_params
from .intention import HiddenStates, IntentionHead
from .lifting import GeometryLifting
from .losses import LossWeights, affordance_loss, cross_entropy, dice_loss, \
    focal_loss, total_loss
from .rng import rng_for

D = 8
N = 16
L = 3


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def _primitive_checks(tol) -> list:
    checks = []
    c34 = T.tensor(_rand((3, 4), 100), dtype=np.float64)
    c14 = T.tensor(_rand((1, 4), 101), dtype=np.float64)
    c43 = T.tensor(_rand((4, 3), 102), dtype=np.float64)
    c25 = T.tensor(_rand((2, 5), 103), dtype=np.float64)
    gather_idx = np.array([0, 2, 2, 1])
    # source row 0 is read three times, row 1 never
    interp_idx = np.array([[0, 0], [2, 0], [0, 2]])
    interp_w = np.array([[0.7, 0.3], [0.25, 0.75], [0.5, 0.5]])

    cases = [
        ("add", (3, 4), lambda x: (x + c34).sum(), False),
        ("add_broadcast", (3, 4), lambda x: (x + c14).sum(), False),
        ("sub", (3, 4), lambda x: (c34 - x).sum(), False),
        ("mul", (3, 4), lambda x: (x * c34 * x).sum(), False),
        ("div", (3, 4), lambda x: (1.0 / x).sum(), True),
        ("matmul", (3, 4), lambda x: (x @ c43).sum(), False),
        ("power", (3, 4), lambda x: (x ** 3.0).sum(), True),
        ("relu", (3, 4), lambda x: T.relu(x).sum(), False),
        ("sigmoid", (3, 4), lambda x: T.sigmoid(x).sum(), False),
        ("exp", (3, 4), lambda x: T.exp(x).sum(), False),
        ("log", (3, 4), lambda x: T.log(x).sum(), True),
        ("clip", (3, 4), lambda x: T.clip(x, -0.4, 0.4).sum(), False),
        ("softmax_lastdim", (2, 5),
         lambda x: (T.softmax_lastdim(x) * c25).sum(), False),
        ("sum_axis", (3, 4), lambda x: (x * x.sum(axis=1, keepdims=True)).sum(),
         False),
        ("mean", (3, 4), lambda x: (x.mean(axis=0) ** 2.0).sum(), False),
        ("max_reduce", (3, 4), lambda x: T.max_reduce(x, axis=1).sum(), False),
        ("reshape", (3, 4), lambda x: (x.reshape(2, 6) ** 2.0).sum(), False),
        ("transpose", (3, 4), lambda x: (x.T * c43).sum(), False),
        ("concat", (3, 4), lambda x: (T.concat([x, c34], axis=1) ** 2.0).sum(),
         False),
        ("gather_rows", (3, 4),
         lambda x: (T.gather_rows(x, gather_idx) ** 2.0).sum(), False),
        ("interpolate", (3, 4),
         lambda x: (T.interpolate(x, interp_idx, interp_w) ** 2.0).sum(), False),
        ("slice_rows", (3, 4), lambda x: (T.slice_rows(x, 1, 3) ** 2.0).sum(),
         False),
        ("slice_cols", (3, 4), lambda x: (T.slice_cols(x, 1, 3) ** 2.0).sum(),
         False),
    ]
    for i, (name, shape, fn, positive) in enumerate(cases):
        data = _rand(shape, 200 + i)
        if positive:
            data = np.abs(data) + 0.5
        x = T.tensor(data, requires_grad=True, dtype=np.float64)
        err = finite_difference_check(fn, x, h=1e-6)
        checks.append(CheckResult(f"primitive.{name}", err, tol))
    return checks


def _stage1_attention(tol) -> CheckResult:
    params = {}
    fusion = FusionModule(params, "fusion", rng_for(1, "suite"), D,
                          dtype=np.float64)
    queries = T.tensor(_rand((4, D), 1), dtype=np.float64)
    tokens = T.tensor(_rand((L, D), 2), dtype=np.float64)
    attn_params = {k: v for k, v in params.items() if ".attn" in k}
    errs = finite_difference_check_params(
        lambda: (fusion.bottleneck_cross_attention(queries, tokens) ** 2.0).sum(),
        attn_params)
    return CheckResult("composite.stage1_attention", max(errs.values()), tol)


def _stage2_descriptor_fuse(tol) -> CheckResult:
    params = {}
    fusion = FusionModule(params, "fusion", rng_for(2, "suite"), D,
                          dtype=np.float64)
    tokens = T.tensor(_rand((L, D), 3), dtype=np.float64)
    feats = T.tensor(_rand((N, D), 4), dtype=np.float64)

    def loss():
        desc = fusion.gated_global_descriptor(tokens)
        return (fusion.fuse_full_res(feats, desc) ** 2.0).sum()

    stage2 = {k: v for k, v in params.items() if ".gate" in k or ".fuse" in k}
    errs = finite_difference_check_params(loss, stage2)
    return CheckResult("composite.stage2_descriptor_fuse", max(errs.values()), tol)


def _lift_stages(tol) -> list:
    checks = []
    params = {}
    lifting = GeometryLifting(params, "lifting", rng_for(3, "suite"), D,
                              dtype=np.float64)
    emb = T.tensor(_rand((1, D), 5), dtype=np.float64)
    for i, stage in enumerate(lifting.stages):
        feats = T.tensor(_rand((2 ** (i + 1), D), 6 + i), dtype=np.float64)
        stage_params = {k: v for k, v in params.items()
                        if f".stage{i + 1}." in k}
        errs = finite_difference_check_params(
            lambda: (stage(emb, feats) ** 2.0).sum(), stage_params)
        checks.append(CheckResult(f"composite.lift_stage{i + 1}",
                                  max(errs.values()), tol))
    return checks


def _decoder(tol) -> CheckResult:
    params = {}
    decoder = AffordanceDecoder(params, "decoder", rng_for(4, "suite"), D,
                                dtype=np.float64)
    feats = T.tensor(_rand((N, D), 7), dtype=np.float64)
    emb = T.tensor(_rand((1, D), 8), dtype=np.float64)
    target = (np.random.default_rng(9).uniform(size=N) > 0.5).astype(np.float64)

    def loss():
        f = decoder.point_to_intention(feats, emb)
        return affordance_loss(decoder.predict_map(f), target)

    errs = finite_difference_check_params(loss, params)
    return CheckResult("composite.decoder", max(errs.values()), tol)


def _loss_terms(tol) -> list:
    rng = np.random.default_rng(10)
    y = (rng.uniform(size=N) > 0.5).astype(np.float64)
    logits = T.tensor(rng.normal(size=(N, 1)), requires_grad=True,
                      dtype=np.float64)
    focal_err = finite_difference_check(
        lambda z: focal_loss(T.sigmoid(z), y), logits, h=1e-6)
    dice_err = finite_difference_check(
        lambda z: dice_loss(T.sigmoid(z), y), logits, h=1e-6)
    return [CheckResult("composite.focal", focal_err, tol),
            CheckResult("composite.dice", dice_err, tol)]


def _backbone_encode_decode(tol) -> CheckResult:
    params = {}
    backbone = PointBackbone(params, "backbone", rng_for(5, "suite"), d=D,
                             stage_points=[8, 4, 2], radii=[0.35, 0.6, 1.0],
                             k_max=[4, 4, 2], dtype=np.float64)
    coords = normalize_unit_sphere(_rand((N, 3), 11))
    plan = backbone.build_plan(coords)
    target = T.tensor(_rand((N, D), 12), dtype=np.float64)

    def loss():
        bottleneck, skips = backbone.encode(plan)
        ms = backbone.decode(bottleneck, skips, plan)
        return ((ms.full_res - target) ** 2.0).mean()

    errs = finite_difference_check_params(loss, params)
    return CheckResult("composite.backbone_encode_decode", max(errs.values()), tol)


def _total_objective(tol) -> CheckResult:
    """Fusion + lifting + decoder + both loss terms, end to end."""
    d_h, k = 12, 2
    params = {}
    rng = rng_for(6, "suite")
    fusion = FusionModule(params, "fusion", rng, D, dtype=np.float64)
    lifting = GeometryLifting(params, "lifting", rng, D, dtype=np.float64)
    decoder = AffordanceDecoder(params, "decoder", rng, D, dtype=np.float64)
    intention = IntentionHead(params, "intention", rng, d_h=d_h, d=D,
                              n_affordances=k, cont_width=6, dtype=np.float64)

    gen = np.random.default_rng(13)
    hidden = HiddenStates(gen.normal(size=(L, d_h)).astype(np.float32),
                          cont_index=L - 1, affordance_id=1)
    full_res = T.tensor(gen.normal(size=(N, D)), dtype=np.float64)
    scales = [(None, T.tensor(gen.normal(size=(2 ** (i + 1), D)),
                              dtype=np.float64)) for i in range(3)]
    targets = (gen.uniform(size=N) > 0.5).astype(np.float64)
    weights = LossWeights()

    def loss():
        tokens = intention.project_hidden(hidden)
        enhanced = fusion.bottleneck_cross_attention(scales[0][1], tokens)
        desc = fusion.gated_global_descriptor(tokens)
        fused = fusion.fuse_full_res(full_res, desc)
        emb = lifting.lift_all(intention.project_cont(hidden).vector,
                               [(None, enhanced), scales[1], scales[2]])
        feats = decoder.point_to_intention(fused, emb)
        l_aff = affordance_loss(decoder.predict_map(feats), targets, weights)
        l_txt = cross_entropy(intention.aux_affordance_logits(hidden),
                              hidden.affordance_id)
        return total_loss(l_txt, l_aff, weights)

    errs = finite_difference_check_params(loss, params)
    return CheckResult("composite.total_objective", max(errs.values()), tol)


def build_and_run(tol: float = 1e-4) -> list:
    results = _primitive_checks(tol)
    results.append(_stage1_attention(tol))
    results.append(_stage2_descriptor_fuse(tol))
    results.extend(_lift_stages(tol))
    results.append(_decoder(tol))
    results.extend(_loss_terms(tol))
    results.append(_backbone_encode_decode(tol))
    results.append(_total_objective(tol))
    return results
