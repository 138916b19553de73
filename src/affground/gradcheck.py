"""Central finite-difference verification of analytic gradients, and the
suite that the gradcheck command runs.

:func:`run_gradcheck_suite` checks, in float64 against central
differences with step 1e-5 (1e-6 for the primitives and the loss nodes,
whose closed forms tolerate the smaller step):

- every autodiff primitive, one at a time (15 checks; every check scalar
  is a mean built from the primitives alone, ``tmean(t * t)`` for a
  square);
- the two loss nodes: the map loss at ordinary logits and at saturated
  ones (|z| from 20 to 30, where a wrongly signed point's gradient is
  about ``alpha / N``), and the text-label cross-entropy;
- each module as a composite: Stage I attention, the Stage II descriptor
  and fuse, the three lift stages, the decoder, and the backbone's encode
  and decode;
- the whole toy model (``composite.model``): :meth:`AffordanceModel.forward`
  and :meth:`AffordanceModel.loss` over every entry of ``model.params``,
  backbone included.

That is 26 checks: 15 primitive, 3 loss and 8 module or model ones.

One toy model (d=4, d_h=8, cont_width=4, N=16, L=3) is built per suite
run; the module composites take their module and parameters from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import PointCloud, normalize_unit_sphere
from .config import ModelConfig, RunConfig
from .errors import NumericError
from .intention import HiddenStates
from .losses import LossWeights, cross_entropy, map_loss
from .model import AffordanceModel
from .rng import derive_seed
from .tensor import Tensor, backward, no_grad


def _eval_scalar(f) -> float:
    with no_grad():
        out = f()
    value = float(out.data.reshape(()))
    if not np.isfinite(value):
        raise NumericError("finite-difference probe produced a non-finite value")
    return value


def finite_difference_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the tensor ``x`` to a scalar Tensor and must be
    re-evaluable (it is called 2*size(x) + 1 times). The error at each
    coordinate is |analytic - numeric| / max(1, |numeric|); the maximum
    over coordinates is returned. Use float64 inputs for tight tolerances.
    """
    return finite_difference_check_params(lambda: f(x), {"x": x}, h)["x"]


def finite_difference_check_params(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Check gradients of ``loss_fn()`` w.r.t. every tensor in ``params``.

    Returns a name -> max-relative-error map using the same error measure
    as :func:`finite_difference_check`. One analytic backward pass is
    shared by all parameters.
    """
    for p in params.values():
        p.grad = None
    out = loss_fn()
    if not np.isfinite(out.data).all():
        raise NumericError("loss is not finite at the current parameters")
    backward(out)
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    errors = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = _eval_scalar(loss_fn)
            flat[i] = orig - h
            fm = _eval_scalar(loss_fn)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            err = abs(analytic[name].reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
        errors[name] = worst
    return errors


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_error <= self.tolerance


# -- the suite ---------------------------------------------------------------

N = 16
L = 3


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def _const(shape, seed):
    return Tensor(_rand(shape, seed), dtype=np.float64)


def _square_mean(t: Tensor) -> Tensor:
    """The mean of ``t``'s squared entries, as ``mul`` then ``tmean``."""
    return T.tmean(t * t)


def _primitive_checks(tol) -> list:
    """One check per primitive. A check's input is drawn from a seed of
    its name alone, so adding or deleting a check redraws no other's."""
    checks = []
    c34 = _const((3, 4), 100)
    c14 = _const((1, 4), 101)
    c43 = _const((4, 3), 102)
    c25 = _const((2, 5), 103)
    c13 = _const((1, 3), 104)
    gather_idx = np.array([0, 2, 2, 1])
    # segments of one, three and one rows
    seg_starts = np.array([0, 1, 4])
    # source row 0 is read three times, row 1 never
    interp_idx = np.array([[0, 0], [2, 0], [0, 2]])
    interp_w = np.array([[0.7, 0.3], [0.25, 0.75], [0.5, 0.5]])

    cases = [
        ("add", (3, 4), lambda x: T.tmean(x + c34)),
        ("add_broadcast", (3, 4), lambda x: T.tmean(x + c14)),
        ("mul", (3, 4), lambda x: T.tmean(x * c34 * x)),
        ("matmul", (3, 4), lambda x: T.tmean(T.matmul(x, c43))),
        ("softmax_lastdim", (2, 5), lambda x: T.tmean(T.softmax_lastdim(x) * c25)),
        ("mean", (3, 4), lambda x: _square_mean(T.tmean(x, axis=0))),
        ("segment_max", (5, 4),
         lambda x: T.tmean(T.segment_max(x, seg_starts) * c34)),
        ("segment_max_released", (5, 4), lambda x: _square_mean(T.segment_max(
            T.linear(x, c43, (c13,)), seg_starts, release=True))),
        ("transpose", (3, 4), lambda x: T.tmean(T.transpose(x) * c43)),
        ("gather_rows", (3, 4), lambda x: _square_mean(T.gather_rows(x, gather_idx))),
        ("interpolate", (3, 4),
         lambda x: _square_mean(T.interpolate(x, interp_idx, interp_w))),
        ("linear", (3, 4), lambda x: _square_mean(T.linear(x, c43, (c13,)))),
        ("linear_relu", (3, 4),
         lambda x: _square_mean(T.linear(x, c43, (c13,), relu=True))),
        ("linear_broadcast_bias", (1, 3),
         lambda x: _square_mean(T.linear(c34, c43, (x,), relu=True))),
        ("linear_two_addends", (3, 3),
         lambda x: _square_mean(T.linear(c34, c43, (x, c13), relu=True))),
    ]
    for name, shape, fn in cases:
        x = Tensor(_rand(shape, derive_seed("gradcheck", name)),
                   requires_grad=True, dtype=np.float64)
        err = finite_difference_check(fn, x, h=1e-6)
        checks.append(CheckResult(f"primitive.{name}", err, tol))
    return checks


def _loss_terms(tol) -> list:
    rng = np.random.default_rng(10)
    y = (rng.uniform(size=N) > 0.5).astype(np.float64)
    weights = LossWeights()
    ordinary = rng.normal(size=(N, 1))
    # random signs against random labels: about half the points are
    # confidently wrong
    saturated = rng.uniform(20.0, 30.0, size=(N, 1)) * rng.choice([-1.0, 1.0], (N, 1))
    checks = []
    for name, z in (("map_loss", ordinary), ("map_loss_saturated", saturated)):
        logits = Tensor(z, requires_grad=True, dtype=np.float64)
        err = finite_difference_check(lambda t: map_loss(t, y, weights), logits,
                                      h=1e-6)
        checks.append(CheckResult(f"composite.{name}", err, tol))
    row = Tensor(rng.normal(size=(1, 5)), requires_grad=True, dtype=np.float64)
    err = finite_difference_check(lambda t: cross_entropy(t, 2), row, h=1e-6)
    return checks + [CheckResult("composite.cross_entropy", err, tol)]


def _model_checks(tol) -> list:
    """Each module of one float64 toy model, then the model as a whole."""
    d, d_h = 4, 8
    toy = ModelConfig(n_points=N, d=d, d_h=d_h, seq_len=L, cont_width=4,
                      stage_points=[8, 4, 2], radii=[0.35, 0.6, 1.0],
                      k_max=[4, 4, 2])
    model = AffordanceModel(RunConfig(model=toy), dtype=np.float64)
    gen = np.random.default_rng(13)
    cloud = PointCloud(coords=normalize_unit_sphere(gen.normal(size=(N, 3))),
                       labels=gen.uniform(size=N) > 0.5)
    hidden = HiddenStates(gen.normal(size=(L, d_h)), cont_index=L - 1,
                          affordance_id=1)
    plan = model.build_plan(cloud)
    fusion, decoder = model.fusion, model.decoder
    queries = _const((4, d), 1)
    tokens = _const((L, d), 2)
    feats = _const((N, d), 4)
    emb = _const((1, d), 5)
    minus_feats = Tensor(-feats.data)

    def check(name, prefixes, loss_fn):
        params = {k: v for k, v in model.params.items() if k.startswith(prefixes)}
        errs = finite_difference_check_params(loss_fn, params)
        return CheckResult(f"composite.{name}", max(errs.values()), tol)

    def stage2_loss():
        descriptor = fusion.gated_global_descriptor(tokens)
        return _square_mean(fusion.fuse_full_res(feats, descriptor))

    def decoder_loss():
        logits = decoder.predict_map(feats, decoder.point_to_intention(emb))
        return map_loss(logits, cloud.labels, LossWeights())

    def backbone_loss():
        bottleneck, skips = model.backbone.encode(plan)
        full_res, _ = model.backbone.decode(bottleneck, skips, plan)
        return _square_mean(full_res + minus_feats)

    def model_loss():
        return model.loss(model.forward(hidden, plan), cloud, hidden)[0]

    checks = [
        check("stage1_attention", "fusion.attn.", lambda: _square_mean(
            fusion.bottleneck_cross_attention(queries, tokens))),
        check("stage2_descriptor_fuse", ("fusion.gate.", "fusion.fuse."),
              stage2_loss),
    ]
    for i, stage in enumerate(model.lifting.stages):
        scale = _const((2 ** (i + 1), d), 6 + i)
        checks.append(check(f"lift_stage{i + 1}", f"lifting.stage{i + 1}.",
                            lambda: _square_mean(stage(emb, scale))))
    return checks + [
        check("decoder", "decoder.", decoder_loss),
        check("backbone_encode_decode", "backbone.", backbone_loss),
        check("model", "", model_loss),  # every name starts with ""
    ]


def run_gradcheck_suite(tol: float = 1e-4) -> list:
    """Every primitive, every module and the toy model against finite differences."""
    return _primitive_checks(tol) + _loss_terms(tol) + _model_checks(tol)
