"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .tensor import Tensor, backward, no_grad, zero_grad


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
    zero_grad(params)
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


def run_gradcheck_suite(tol: float = 1e-4) -> list:
    """Finite-difference checks for every primitive and composite block.

    Builds small float64 instances of each trainable component and
    verifies all parameter gradients against central differences.
    Imported lazily so this module stays dependency-light.
    """
    from . import suite as _suite

    return _suite.build_and_run(tol)
