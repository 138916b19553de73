"""AdamW with decoupled weight decay and a linear learning-rate schedule.

:func:`adamw_step` updates one tensor in cache-sized chunks with two
scratch buffers. Its bytes are those of the whole-array expression it
documents, but it makes no full-size temporary besides the new
parameter value, and it writes no parameter in place: each step gives
``param.data`` a new array. The moments are updated in place.

An optimizer holds memory only while it needs it. A parameter's moment
pair is created, as zeros, just before that parameter's first update,
so setting up an optimizer allocates no moments, and :meth:`AdamW.step`
consumes each gradient: it drops ``grad`` right after the update that
read it, so the next tensors' moments and new values can reuse that
memory. :meth:`AdamW.restore` makes a checkpoint's moment arrays the
moments themselves, so a resumed step updates those arrays.
"""

from __future__ import annotations

import numpy as np

from .dataio import MOMENTS, all_finite, restore_arrays
from .errors import ContractError, NumericError
from .tensor import Tensor


def linear_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Learning rate for 0-based optimizer step ``step``, decaying to zero.

    The first step runs at the full base rate; the rate after
    ``total_steps`` steps is zero.
    """
    if total_steps <= 0:
        raise ContractError("total_steps must be positive")
    return base_lr * max(0.0, (total_steps - step) / total_steps)


class AdamW:
    """Bias-corrected Adam with weight decay applied directly to parameters.

    Each step first shrinks every parameter by ``(1 - lr * weight_decay)``
    and then applies the moment-based update. A zero gradient with zero
    weight decay therefore leaves parameters untouched. A step that would
    make a parameter non-finite raises :class:`NumericError` naming it and
    leaves that parameter as it was.

    ``exp_avg`` and ``exp_avg_sq`` map a parameter's name to its moments
    and hold only the parameters updated so far (or restored);
    :meth:`state_arrays` gives every pair.
    """

    def __init__(self, params: dict, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.exp_avg = {}
        self.exp_avg_sq = {}

    def _moments(self, name):
        """``name``'s moment pair, created as zeros at its first use."""
        if name not in self.exp_avg:
            p = self.params[name]
            self.exp_avg[name] = np.zeros(p.shape, p.dtype)
            self.exp_avg_sq[name] = np.zeros(p.shape, p.dtype)
        return self.exp_avg[name], self.exp_avg_sq[name]

    def step(self, lr=None, first=None):
        """One update of every parameter at ``lr`` (default the base
        rate), under one new step count. A missing gradient counts as
        zeros. Each parameter's ``grad`` is set to None right after its
        update: the step consumes the gradients.

        Without ``first`` the parameters are updated in order. With
        ``first`` (some of the parameter tensors), the call updates those,
        in order, and returns the function that updates the others, in
        order; each parameter's bytes are those of the one-group step. A
        step that raises :class:`NumericError` names the first parameter,
        in order, whose update is non-finite, as the one-group step does:
        where one in ``first`` fails, the others before it are updated
        before the error is raised.
        """
        lr = self.lr if lr is None else lr
        self.step_count += 1
        if first is None:
            self._update(self.params, lr)
            return None
        ids = {id(p) for p in first}
        order = list(self.params)
        early = [name for name in order if id(self.params[name]) in ids]
        late = [name for name in order if id(self.params[name]) not in ids]
        for name in early:
            try:
                self._update((name,), lr)
            except NumericError:
                at = order.index(name)
                self._update([n for n in late if order.index(n) < at], lr)
                raise
        return lambda: self._update(late, lr)

    def _update(self, names, lr):
        for name in names:
            p = self.params[name]
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            adamw_step(p, g, *self._moments(name), self.step_count, lr,
                       self.betas, self.eps, self.weight_decay, name)
            p.grad = g = None   # the last references: the memory is free now

    # -- persistence -----------------------------------------------------

    def state_arrays(self):
        """Moment buffers and step count, for checkpointing; a pair not yet
        created is created as zeros, as the update would."""
        for name in self.params:
            self._moments(name)
        return {
            "step": self.step_count,
            "exp_avg": self.exp_avg,
            "exp_avg_sq": self.exp_avg_sq,
        }

    def restore(self, saved: dict):
        """Take the moments and step count laid out as :meth:`state_arrays`
        saves them.

        Each moment must match the parameters' names and shapes; see
        :func:`~affground.dataio.restore_arrays`. They are checked against
        zero-stride placeholders, so no moment is allocated only to be
        compared. The saved arrays become the moments, cast only where
        their dtype differs from the parameter's, and later steps update
        them in place. Both moments are checked before either is taken,
        so a refused restore leaves the optimizer as it was.
        """
        live = {name: np.broadcast_to(np.zeros((), p.dtype), p.shape)
                for name, p in self.params.items()}
        taken = [restore_arrays(live, saved[moment], moment)
                 for moment in MOMENTS]
        self.exp_avg, self.exp_avg_sq = taken
        self.step_count = saved["step"]


# elements per pass of adamw_step: its two scratch buffers stay in cache
_CHUNK = 1 << 16


def adamw_step(param: Tensor, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               step: int, lr: float, betas=(0.9, 0.999), eps=1e-8,
               weight_decay=0.0, name="parameter"):
    """Single-tensor AdamW update; :meth:`AdamW.step` applies it per tensor.

    ``step`` is the 1-based count after this update. Updates m and v in
    place. The new parameter value is formed in a new array and replaces
    param.data only when it is finite; otherwise :class:`NumericError`
    names ``name``.

    The update runs over chunks of ``_CHUNK`` elements with two scratch
    buffers, and each chunk takes the operations of the whole-array form
    in the same order and dtypes::

        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * (grad * grad)
        update = (m / (1 - b1**step)) / (sqrt(v / (1 - b2**step)) + eps)
        new = param * (1 - lr * weight_decay) - lr * update

    so the bytes are those of that form, without its full-size
    temporaries.
    """
    if grad.shape != param.data.shape:
        raise ContractError(f"grad shape {grad.shape} vs param {param.data.shape}")
    b1, b2 = betas
    bias1, bias2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    decay = 1.0 - lr * weight_decay
    data, g = param.data.reshape(-1), grad.reshape(-1)
    m, v = np.reshape(m, -1, copy=False), np.reshape(v, -1, copy=False)
    new = np.empty_like(data)
    scratch = np.empty((2, min(data.size, _CHUNK)), m.dtype)
    finite = True
    for lo in range(0, data.size, _CHUNK):
        at = slice(lo, lo + _CHUNK)
        gs, ms, vs, out = g[at], m[at], v[at], new[at]
        a, b = scratch[:, :len(gs)]
        ms *= b1
        ms += np.multiply(gs, 1.0 - b1, out=a)
        vs *= b2
        vs += np.multiply(1.0 - b2, np.multiply(gs, gs, out=a), out=a)
        np.sqrt(np.divide(vs, bias2, out=b), out=b)
        b += eps
        np.divide(np.divide(ms, bias1, out=a), b, out=a)
        a *= lr
        np.multiply(data[at], decay, out=out)
        out -= a
        finite = finite and all_finite(out)
    if not finite:
        raise NumericError(f"non-finite AdamW update in {name}")
    param.data = new.reshape(param.data.shape)
