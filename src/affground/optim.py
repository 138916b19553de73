"""AdamW with decoupled weight decay and a linear learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .dataio import MOMENTS, restore_arrays
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
    """

    def __init__(self, params: dict, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.exp_avg = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.exp_avg_sq = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.step_count += 1
        for name, p in self.params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            adamw_step(p, g, self.exp_avg[name], self.exp_avg_sq[name],
                       self.step_count, lr, self.betas, self.eps,
                       self.weight_decay, name)

    # -- persistence -----------------------------------------------------

    def state_arrays(self):
        """Moment buffers and step count, for checkpointing."""
        return {
            "step": self.step_count,
            "exp_avg": self.exp_avg,
            "exp_avg_sq": self.exp_avg_sq,
        }

    def restore(self, saved: dict):
        """Load moments and step count laid out as :meth:`state_arrays` saves them.

        Each moment must match the live names and shapes; see
        :func:`~affground.dataio.restore_arrays`.
        """
        state = self.state_arrays()
        for moment in MOMENTS:
            restore_arrays(state[moment], saved[moment], moment)
        self.step_count = saved["step"]


def adamw_step(param: Tensor, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               step: int, lr: float, betas=(0.9, 0.999), eps=1e-8,
               weight_decay=0.0, name="parameter"):
    """Single-tensor AdamW update; :meth:`AdamW.step` applies it per tensor.

    ``step`` is the 1-based count after this update. Updates m and v in
    place. The new parameter value is formed in a temporary and replaces
    param.data only when it is finite; otherwise :class:`NumericError`
    names ``name``.
    """
    if grad.shape != param.data.shape:
        raise ContractError(f"grad shape {grad.shape} vs param {param.data.shape}")
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * (grad * grad)
    update = (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
    new = param.data * (1.0 - lr * weight_decay)
    new -= (lr * update).astype(param.data.dtype, copy=False)
    if not np.isfinite(new).all():
        raise NumericError(f"non-finite AdamW update in {name}")
    param.data = new
