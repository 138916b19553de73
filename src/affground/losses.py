"""Training objective: focal + dice on the map, cross-entropy on the label.

Both terms are single graph nodes with hand-derived backward rules.
:func:`map_loss` takes the decoder's per-point logits: its focal term is
written on the logit, where ``log sigmoid(z) = -softplus(-z)`` needs no
clamp, so a confidently wrong point still gets its gradient, and its dice
term reads ``sigmoid(z)``. :func:`cross_entropy` is the logsumexp of a
label logit row minus the target's logit.

Continuous ground-truth heatmaps are binarized at y > 0 for the overlap
losses; metric code keeps the soft values where they matter. Focal and
dice are mean/ratio formulations so the balancing weights do not depend
on cloud size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor, _accumulate, _node


@dataclass
class LossWeights:
    lambda_txt: float = 1.0
    lambda_aff: float = 2.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    dice_eps: float = 1.0

    def __post_init__(self):
        if self.lambda_txt < 0 or self.lambda_aff < 0:
            raise ConfigError("loss weights must be non-negative")
        if not 0 < self.focal_alpha < 1:
            raise ConfigError("focal alpha must lie in (0, 1)")
        if self.focal_gamma < 0:
            raise ConfigError("focal gamma must be non-negative")
        if self.dice_eps <= 0:
            raise ConfigError("dice epsilon must be positive")


def binarize_targets(y: np.ndarray) -> np.ndarray:
    return (np.asarray(y) > 0).astype(np.float64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))``, evaluated on each side of 0 in the form whose
    ``exp`` cannot overflow. In float32 a logit above about 16.6 gives
    exactly 1.0. A NaN stays NaN."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def map_loss(logits: Tensor, y: np.ndarray, weights: LossWeights) -> Tensor:
    """Mean focal plus dice of ``sigmoid(logits)`` against ``y > 0``, as one
    node on the (N, 1) or (N,) logits.

    With ``s = +1`` and ``alpha_t = alpha`` at a positive point (``-1``
    and ``1 - alpha`` elsewhere), ``u = s z`` and ``q = sigmoid(-u)`` (one
    minus the score of the true class), the focal term is
    ``mean(alpha_t q**gamma softplus(-u))`` and its gradient
    ``-(s alpha_t / N) q**gamma (gamma (1 - q) softplus(-u) + q)``. With
    ``p = sigmoid(z)``, ``A = 2 sum(p y) + eps`` and
    ``B = sum(p) + sum(y) + eps``, the dice term is ``1 - A / B`` and its
    gradient ``-(2 y B - A) / B**2 p (1 - p)``. Nothing is clipped, so
    every finite logit gives a finite loss and gradient; a NaN logit gives
    a NaN loss.
    """
    if logits.ndim not in (1, 2) or logits.size != logits.shape[0]:
        raise ContractError(f"logits must be (N,) or (N, 1), got {logits.shape}")
    z = logits.data.reshape(-1)
    yb = binarize_targets(y).reshape(-1).astype(z.dtype)
    if yb.shape != z.shape:
        raise ContractError(f"{yb.shape[0]} targets for {z.shape[0]} logits")
    alpha, gamma, eps = weights.focal_alpha, weights.focal_gamma, weights.dice_eps
    s = 2.0 * yb - 1.0
    u = s * z
    q = sigmoid(-u)
    # softplus(-u) = -log sigmoid(u), in a form that neither overflows nor
    # loses sigmoid(u) to rounding
    soft = np.maximum(-u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    alpha_t = np.where(yb > 0, alpha, 1.0 - alpha).astype(z.dtype)
    q_gamma = q ** gamma
    p = sigmoid(z)
    overlap = 2.0 * (p * yb).sum() + eps
    total = p.sum() + yb.sum() + eps
    loss = (alpha_t * q_gamma * soft).mean() + (1.0 - overlap / total)

    def backward(g):
        dz = (-s * alpha_t / z.size) * q_gamma * (gamma * (1.0 - q) * soft + q)
        dz -= (2.0 * yb * total - overlap) / (total * total) * (p * (1.0 - p))
        _accumulate(logits, (g * dz).reshape(logits.shape))

    return _node(np.asarray(loss, z.dtype), (logits,), backward, "map_loss")


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Scalar cross-entropy of a (1, K) logit row against an integer label,
    as one node.

    The forward is ``log(sum(exp(z - m))) + m - z[target]`` with ``m`` the
    row's maximum, so ``exp`` never overflows; the backward is
    ``g softmax(z)`` with ``g`` taken off the target. Both run the numpy
    operations of the shift, ``exp``, sum, ``log`` and slice chain they
    replace, in its order, so value and gradient are its bytes.
    """
    if logits.ndim != 2 or logits.shape[0] != 1:
        raise ContractError(f"logits must be (1, K), got {logits.shape}")
    k = logits.shape[1]
    if not 0 <= target < k:
        raise ContractError(f"target {target} out of range for {k} classes")
    z = logits.data
    shift = np.asarray(float(z.max()), z.dtype)
    e = np.exp(z - shift)
    total = e.sum()

    def backward(g):
        dz = (g / total) * e
        dz[0, target] -= g
        _accumulate(logits, dz)

    return _node(np.log(total) + shift - z[0, target], (logits,), backward,
                 "cross_entropy")


def total_loss(l_txt: Tensor, l_aff: Tensor, weights: LossWeights) -> Tensor:
    """Weighted sum of the auxiliary text loss and the affordance loss."""
    if weights.lambda_txt < 0 or weights.lambda_aff < 0:
        raise ConfigError("loss weights must be non-negative")
    return weights.lambda_txt * l_txt + weights.lambda_aff * l_aff
