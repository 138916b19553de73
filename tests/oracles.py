"""Primitives the model no longer calls, kept as oracles for their tests.

``max_reduce`` pooled the former padded groups, ``concat`` built the
repeated-row forms that the exact layer forms replaced, and ``relu``
followed every layer before :func:`affground.tensor.linear` took the
ReLU into the product's buffer. ``sigmoid``, ``clip``, ``exp``, ``log``,
``slice_cols``, ``div`` and ``neg`` made the training objective before
:func:`affground.losses.map_loss` and
:func:`affground.losses.cross_entropy` became one node each; the
score-based ``focal_loss``, ``dice_loss`` and ``affordance_loss`` and
the composed ``cross_entropy_chain`` are that objective. All of them are
the ``affground`` code as it was when the model last called it, except
that ``div`` and ``neg`` are called by name where the Tensor operators
``/`` and unary ``-`` were. ``sub``, ``power`` and ``reshape`` were
left only to gradcheck's check scalars, and are called by name where
``-``, ``**`` and ``Tensor.reshape`` were. :func:`tree_digest` was
``affground.corruption``'s, which only tests called.
"""

import hashlib
from pathlib import Path

import numpy as np

from affground import tensor as T
from affground.errors import ContractError, NumericError, ShapeError
from affground.losses import LossWeights, binarize_targets


def relu(x):
    """``max(x, 0)``, with -0.0 mapped to +0.0; the gradient passes where
    ``x > 0``.

    A NaN input stays NaN in the output and gets a zero gradient.
    """
    def backward(g):
        T._accumulate(x, g * (x.data > 0))

    return T._node(np.maximum(x.data, 0), (x,), backward, "relu")


_relu = relu    # unfused_linear's flag takes the name, as in tensor.linear


def unfused_linear(x, w, addends=(), relu=False, spent=()):
    """:func:`affground.tensor.linear` as the chain it replaced: ``matmul``,
    one ``add`` per addend, then ``relu``, each its own node and buffer
    (so ``spent`` releases nothing)."""
    out = T.matmul(x, w)
    for a in addends:
        out = out + a
    return _relu(out) if relu else out


def max_reduce(x, axis, keepdims=False):
    """Max over one axis; gradient routes to the first occurrence of the max.

    Where the maximum is NaN the output is NaN and the gradient goes to
    index 0 along ``axis``. Where the maxima are zeros of both signs,
    which zero comes out is numpy's choice, not necessarily the first
    one's.
    """
    kept = x.data.max(axis=axis, keepdims=True)

    def backward(g):
        idx = np.expand_dims((x.data == kept).argmax(axis=axis), axis)
        gx = np.zeros_like(x.data)
        expanded = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, idx, expanded, axis=axis)
        T._accumulate(x, gx)

    out = kept if keepdims else np.squeeze(kept, axis=axis)
    return T._node(out, (x,), backward, "max")


def concat(tensors, axis=-1):
    """Join tensors along one axis; each gets its slice of the gradient."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    for t in tensors[1:]:
        T._check_dtypes(tensors[0], t, "concat")
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            T._accumulate(t, piece)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return T._node(data, tensors, backward, "concat")


def padded_rows(starts, n_rows, k):
    """(m, k) row indices: each segment's rows, then copies of its first.

    Segment j is rows ``starts[j]`` up to the next start (``n_rows`` for
    the last); this is the layout of the former padded groups.
    """
    starts = np.asarray(starts)
    counts = np.diff(starts, append=n_rows)
    col = np.arange(k)
    return starts[:, None] + np.where(col < counts[:, None], col, 0)


def div(a, b):
    a, b, out = T._binary(a, b, "div", np.true_divide)

    def backward(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return T._node(out, (a, b), backward, "div")


def neg(x):
    def backward(g):
        T._accumulate(x, -g)

    return T._node(-x.data, (x,), backward, "neg")


def sub(a, b):
    a, b, out = T._binary(a, b, "sub", np.subtract)

    def backward(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g, a.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g, b.shape))

    return T._node(out, (a, b), backward, "sub")


def power(x, exponent):
    """Elementwise x**c for a constant exponent."""
    c = float(exponent)

    def backward(g):
        T._accumulate(x, g * c * np.power(x.data, c - 1.0))

    return T._node(np.power(x.data, c), (x,), backward, "power")


def reshape(x, shape):
    def backward(g):
        T._accumulate(x, g.reshape(x.shape))

    return T._node(x.data.reshape(shape), (x,), backward, "reshape")


def sigmoid(x):
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        T._accumulate(x, g * out * (1.0 - out))

    return T._node(out, (x,), backward, "sigmoid")


def exp(x):
    out = np.exp(x.data)

    def backward(g):
        T._accumulate(x, g * out)

    return T._node(out, (x,), backward, "exp")


def log(x):
    if np.any(x.data <= 0):
        raise NumericError("log requires strictly positive input")

    def backward(g):
        T._accumulate(x, g / x.data)

    return T._node(np.log(x.data), (x,), backward, "log")


def clip(x, lo, hi):
    """Clamp values into [lo, hi]; gradient passes through the interior only."""
    mask = (x.data > lo) & (x.data < hi)

    def backward(g):
        T._accumulate(x, g * mask)

    return T._node(np.clip(x.data, lo, hi), (x,), backward, "clip")


def slice_cols(x, start, stop):
    if x.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {x.shape}")

    def backward(g):
        # the +0.0 outside the block changes no accumulated gradient,
        # which never holds -0.0
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        T._accumulate(x, gx)

    return T._node(x.data[:, start:stop].copy(), (x,), backward, "slice_cols")


SCORE_EPS = 1e-7


def _as_column(p):
    if p.ndim == 1:
        return reshape(p, (-1, 1))
    if p.ndim == 2 and p.shape[1] == 1:
        return p
    raise ContractError(f"scores must be (N,) or (N, 1), got {p.shape}")


def _validate_scores(p):
    if p.data.min() < 0.0 or p.data.max() > 1.0:
        raise ContractError("predicted scores must lie in [0, 1]")


def focal_loss(p, y, alpha=0.25, gamma=2.0):
    """Mean focal term on scores; y is binarized at y > 0."""
    p = _as_column(p)
    yb = binarize_targets(y).reshape(-1, 1)
    if yb.shape[0] != p.shape[0]:
        raise ContractError(f"{yb.shape[0]} targets for {p.shape[0]} scores")
    _validate_scores(p)
    p = clip(p, SCORE_EPS, 1.0 - SCORE_EPS)
    y_t = T.Tensor(yb.astype(p.dtype))
    p_t = p * y_t + sub(1.0, p) * sub(1.0, y_t)
    alpha_t = T.Tensor((alpha * yb + (1.0 - alpha) * (1.0 - yb)).astype(p.dtype))
    return neg(alpha_t * power(sub(1.0, p_t), gamma) * log(p_t)).mean()


def dice_loss(p, y, eps=1.0):
    """1 - smoothed overlap ratio between scores and binarized targets."""
    p = _as_column(p)
    yb = binarize_targets(y).reshape(-1, 1)
    if yb.shape[0] != p.shape[0]:
        raise ContractError(f"{yb.shape[0]} targets for {p.shape[0]} scores")
    _validate_scores(p)
    y_t = T.Tensor(yb.astype(p.dtype))
    overlap = 2.0 * T.tsum(p * y_t) + eps
    total = T.tsum(p) + float(yb.sum()) + eps
    return sub(1.0, div(overlap, total))


def affordance_loss(p, y, weights=None):
    w = weights or LossWeights()
    return focal_loss(p, y, w.focal_alpha, w.focal_gamma) + \
        dice_loss(p, y, w.dice_eps)


def cross_entropy_chain(logits, target):
    """Scalar cross-entropy of a (1, K) logit row, as the chain of nodes
    that :func:`affground.losses.cross_entropy` replaced."""
    # shift by the (constant) max so exp never overflows; the gradient of
    # logsumexp is unchanged by the shift
    shift = float(logits.data.max())
    lse = log(T.tsum(exp(sub(logits, shift)))) + shift
    return sub(lse, T.tsum(slice_cols(logits, target, target + 1)))


def tree_digest(root) -> str:
    """SHA-256 over all file names and bytes under a directory."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()
