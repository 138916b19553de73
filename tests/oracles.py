"""Primitives the model no longer calls, kept as oracles for their tests.

``max_reduce`` pooled the former padded groups, ``concat`` built the
repeated-row forms that the exact layer forms replaced, and ``relu``
followed every layer before :func:`affground.tensor.linear` took the
ReLU into the product's buffer. All three are the ``affground.tensor``
code as it was when the model last called it.
"""

import numpy as np

from affground import tensor as T
from affground.errors import ContractError


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
