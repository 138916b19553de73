"""Primitives the model no longer calls, kept as oracles for their tests.

``max_reduce`` pooled the former padded groups, and ``concat`` built the
repeated-row forms that the exact layer forms replaced. Both are the
``affground.tensor`` code as it was when the model last called it.
"""

import numpy as np

from affground import tensor as T
from affground.errors import ContractError


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
