"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy buffer (float32 or float64) and, when gradients are
enabled, remember the operation that produced them. Calling
:func:`backward` on a scalar loss traces the graph into a :class:`Tape`
(a topologically ordered list of recorded operations) and walks it once
in reverse, accumulating gradients into every tensor that was created
with ``requires_grad=True``.

Accumulation contract: a tensor's gradient is the sum of its consumers'
contributions, added in tape order onto ``+0.0``. Where one row feeds
several outputs (:func:`gather_rows`, :func:`interpolate`), that row's
gradient sums the output rows in increasing position, exactly as
``np.add.at`` into zeros would, so every gradient is byte-reproducible,
negative zeros included. A gradient is only computed for an operand that
requires one. A first contribution is kept in the buffer its rule handed
over (a writable array of the tensor's shape and dtype that no other
tensor receives) rather than copied; read-only and broadcast buffers are
copied.

A graph is confined to the thread that built it; independent graphs may
live on different threads. Nothing here is shared between graphs except
the per-thread autograd on/off flag.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (cheap eval forward passes)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """A dense array plus optional gradient buffer and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None):
        # default dtype is float32; float64 numpy arrays keep their precision
        keep64 = isinstance(data, np.ndarray) and data.dtype == np.float64
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in _FLOAT_DTYPES or (arr.dtype == np.float64 and not keep64):
            arr = arr.astype(np.float32)
        if arr.dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"dtype must be float32 or float64, got {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self._op})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Create a leaf tensor."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def _check_dtypes(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _node(data, parents, backward, op) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = record
    out._parents = tuple(parents) if record else ()
    out._backward = backward if record else None
    out._op = op
    return out


def _accumulate(t: Tensor, grad: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += grad
    elif (grad.flags.writeable and grad.shape == t.data.shape
          and grad.dtype == t.data.dtype):
        # take the rule's buffer; 0 + grad in place turns -0.0 into +0.0
        t.grad = np.add(grad, 0, out=grad)
    else:
        # read-only or broadcast: a fresh 0 + grad
        t.grad = np.add(grad, 0, out=np.empty_like(t.data))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- primitives ---------------------------------------------------------


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _check_dtypes(a, b, "add")

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            # a may own g by now: b gets a buffer of its own
            _accumulate(b, gb.copy() if gb is ga else gb)

    return _node(a.data + b.data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _check_dtypes(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _check_dtypes(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _check_dtypes(a, b, "div")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(a.data / b.data, (a, b), backward, "div")


def neg(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, -g)

    return _node(-x.data, (x,), backward, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    _check_dtypes(a, b, "matmul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward, "matmul")


def power(x: Tensor, exponent) -> Tensor:
    """Elementwise x**c for a constant exponent."""
    c = float(exponent)

    def backward(g):
        _accumulate(x, g * c * np.power(x.data, c - 1.0))

    return _node(np.power(x.data, c), (x,), backward, "power")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        _accumulate(x, g * mask)

    return _node(np.where(mask, x.data, 0), (x,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), backward, "sigmoid")


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward(g):
        _accumulate(x, g * out)

    return _node(out, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise NumericError("log requires strictly positive input")

    def backward(g):
        _accumulate(x, g / x.data)

    return _node(np.log(x.data), (x,), backward, "log")


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through the interior only."""
    mask = (x.data > lo) & (x.data < hi)

    def backward(g):
        _accumulate(x, g * mask)

    return _node(np.clip(x.data, lo, hi), (x,), backward, "clip")


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last dimension."""
    if x.shape[-1] < 1:
        raise ContractError("softmax needs a non-empty last dimension")
    if np.isnan(x.data).any():
        raise NumericError("softmax received NaN input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(x, out * (g - inner))

    return _node(out, (x,), backward, "softmax")


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())
        else:
            expanded = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(expanded, x.shape).copy())

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward, "sum")


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]

    def backward(g):
        scaled = g / n
        if axis is None:
            _accumulate(x, np.broadcast_to(scaled, x.shape).copy())
        else:
            expanded = scaled if keepdims else np.expand_dims(scaled, axis)
            _accumulate(x, np.broadcast_to(expanded, x.shape).copy())

    return _node(x.data.mean(axis=axis, keepdims=keepdims), (x,), backward, "mean")


def max_reduce(x: Tensor, axis: int, keepdims=False) -> Tensor:
    """Max over one axis; gradient routes to the first occurrence of the max."""
    idx = np.argmax(x.data, axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        expanded = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), expanded, axis=axis)
        _accumulate(x, gx)

    return _node(out, (x,), backward, "max")


def reshape(x: Tensor, shape) -> Tensor:
    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), backward, "reshape")


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

    def backward(g):
        _accumulate(x, g.T)

    return _node(x.data.T.copy(), (x,), backward, "transpose")


def concat(tensors, axis=-1) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    for t in tensors[1:]:
        _check_dtypes(tensors[0], t, "concat")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _node(data, tensors, backward, "concat")


def _scatter_rows(g: np.ndarray, idx: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Rows of ``g`` summed per target row ``idx[i]``, shaped like ``like``.

    Byte-equal to ``np.add.at(np.zeros_like(like), idx, g)``: each target
    sums its rows in increasing position starting from +0.0, and a target
    that no row names stays +0.0. Targets are ranked busiest first, so the
    j-th pass adds the j-th row of every target that has one to a
    shrinking prefix; the work is one pass over ``g`` plus one Python step
    per unit of the largest in-degree.
    """
    out = np.zeros_like(like)
    if idx.size == 0:
        return out
    idx = np.where(idx < 0, idx + len(like), idx)
    counts = np.bincount(idx, minlength=len(like))
    by_rank = np.argsort(-counts, kind="stable")
    sizes = counts[by_rank]
    n_active = int(np.count_nonzero(sizes))
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    order = np.argsort(rank[idx], kind="stable")
    starts = np.cumsum(sizes[:n_active]) - sizes[:n_active]
    # active[j]: how many targets have more than j rows
    active = n_active - np.cumsum(np.bincount(sizes[:n_active]))[:sizes[0]]
    acc = np.zeros((n_active,) + like.shape[1:], dtype=like.dtype)
    for j, a in enumerate(active.tolist()):
        acc[:a] += g[order[starts[:a] + j]]
    out[by_rank[:n_active]] = acc
    return out


def gather_rows(x: Tensor, index) -> Tensor:
    """Select rows by a 1-D integer index array (duplicates allowed)."""
    idx = np.asarray(index)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows index must be 1-D, got shape {idx.shape}")

    def backward(g):
        _accumulate(x, _scatter_rows(g, idx, x.data))

    return _node(x.data[idx], (x,), backward, "gather_rows")


def interpolate(x: Tensor, index, weights) -> Tensor:
    """Weighted sum of source rows: ``out[i] = sum_c weights[i, c] * x[index[i, c]]``.

    ``index`` and ``weights`` are constant (n, k) arrays; ``weights`` is cast
    to ``x``'s dtype and gets no gradient. The forward adds the k terms in
    order onto +0.0, and the backward scatters ``g[i] * weights[i, c]``
    onto ``index[i, c]`` in (i, c) order, so both equal the gather,
    multiply, reshape and sum chain they replace byte for byte, with one
    graph node instead of four.
    """
    idx = np.asarray(index)
    if x.ndim != 2 or idx.ndim != 2:
        raise ShapeError(
            f"interpolate needs 2-D source and index, got {x.shape} and {idx.shape}")
    w = np.asarray(weights).astype(x.dtype)
    if w.shape != idx.shape:
        raise ShapeError(
            f"interpolate weights {w.shape} do not match index {idx.shape}")
    n, k = idx.shape
    out = np.zeros((n, x.shape[1]), dtype=x.dtype)
    for c in range(k):
        out += x.data[idx[:, c]] * w[:, c:c + 1]

    def backward(g):
        per_row = (g[:, None, :] * w[:, :, None]).reshape(n * k, g.shape[1])
        _accumulate(x, _scatter_rows(per_row, idx.reshape(-1), x.data))

    return _node(out, (x,), backward, "interpolate")


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a 2-D tensor, as a view of its buffer."""
    if x.ndim != 2:
        raise ShapeError(f"slice_rows expects a 2-D tensor, got {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        _accumulate(x, gx)

    return _node(x.data[start:stop], (x,), backward, "slice_rows")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        _accumulate(x, gx)

    return _node(x.data[:, start:stop].copy(), (x,), backward, "slice_cols")


# -- backward pass ------------------------------------------------------


class Tape:
    """Topologically ordered record of the operations reaching a root.

    Every entry's inputs appear earlier in ``nodes`` than the entry
    itself, so a single reverse sweep applies each backward rule exactly
    once with the output gradient fully accumulated.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        nodes = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(nodes)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into t.grad for every requires_grad tensor.

    Repeated calls without clearing gradients keep accumulating.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    tape = Tape.trace(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    # only leaves keep their gradients across calls; interior grads are
    # per-walk scratch (a second backward contributes exactly one more pass)
    for node in tape.nodes:
        if node._backward is not None:
            node.grad = None


def zero_grad(params):
    """Clear gradients on an iterable or dict of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for t in values:
        t.grad = None
