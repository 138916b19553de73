"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy buffer (float32 or float64) and, when gradients are
enabled, remember the operation that produced them. Calling
:func:`backward` on a scalar loss traces the graph into a :class:`Tape`
(a topologically ordered list of recorded operations) and walks it once
in reverse, accumulating gradients into every tensor that was created
with ``requires_grad=True``.

Accumulation contract: a tensor's gradient is the sum of its consumers'
contributions, added in tape order onto ``+0.0`` (rank-one weight
gradients, below, are added last). Where one row feeds several outputs
(:func:`gather_rows`, :func:`interpolate`), that row's gradient sums the
output rows in increasing position, exactly as ``np.add.at`` into zeros
would, so every gradient is byte-reproducible, negative zeros included.
A gradient is only computed for an operand that requires one. A first
contribution is kept in the buffer its rule handed over (a writable
array of the tensor's shape and dtype that no other tensor receives)
rather than copied; read-only and broadcast buffers are copied.
Interior gradients are scratch for one walk: :func:`backward` drops each
one as soon as its rule has run, so a walk holds only the gradients
still waiting for their rule, and only leaves keep theirs.

Rank-one weight gradients: where a (1, K) row ``a`` multiplies a leaf
``w`` that requires a gradient, the walk adds no (K, N) outer product.
It records copies of ``a`` and of the (1, N) output gradient ``g`` on
``w`` instead, and the first read of ``w.grad`` adds the sum over the B
records since the last read as one (K, B) @ (B, N) product, after every
other contribution. Setting ``grad`` (as :func:`zero_grad` does) drops
the records; a walk never reads a leaf's ``grad``. One record keeps the
broadcast ``a.T * g``, the bytes of a K=1 product. More records give the
same bytes on any number of BLAS threads, but not those of adding the
outer products in record order: each element is within
``B * eps * sum_i |a_i g_i|`` of the exact sum (``eps`` the dtype's
machine epsilon). An interior operand still gets its outer product at
once.

Product buffers: no backward rule reads a :func:`matmul` node's output
(``matmul``'s own reads only its operands), and only :func:`linear`
writes into one: the product it made itself, which nothing else
consumes. So a layer's bias, its other addends and its ReLU go into that
buffer in place, and a layer keeps one output buffer alive until
backward; only a ReLU'd layer's rule reads it. A product or ReLU-free
layer that only :func:`gather_rows`, :func:`interpolate` or
:func:`segment_max` reads is not kept either, where the caller asks them
to ``release`` it: the pool's rule keeps each column's first-max row,
not its input.

Threading. A graph is built on one thread and walked on one thread, which
may be another, and two threads never touch one graph at once; the
autograd on/off flag is per thread. One rule moves work between threads:
on a thread inside :func:`handing_off`, every write to a requires-grad
leaf outside ``keep`` (an addition to its gradient, or a rank-one record)
is a job, passed to the block's ``submit`` in the order of the writes;
every other write runs at once. :func:`_write` is the one place that
applies it. Any op may feed a handed-off leaf. A walk inside the block
computes every interior gradient itself; where a leaf is a :func:`matmul`
operand or a :func:`linear` addend, its product (``_sum_over_rows(a, g)``
for a weight) or its share (a bias's row sum) is made in the job too. So
in each walk every leaf's gradient and records are written by one thread
only, in the walk's order: when the jobs run one at a time in submission
order, every gradient is bitwise the plain walk's. A job reads only
buffers that nothing writes again, and the walk returns before its jobs
are done; the caller waits for them before it reads a handed-off
gradient, which forms its records. ``keep`` may change between walks (a
nested :func:`handing_off` sets it for the walks inside): a leaf kept in
one walk and handed off in another still sums in walk order where the
caller waits for the jobs of a walk that handed it off before a later
walk keeps it. Graphs built and walked at the same time share only
leaves: building reads their data, and walks and jobs write their
gradients and records.
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
def handing_off(submit, keep=()):
    """Inside the block, pass each write on this thread to a requires-grad
    leaf that is not in ``keep`` to ``submit`` as a job (see
    :func:`_write` and the module docstring).

    ``submit(job)`` takes a callable of no arguments; the jobs must run
    one at a time, in the order they were submitted.
    """
    prev = getattr(_state, "hand_off", None)
    _state.hand_off = (submit, frozenset(map(id, keep)))
    try:
        yield
    finally:
        _state.hand_off = prev


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

    __slots__ = ("data", "requires_grad", "_grad", "_rows", "_parents",
                 "_backward", "_op")

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
        self._grad = None
        self._rows = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    # -- gradient --------------------------------------------------------

    @property
    def grad(self):
        """The accumulated gradient, or None. The first read after a walk
        recorded rank-one rows for this tensor forms their product and adds
        it in (see the module docstring)."""
        if self._rows is not None:
            _form_rows(self)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value
        self._rows = None

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


def _binary(a, b, op: str, ufunc):
    """``(a, b, ufunc(a.data, b.data))`` with both operands as tensors of
    one dtype (either may be a constant); ShapeError where the dtypes
    differ or the shapes do not broadcast."""
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _check_dtypes(a, b, op)
    try:
        return a, b, ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _node(data, parents, backward, op) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out._grad = None
    out._rows = None
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = record
    out._parents = tuple(parents) if record else ()
    out._backward = backward if record else None
    out._op = op
    return out


def _accumulate(t: Tensor, grad: np.ndarray):
    """Add ``grad`` to ``t``'s gradient where ``t`` requires one: at once
    on an interior node, and through :func:`_write` on a leaf."""
    if not t.requires_grad:
        return
    if t._backward is None:
        _write(t, lambda: _add(t, grad))
    else:
        _add(t, grad)


def _add(t: Tensor, grad: np.ndarray):
    """Add ``grad`` to ``t``'s gradient, keeping it as the first
    contribution where it can (see the module docstring)."""
    if t._grad is not None:
        t._grad += grad
    elif (grad.flags.writeable and grad.shape == t.data.shape
          and grad.dtype == t.data.dtype):
        # take the rule's buffer; 0 + grad in place turns -0.0 into +0.0
        t._grad = np.add(grad, 0, out=grad)
    else:
        # read-only or broadcast: a fresh 0 + grad
        t._grad = np.add(grad, 0, out=np.empty_like(t.data))


def _record(t: Tensor, row: np.ndarray, g: np.ndarray):
    """Keep the (1, K) ``row`` and the (1, N) gradient ``g`` of ``row @ t``
    for ``t``'s next gradient read; both must be buffers of their own."""
    if t._rows is None:
        t._rows = []
    t._rows.append((row, g))


def _form_rows(t: Tensor):
    """Add the product of ``t``'s recorded rows to its gradient: one
    record's broadcast outer product, or one (K, B) @ (B, N) product."""
    rows, t._rows = t._rows, None
    if len(rows) == 1:
        ((row, g),) = rows
        share = row.T * g
    else:
        share = np.concatenate([row for row, _ in rows]).T @ np.concatenate(
            [g for _, g in rows])
    if t._grad is None:
        t._grad = np.add(share, 0, out=share)
    else:
        t._grad += share


def _write(t: Tensor, job):
    """Run ``job``, which writes the gradient or records of ``t`` (a
    tensor that requires a gradient): at once, unless ``t`` is a leaf
    outside ``keep`` while this thread is inside :func:`handing_off`,
    whose ``submit`` then takes it. A submitted job runs later, so it must
    read only buffers that nothing writes again; it writes with
    :func:`_add` or :func:`_record`, not through this function."""
    hand_off = getattr(_state, "hand_off", None)
    if hand_off is None or t._backward is not None or id(t) in hand_off[1]:
        job()
    else:
        hand_off[0](job)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _own_share(g: np.ndarray, shape) -> np.ndarray:
    """``g`` summed down to ``shape``, in a buffer that is not ``g``."""
    share = _unbroadcast(g, shape)
    return share.copy() if share is g else share


# -- primitives ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b, out = _binary(a, b, "add", np.add)

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            # a may own g by now: b gets a buffer of its own
            _accumulate(b, gb.copy() if gb is ga else gb)

    return _node(out, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b, out = _binary(a, b, "sub", np.subtract)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(out, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b, out = _binary(a, b, "mul", np.multiply)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out, (a, b), backward, "mul")


def _sum_over_rows(a: np.ndarray, g: np.ndarray, block: int = 256) -> np.ndarray:
    """``a.T @ g``, summed in order over blocks of at most ``block`` rows.

    OpenBLAS splits a longer sum at edges that depend on its thread count,
    so only blocks this short give the same bytes on any number of threads.
    """
    out = a[:block].T @ g[:block]
    for i in range(block, a.shape[0], block):
        out += a[i:i + block].T @ g[i:i + block]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    _check_dtypes(a, b, "matmul")

    def backward(g):
        if a.requires_grad:
            _write(a, lambda: _add(a, _left_share(g, b.data)))
        if b.requires_grad:
            if a.shape[0] == 1 and b._backward is None:
                row, g_row = a.data.copy(), g.copy()
                _write(b, lambda: _record(b, row, g_row))
            else:
                _write(b, lambda: _add(b, _right_share(a.data, g)))

    return _node(a.data @ b.data, (a, b), backward, "matmul")


# A product over one inner index is an outer product: each share
# broadcasts it rather than run a K=1 GEMM (the same bytes once
# _add has turned -0.0 into +0.0).

def _left_share(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d(loss)/da of ``a @ b``, given ``g`` = d(loss)/d(a @ b)."""
    return g * b.T if g.shape[1] == 1 else g @ b.T


def _right_share(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(loss)/db of ``a @ b``, given ``g`` = d(loss)/d(a @ b)."""
    return a.T * g if a.shape[0] == 1 else _sum_over_rows(a, g)


def linear(x: Tensor, w: Tensor, addends=(), relu: bool = False,
           spent=()) -> Tensor:
    """``x @ w`` plus each addend, left to right, then ``max(., 0)`` with
    ``relu``, all in the product's own buffer.

    The product is an ordinary :func:`matmul` node, and this node writes
    into its output: the bytes are those of ``matmul``, one :func:`add`
    per addend and a ReLU (-0.0 becomes +0.0, NaN stays NaN), but the
    graph keeps one buffer instead of one per step. The backward masks
    the gradient by ``out > 0`` in place, hands it to the product, and
    gives each addend its broadcast-reduced share. Each addend must have
    the product's dtype and broadcast to its shape. With no addend and no
    ReLU this is the product alone.

    ``spent`` names addends of the product's shape whose values the
    caller will not read again and no backward rule reads (the outputs
    of :func:`gather_rows` and :func:`interpolate`, passed nowhere
    else): once added, each one's data becomes a read-only view of this
    node's output, so the graph no longer keeps its buffer. Its
    gradient is unchanged.

    Only the ReLU's mask reads the output in the backward, and the node's
    op names it (``linear_relu``); without one, :func:`gather_rows`,
    :func:`interpolate` and :func:`segment_max` can ``release`` it.
    """
    product = matmul(x, w)
    if not addends and not relu:
        return product
    out = product.data
    for a in addends:
        _check_dtypes(product, a, "linear")
        try:
            fits = np.broadcast_shapes(a.shape, out.shape) == out.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(
                f"linear: addend {a.shape} does not broadcast to {out.shape}")
        out += a.data
    if relu:
        np.maximum(out, 0, out=out)
    for a in spent:
        if not any(a is b for b in addends) or a.shape != out.shape:
            raise ContractError(
                f"linear: a spent tensor must be an addend of shape {out.shape}")
        a.data = np.broadcast_to(out, out.shape)
    # the rule holds the output only to mask by it
    masked = out if relu else None

    def backward(g):
        if masked is not None:
            np.multiply(g, masked > 0, out=g)
        _accumulate(product, g)
        for a in addends:
            if a.requires_grad:
                # the product owns g by now: a gets a buffer of its own
                _write(a, lambda a=a: _add(a, _own_share(g, a.shape)))

    return _node(out, (product, *addends), backward,
                 "linear_relu" if relu else "linear")


def power(x: Tensor, exponent) -> Tensor:
    """Elementwise x**c for a constant exponent."""
    c = float(exponent)

    def backward(g):
        _accumulate(x, g * c * np.power(x.data, c - 1.0))

    return _node(np.power(x.data, c), (x,), backward, "power")


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


def _first_rows(data, first, longer, acc) -> np.ndarray:
    """Per ranked segment and column, the first row of ``data`` equal to
    the maximum ``acc``, or the segment's first row where none is (a NaN
    maximum), as one int32 array; ``first`` and ``longer`` rank the
    segments as :func:`segment_max` does."""
    rows = np.repeat(first[:, None].astype(np.int32), data.shape[1], axis=1)
    # rows in reverse, so each column keeps its earliest match
    for j, a in reversed(list(enumerate(longer))):
        at = first[:a] + j
        np.copyto(rows[:a], at[:, None], where=data[at] == acc[:a])
    return rows


def segment_max(x: Tensor, starts, release: bool = False) -> Tensor:
    """Per-column maximum over each run of rows ``starts[j]:starts[j + 1]``.

    ``starts`` holds each segment's first row, increasing from 0; the last
    segment runs to the end. Each column's gradient goes to the first row
    of its segment that equals the maximum, or to the segment's first row
    where the maximum is NaN. A zero maximum keeps its first zero's sign.
    Segments are ranked longest first, so the j-th rows of those longer
    than j are a prefix: one Python step per row of the longest segment.

    Where the node is recorded, the forward finds those first rows, one
    (segments, columns) int32 array, and the backward scatters ``g``
    through them without reading ``x``. With ``release``, ``x`` must be a
    :func:`matmul` output or a :func:`linear` output without ReLU whose
    values the caller will not read again: once pooled, its buffer (a
    layer's, which its product shares) is dropped, as in
    :func:`gather_rows`. Its gradient is unchanged.
    """
    if x.ndim != 2:
        raise ShapeError(f"segment_max expects a 2-D tensor, got {x.shape}")
    data = x.data
    starts = np.asarray(starts)
    lengths = np.diff(starts, append=data.shape[0])
    if starts.ndim != 1 or not starts.size or starts[0] != 0 or lengths.min() < 1:
        raise ContractError("segment_max needs non-empty segments starting at row 0")
    order = np.argsort(-lengths, kind="stable")
    first = starts[order]
    # longer[j]: how many segments have more than j rows
    longer = (len(order) - np.cumsum(np.bincount(lengths))[:lengths.max()]).tolist()
    acc = data[first]
    for j, a in enumerate(longer[1:], 1):
        np.maximum(acc[:a], data[first[:a] + j], out=acc[:a])
    any_zero = not acc.all()
    rows = None
    if any_zero or (_grad_enabled() and x.requires_grad):
        rows = _first_rows(data, first, longer, acc)
    if any_zero:
        # np.maximum returns either zero of a tie: take the first one's sign
        zero = acc == 0
        acc[zero] = np.take_along_axis(data, rows, axis=0)[zero]
    out = acc[np.argsort(order)]
    if release:
        _release(x, "segment_max")
    shape, dtype = data.shape, data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, rows, g[order], axis=0)
        _accumulate(x, gx)

    return _node(out, (x,), backward, "segment_max")


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


def _scatter_rows(g: np.ndarray, idx: np.ndarray, shape, dtype,
                  weights=None) -> np.ndarray:
    """Rows of ``g`` summed per target row ``idx[i]``, in a new array of
    ``shape`` and ``dtype``.

    Byte-equal to ``np.add.at(np.zeros(shape, dtype), idx, g)``: each target
    sums its rows in increasing position starting from +0.0, and a target
    that no row names stays +0.0. Targets are ranked busiest first, so the
    j-th pass adds the j-th row of every target that has one to a
    shrinking prefix; the work is one pass over ``g`` plus one Python step
    per unit of the largest in-degree.

    With (n, k) ``idx`` and ``weights``, the rows are the (n * k) products
    ``g[i] * weights[i, c]`` in (i, c) order, each pass forming only the
    products it adds.
    """
    out = np.zeros(shape, dtype)
    if idx.size == 0:
        return out
    k = 1 if weights is None else idx.shape[1]
    idx = idx.reshape(-1)
    idx = np.where(idx < 0, idx + shape[0], idx)
    counts = np.bincount(idx, minlength=shape[0])
    by_rank = np.argsort(-counts, kind="stable")
    sizes = counts[by_rank]
    n_active = int(np.count_nonzero(sizes))
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    order = np.argsort(rank[idx], kind="stable")
    starts = np.cumsum(sizes[:n_active]) - sizes[:n_active]
    # active[j]: how many targets have more than j rows
    active = n_active - np.cumsum(np.bincount(sizes[:n_active]))[:sizes[0]]
    acc = np.zeros((n_active,) + tuple(shape[1:]), dtype)
    for j, a in enumerate(active.tolist()):
        at = order[starts[:a] + j]
        if weights is None:
            acc[:a] += g[at]
        else:
            rows = g[at // k]
            rows *= weights.reshape(-1, 1)[at]
            acc[:a] += rows
    out[by_rank[:n_active]] = acc
    return out


def _release(x: Tensor, op: str):
    """Make ``x.data``, a :func:`matmul` output or a :func:`linear` output
    without ReLU that has just been read for the last time, a read-only
    zero-stride view of one zero: the graph then keeps its shape and dtype
    but not its buffer, which no backward rule reads. A layer's product,
    which shares its buffer, gets the same view."""
    if x._op not in ("matmul", "linear"):
        raise ContractError(f"{op}: only a matmul output or a linear output "
                            "without ReLU can be released")
    x.data = np.broadcast_to(np.zeros((), x.dtype), x.shape)
    if x._op == "linear" and x._parents:
        x._parents[0].data = x.data


def gather_rows(x: Tensor, index, release: bool = False) -> Tensor:
    """Select rows by a 1-D integer index array (duplicates allowed).

    With ``release``, ``x`` must be a :func:`matmul` output or a
    :func:`linear` output without ReLU whose values the caller will not
    read again: once gathered, its buffer is dropped (see
    :func:`_release`). Its gradient is unchanged.
    """
    idx = np.asarray(index)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows index must be 1-D, got shape {idx.shape}")
    out = x.data[idx]
    if release:
        _release(x, "gather_rows")
    shape, dtype = x.shape, x.dtype

    def backward(g):
        _accumulate(x, _scatter_rows(g, idx, shape, dtype))

    return _node(out, (x,), backward, "gather_rows")


def interpolate(x: Tensor, index, weights, release: bool = False) -> Tensor:
    """Weighted sum of source rows: ``out[i] = sum_c weights[i, c] * x[index[i, c]]``.

    ``index`` and ``weights`` are constant (n, k) arrays; ``weights`` is cast
    to ``x``'s dtype and gets no gradient. The forward adds the k terms in
    order onto +0.0, and the backward scatters ``g[i] * weights[i, c]``
    onto ``index[i, c]`` in (i, c) order (forming no (n * k) product
    array), so both equal the gather,
    multiply, reshape and sum chain they replace byte for byte, with one
    graph node instead of four. ``release`` drops ``x``'s buffer once read,
    as in :func:`gather_rows`.
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
    if release:
        _release(x, "interpolate")
    shape = x.shape

    def backward(g):
        _accumulate(x, _scatter_rows(g, idx, shape, w.dtype, w))

    return _node(out, (x,), backward, "interpolate")


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
    """Accumulate d(loss)/d(t) into t.grad for every requires_grad leaf.

    Repeated calls without clearing gradients keep accumulating. Each
    interior gradient is dropped once its rule has run (a second call
    contributes exactly one more pass). Inside :func:`handing_off` its
    writes to handed-off leaves are jobs (see the module docstring), and
    it returns before they have run.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    tape = Tape.trace(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        grad = node._grad
        if node._backward is not None and grad is not None:
            node._grad = None
            node._backward(grad)


def zero_grad(params):
    """Clear gradients on an iterable or dict of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for t in values:
        t.grad = None
