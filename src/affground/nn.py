"""Linear layers, MLP stacks, one-head attention, and parameter registration.

Modules register their tensors into a shared flat ``dict[str, Tensor]``
under dotted names so the trainer, optimizer, and checkpoint code all see
one namespace. Every layer is one :func:`~affground.tensor.linear` node
on its product: the bias, and in an :class:`MLP` the ReLU after every
layer but the last, are written into the product's buffer. A layer over
a concatenated input holds one weight per input part (see
:func:`make_linear`).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, linear, matmul, softmax_lastdim, transpose


# variance-preserving for linear chains; there is no normalization layer
# anywhere in this architecture, so anything hotter saturates the sigmoids
INIT_GAIN = np.sqrt(3.0)


def uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int,
                 dtype, rows=None) -> np.ndarray:
    """A (rows, fan_out) draw, ``rows`` defaulting to ``fan_in``, bounded
    for a weight of ``fan_in`` inputs.

    ``np.asarray`` casts a real draw as ``astype`` would, and takes a
    draw already in ``dtype`` (a placeholder's) without a copy.
    """
    bound = INIT_GAIN / np.sqrt(max(1, fan_in))
    size = (fan_in if rows is None else rows, fan_out)
    return np.asarray(rng.uniform(-bound, bound, size=size), dtype=dtype)


class Linear:
    """y = x @ w (+ b), with x shaped (rows, fan_in), and ``relu(y)`` with
    ``relu``: one :func:`~affground.tensor.linear` node on the product.

    A layer over a concatenated input ``[x_1, ..., x_k]`` holds ``w`` as a
    tuple of one weight per input part, in input order, and is not
    called: its caller computes ``x_1 @ w[0] + ... + x_k @ w[k - 1] + b``,
    which equals the concatenated product in exact algebra, and can run
    each product on only the rows that part needs.
    """

    def __init__(self, w, b: Tensor | None = None):
        self.w = w
        self.b = b

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return linear(x, self.w, () if self.b is None else (self.b,), relu)


def make_linear(params: dict, name: str, rng, fan_in: int, fan_out: int,
                dtype=np.float32, bias: bool = True, parts=None) -> Linear:
    """A layer with weight ``{name}.w`` and bias ``{name}.b``.

    ``parts`` maps the parts of a concatenated input, in input order, to
    their widths, which sum to ``fan_in``. The weight is then one tensor
    per part, ``{name}.{part}``, drawn in input order from the one
    stream: a generator's consecutive draws continue it, so the initial
    values are those of the whole (fan_in, fan_out) weight.
    """
    if parts is None:
        w = Tensor(uniform_init(rng, fan_in, fan_out, dtype), requires_grad=True)
        params[f"{name}.w"] = w
    else:
        w = tuple(Tensor(uniform_init(rng, fan_in, fan_out, dtype, rows),
                         requires_grad=True) for rows in parts.values())
        params.update((f"{name}.{part}", t) for part, t in zip(parts, w))
    b = None
    if bias:
        # small nonzero biases: exact zeros would park ReLU pre-activations
        # on the kink for all-zero input rows
        bound = 1.0 / np.sqrt(max(1, fan_in))
        b = Tensor(np.asarray(rng.uniform(-bound, bound, size=(1, fan_out)),
                              dtype=dtype), requires_grad=True)
        params[f"{name}.b"] = b
    return Linear(w, b)


class MLP:
    """Stack of Linear layers with ReLU between them (none after the last)."""

    def __init__(self, layers):
        self.layers = list(layers)

    def __call__(self, x: Tensor) -> Tensor:
        return self.after_first(self.layers[0](x, relu=len(self.layers) > 1))

    def after_first(self, h: Tensor) -> Tensor:
        """The rest of the stack, given the first layer's activation."""
        rest = self.layers[1:]
        for i, layer in enumerate(rest, 1):
            h = layer(h, relu=i < len(rest))
        return h


def make_mlp(params: dict, name: str, rng, widths, dtype=np.float32,
             parts=None) -> MLP:
    """widths = [in, hidden..., out]; registers one Linear per segment.

    ``parts`` splits the first layer's weight by input part (see
    :func:`make_linear`); such a stack is run through
    :meth:`MLP.after_first`.
    """
    if len(widths) < 2:
        raise ContractError(f"an MLP needs an input and an output width, "
                            f"got widths {widths}")
    layers = []
    for i in range(len(widths) - 1):
        layers.append(make_linear(params, f"{name}.{i}", rng,
                                  widths[i], widths[i + 1], dtype,
                                  parts=None if i else parts))
    return MLP(layers)


class CrossAttention:
    """One-head scaled dot-product attention of query rows over context rows.

    With one head of key width d, ``W_q @ W_k.T`` is one free (d, d)
    matrix, and so is ``W_v @ W_o`` (``W_v`` alone where there is no output
    projection); ``q`` and ``v`` learn them directly. The products are
    re-associated so that no (rows(context), d) projection is formed: the
    logits are ``(context @ q(queries).T).T`` and the output is
    ``v(attn @ context)``, which equals ``attn @ v(context)``. Stage I and
    every lift stage use it.
    """

    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.d = d
        self.wq = make_linear(params, f"{prefix}.q", rng, d, d, dtype, bias=False)
        self.wv = make_linear(params, f"{prefix}.v", rng, d, d, dtype, bias=False)

    def __call__(self, queries: Tensor, context: Tensor) -> Tensor:
        if queries.shape[1] != self.d or context.shape[1] != self.d \
                or context.shape[0] < 1:
            raise ShapeError(f"attention width {self.d} over at least one row, "
                             f"got {queries.shape} and {context.shape}")
        logits = transpose(matmul(context, transpose(self.wq(queries))))
        attn = softmax_lastdim(logits * (1.0 / np.sqrt(self.d)))
        return self.wv(matmul(attn, context))
