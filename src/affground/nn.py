"""Linear layers, MLP stacks, and parameter registration helpers.

Modules register their tensors into a shared flat ``dict[str, Tensor]``
under dotted names so the trainer, optimizer, and checkpoint code all see
one namespace.

An MLP has no activation after its last layer, so that layer and whatever
linear map follows it can be multiplied out at the weight level.
:meth:`MLP.after_first` therefore returns the last layer as an
:class:`Affine`, ``x @ w + b`` not yet multiplied, and callers fold the
next linear layer into it (:meth:`Affine.then`, :meth:`Affine.shift`)
before paying for one product on the rows of ``x``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor, matmul, relu, slice_rows


# variance-preserving for linear chains; there is no normalization layer
# anywhere in this architecture, so anything hotter saturates the sigmoids
INIT_GAIN = np.sqrt(3.0)


def uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int,
                 dtype) -> np.ndarray:
    bound = INIT_GAIN / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


class Linear:
    """y = x @ w (+ b), with x shaped (rows, fan_in)."""

    def __init__(self, w: Tensor, b: Tensor | None = None):
        self.w = w
        self.b = b

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        if self.b is not None:
            y = y + self.b
        return y

    def split(self, at: int):
        """Weight rows ``[:at]`` and ``[at:]`` as views that pass gradients back.

        ``concat([x, z]) @ w`` equals ``x @ w_a + z @ w_b``; callers use this
        to project each input part on its distinct rows only.
        """
        return slice_rows(self.w, 0, at), slice_rows(self.w, at, self.w.shape[0])


def make_linear(params: dict, name: str, rng, fan_in: int, fan_out: int,
                dtype=np.float32, bias: bool = True) -> Linear:
    w = Tensor(uniform_init(rng, fan_in, fan_out, dtype), requires_grad=True)
    params[f"{name}.w"] = w
    b = None
    if bias:
        # small nonzero biases: exact zeros would park ReLU pre-activations
        # on the kink for all-zero input rows
        bound = 1.0 / np.sqrt(max(1, fan_in))
        b = Tensor(rng.uniform(-bound, bound, size=(1, fan_out)).astype(dtype),
                   requires_grad=True)
        params[f"{name}.b"] = b
    return Linear(w, b)


class Affine:
    """``x @ w + b`` with the product not yet taken.

    A linear layer applied next folds into the factors,
    ``(x @ w + b) @ w2 + b2 = x @ (w @ w2) + (b @ w2 + b2)``: a (d, d)
    times (d, d2) product in place of one per row of ``x``. ``w`` and
    ``b`` are tensors in the graph, so gradients reach every factor.
    """

    __slots__ = ("x", "w", "b")

    def __init__(self, x: Tensor, w: Tensor, b: Tensor):
        self.x = x
        self.w = w
        self.b = b

    @property
    def shape(self):
        return (self.x.shape[0], self.w.shape[1])

    def then(self, layer: Linear) -> "Affine":
        """This map followed by ``layer``, still unmultiplied."""
        return Affine(self.x, matmul(self.w, layer.w), layer(self.b))

    def shift(self, c: Tensor) -> "Affine":
        """This map plus ``c``, broadcast over the rows."""
        return Affine(self.x, self.w, self.b + c)

    def apply(self) -> Tensor:
        """The rows, ``x @ w + b``."""
        return matmul(self.x, self.w) + self.b


class MLP:
    """Stack of Linear layers with ReLU between them (none after the last)."""

    def __init__(self, layers):
        self.layers = list(layers)

    def __call__(self, x: Tensor) -> Tensor:
        return self.after_first(self.layers[0](x)).apply()

    def after_first(self, h: Tensor) -> Affine:
        """The rest of the stack, given the first layer's pre-activation.

        The last layer is returned unapplied, for the caller to fold the
        next linear map into or to :meth:`~Affine.apply`.
        """
        for layer in self.layers[1:-1]:
            h = layer(relu(h))
        last = self.layers[-1]
        return Affine(relu(h), last.w, last.b)


def make_mlp(params: dict, name: str, rng, widths, dtype=np.float32) -> MLP:
    """widths = [in, hidden..., out]; registers one Linear per segment."""
    if len(widths) < 3:
        raise ContractError(f"an MLP needs a hidden layer, got widths {widths}")
    layers = []
    for i in range(len(widths) - 1):
        layers.append(make_linear(params, f"{name}.{i}", rng,
                                  widths[i], widths[i + 1], dtype))
    return MLP(layers)
