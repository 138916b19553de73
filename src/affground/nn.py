"""Linear layers, MLP stacks, and parameter registration helpers.

Modules register their tensors into a shared flat ``dict[str, Tensor]``
under dotted names so the trainer, optimizer, and checkpoint code all see
one namespace.
"""

from __future__ import annotations

import numpy as np

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


class MLP:
    """Stack of Linear layers with ReLU between them (none after the last)."""

    def __init__(self, layers):
        self.layers = list(layers)

    def __call__(self, x: Tensor) -> Tensor:
        return self.after_first(self.layers[0](x))

    def after_first(self, h: Tensor) -> Tensor:
        """The rest of the stack, given the first layer's pre-activation."""
        for layer in self.layers[1:]:
            h = layer(relu(h))
        return h


def make_mlp(params: dict, name: str, rng, widths, dtype=np.float32) -> MLP:
    """widths = [in, hidden..., out]; registers one Linear per segment."""
    layers = []
    for i in range(len(widths) - 1):
        layers.append(make_linear(params, f"{name}.{i}", rng,
                                  widths[i], widths[i + 1], dtype))
    return MLP(layers)
