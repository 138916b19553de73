"""Per-point affordance decoding.

Each fused point feature is conditioned on the single lifted intention
embedding by a residual add of the value-projected embedding, and a
small MLP head turns the result into one logit per point. The loss
(:func:`~affground.losses.map_loss`) takes the logits, and
:meth:`~affground.model.AffordanceModel.predict` applies the sigmoid.
(Attention over one key would give every point a weight of exactly 1 on
that key, so no query or key projection is built.)

The head's first layer is linear, so the broadcast add moves into its
bias, and the value projection times that layer's weight is one (d, d/2)
matrix, which ``v`` learns directly:
:meth:`AffordanceDecoder.point_to_intention` returns the (1, d/2) row
``v(e) + b_head.0``, and :meth:`AffordanceDecoder.predict_map` adds it and
the ReLU into the buffer of ``feats @ W_head.0`` (one
:func:`~affground.tensor.linear` node), so the (N, d) sum is never
formed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import make_linear, make_mlp
from .tensor import Tensor, linear


class AffordanceDecoder:
    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.d = d
        hidden = max(1, d // 2)
        self.wv = make_linear(params, f"{prefix}.v", rng, d, hidden, dtype, bias=False)
        self.head = make_mlp(params, f"{prefix}.head", rng, [d, hidden, 1], dtype)

    def point_to_intention(self, embedding: Tensor) -> Tensor:
        """The (1, d/2) row ``v(embedding) + b_head.0``."""
        if embedding.shape != (1, self.d):
            raise ShapeError(f"expected (1, {self.d}), got {embedding.shape}")
        return linear(embedding, self.wv.w, (self.head.layers[0].b,))

    def predict_map(self, point_feats: Tensor, row: Tensor) -> Tensor:
        """(N, d) point features and :meth:`point_to_intention`'s row ->
        (N, 1) logits, one per point.

        ``relu(point_feats @ W_head.0 + row)`` is the head's first
        activation of every point with the value-projected embedding added.
        """
        if point_feats.shape[1] != self.d:
            raise ShapeError(f"expected (N, {self.d}), got {point_feats.shape}")
        first = linear(point_feats, self.head.layers[0].w, (row,), relu=True)
        return self.head.after_first(first)
