"""Per-point affordance decoding.

Each fused point feature is conditioned on the single lifted intention
embedding by a residual add of the value-projected embedding,
``feats + wv(embedding)``, and a small MLP head with a sigmoid turns the
result into a score in (0, 1) per point. (Attention over one key would
give every point a weight of exactly 1 on that key, so no query or key
projection is built.)

The head's first layer is linear, so the broadcast add is moved into its
bias: :meth:`AffordanceDecoder.point_to_intention` returns the (1, d/2) row
``wv(e) @ W_head.0 + b_head.0``, and :meth:`AffordanceDecoder.predict_map`
adds it to ``feats @ W_head.0`` for that layer's pre-activation, so the
(N, d) sum is never formed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import make_linear, make_mlp
from .tensor import Tensor, matmul, sigmoid


class AffordanceDecoder:
    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.d = d
        self.wv = make_linear(params, f"{prefix}.v", rng, d, d, dtype, bias=False)
        self.head = make_mlp(params, f"{prefix}.head", rng,
                             [d, max(1, d // 2), 1], dtype)

    def point_to_intention(self, embedding: Tensor) -> Tensor:
        """The (1, d/2) row ``head.0(wv(embedding))``: the head's first
        layer on the value-projected embedding, bias included."""
        if embedding.shape != (1, self.d):
            raise ShapeError(f"expected (1, {self.d}), got {embedding.shape}")
        return self.head.layers[0](self.wv(embedding))

    def predict_map(self, point_feats: Tensor, row: Tensor) -> Tensor:
        """(N, d) point features and :meth:`point_to_intention`'s row ->
        (N, 1) scores strictly inside (0, 1).

        ``point_feats @ W_head.0 + row`` is the head's first pre-activation
        of ``point_feats + wv(embedding)``.
        """
        if point_feats.shape[1] != self.d:
            raise ShapeError(f"expected (N, {self.d}), got {point_feats.shape}")
        first = self.head.layers[0]
        return sigmoid(self.head.after_first(matmul(point_feats, first.w) + row))
