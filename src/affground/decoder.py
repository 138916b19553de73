"""Per-point affordance decoding.

Each fused point feature is conditioned on the single lifted intention
embedding by a residual add of the value-projected embedding,
``feats + wv(embedding)``, and a small MLP head with a sigmoid turns the
result into a score in (0, 1) per point. (Attention over one key would
give every point a weight of exactly 1 on that key, so no query or key
projection is built.)

The fused features arrive as the fuse MLP's last layer unapplied,
``relu(h_fuse) @ W_fuse.1 + b_fuse.1`` (FP3's, with Stage II off). The
residual add shifts the bias, and the head's first layer folds into the
weights, so its pre-activation is computed exactly as
``relu(h_fuse) @ (W_fuse.1 @ W_head.0) + ((b_fuse.1 + wv(e)) @ W_head.0 + b_head.0)``:
one (N, d) x (d, d/2) product, and the (N, d) features are never formed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import Affine, make_linear, make_mlp
from .tensor import Tensor, sigmoid


class AffordanceDecoder:
    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.d = d
        self.wv = make_linear(params, f"{prefix}.v", rng, d, d, dtype, bias=False)
        self.head = make_mlp(params, f"{prefix}.head", rng,
                             [d, max(1, d // 2), 1], dtype)

    def point_to_intention(self, point_feats: Affine, embedding: Tensor) -> Affine:
        """Add the value-projected (1, d) embedding to every (N, d) point row."""
        if point_feats.shape[1] != self.d or embedding.shape != (1, self.d):
            raise ShapeError(
                f"expected (N, {self.d}) and (1, {self.d}), got "
                f"{point_feats.shape} and {embedding.shape}")
        return point_feats.shift(self.wv(embedding))

    def predict_map(self, feats: Affine) -> Tensor:
        """(N, d) features -> (N, 1) scores strictly inside (0, 1)."""
        h = feats.then(self.head.layers[0]).apply()
        return sigmoid(self.head.after_first(h).apply())
