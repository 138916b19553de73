"""Multi-scale geometry lifting of the intention embedding.

Each stage lets the single-row embedding attend over one scale of point
features (query from the embedding, keys/values from the points, scaled
by sqrt(d), no output projection), adds the result residually, and then
applies a residual feed-forward block. With one head of key width d,
``W_q @ W_k.T`` is one free (d, d) matrix, so ``q`` learns that product.
With one query the products are ordered so that no (N, d) x (d, d)
projection is formed: ``logits = (point_feats @ q(e).T).T`` and
``update = v(attn @ point_feats)``.

Each mode builds only the weights it uses:

- ``multi``: one stage per scale (``stage1``..``stage3``), run coarse to
  fine, ``stage1`` on the bottleneck.
- ``single``: one stage (``stage1``) on the finest scale.
- ``concat``: no stages; mean-pool the finest scale, concatenate it to
  the embedding and project back to width d (``concat``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .nn import make_linear, make_mlp
from .tensor import Tensor, concat, matmul, softmax_lastdim, tmean, transpose

LIFT_MODES = ("multi", "single", "concat")
N_SCALES = 3  # the backbone yields three feature scales


class LiftStage:
    """One residual attention + feed-forward update of the embedding."""

    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.d = d
        self.wq = make_linear(params, f"{prefix}.q", rng, d, d, dtype, bias=False)
        self.wv = make_linear(params, f"{prefix}.v", rng, d, d, dtype, bias=False)
        self.ffn = make_mlp(params, f"{prefix}.ffn", rng, [d, 4 * d, d], dtype)

    def __call__(self, embedding: Tensor, point_feats: Tensor) -> Tensor:
        if embedding.shape != (1, self.d):
            raise ShapeError(f"embedding must be (1, {self.d}), got {embedding.shape}")
        if point_feats.shape[1] != self.d or point_feats.shape[0] < 1:
            raise ShapeError(f"point features must be (N, {self.d}), "
                             f"got {point_feats.shape}")
        logits = transpose(matmul(point_feats, transpose(self.wq(embedding))))
        attn = softmax_lastdim(logits * (1.0 / np.sqrt(self.d)))
        updated = embedding + self.wv(matmul(attn, point_feats))
        return updated + self.ffn(updated)


class GeometryLifting:
    """Applies the configured lifting strategy over the feature pyramid."""

    def __init__(self, params: dict, prefix: str, rng, d: int,
                 mode: str = "multi", dtype=np.float32):
        if mode not in LIFT_MODES:
            raise ConfigError(f"lifting mode must be one of {LIFT_MODES}, got {mode!r}")
        self.d = d
        self.mode = mode
        self.stages = []
        self.concat_proj = None
        if mode == "concat":
            self.concat_proj = make_linear(params, f"{prefix}.concat", rng,
                                           2 * d, d, dtype)
        else:
            n_stages = N_SCALES if mode == "multi" else 1
            self.stages = [LiftStage(params, f"{prefix}.stage{i + 1}", rng, d, dtype)
                           for i in range(n_stages)]

    def lift_all(self, embedding: Tensor, scales) -> Tensor:
        """Lift a (1, d) embedding over feature tensors listed coarse->fine."""
        if self.mode == "multi" and len(scales) != N_SCALES:
            raise ContractError(
                f"multi mode expects {N_SCALES} scales, got {len(scales)}")
        if not scales:
            raise ContractError("need at least one feature scale")
        if self.mode == "multi":
            out = embedding
            for stage, feats in zip(self.stages, scales):
                out = stage(out, feats)
            return out
        finest = scales[-1]
        if self.mode == "single":
            return self.stages[0](embedding, finest)
        pooled = tmean(finest, axis=0, keepdims=True)
        return self.concat_proj(concat([embedding, pooled], axis=1))
