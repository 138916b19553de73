"""Multi-scale geometry lifting of the intention embedding.

Each stage lets the (1, d) embedding attend over one scale of point
features with :class:`~affground.nn.CrossAttention` (query from the
embedding, keys and values from the points), adds the result residually,
and then applies a residual feed-forward block.

Each mode builds only the weights it uses:

- ``multi``: one stage per scale (``stage1``..``stage3``), run coarse to
  fine, ``stage1`` on the bottleneck.
- ``single``: one stage (``stage1``) on the finest scale.
- ``concat``: no stages; mean-pool the finest scale and project
  ``[embedding, pooled]`` back to width d (``concat``, one weight per
  input part), computed as ``embedding @ w_embedding + pooled @ w_pooled
  + b``, the sum added into the first product's buffer (one
  :func:`~affground.tensor.linear` node).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .nn import CrossAttention, make_linear, make_mlp
from .tensor import Tensor, linear, matmul, tmean

LIFT_MODES = ("multi", "single", "concat")
N_SCALES = 3  # the backbone yields three feature scales


class LiftStage:
    """One residual attention + feed-forward update of the embedding."""

    def __init__(self, params: dict, prefix: str, rng, d: int, dtype=np.float32):
        self.attn = CrossAttention(params, prefix, rng, d, dtype)
        self.ffn = make_mlp(params, f"{prefix}.ffn", rng, [d, 4 * d, d], dtype)

    def __call__(self, embedding: Tensor, point_feats: Tensor) -> Tensor:
        updated = embedding + self.attn(embedding, point_feats)
        return updated + self.ffn(updated)


class GeometryLifting:
    """Applies the configured lifting strategy over the feature pyramid."""

    def __init__(self, params: dict, prefix: str, rng, d: int,
                 mode: str = "multi", dtype=np.float32):
        if mode not in LIFT_MODES:
            raise ConfigError(f"lifting mode must be one of {LIFT_MODES}, got {mode!r}")
        self.stages = []
        self.concat_proj = None
        if mode == "concat":
            self.concat_proj = make_linear(
                params, f"{prefix}.concat", rng, 2 * d, d, dtype,
                parts={"w_embedding": d, "w_pooled": d})
        else:
            n_stages = N_SCALES if mode == "multi" else 1
            self.stages = [LiftStage(params, f"{prefix}.stage{i + 1}", rng, d, dtype)
                           for i in range(n_stages)]

    def lift_all(self, embedding: Tensor, scales) -> Tensor:
        """Lift a (1, d) embedding over the feature tensors listed coarse->fine;
        the stages run on the finest scales."""
        if len(scales) != N_SCALES:
            raise ContractError(f"lifting expects {N_SCALES} scales, got {len(scales)}")
        if self.concat_proj is not None:
            w_embedding, w_pooled = self.concat_proj.w
            pooled = tmean(scales[-1], axis=0, keepdims=True)
            return linear(embedding, w_embedding,
                          (matmul(pooled, w_pooled), self.concat_proj.b))
        out = embedding
        for stage, feats in zip(self.stages, scales[-len(self.stages):]):
            out = stage(out, feats)
        return out
