"""Two-stage cross-modal integration of token features into point features.

Stage I: the bottleneck point features attend to the token states with
:class:`~affground.nn.CrossAttention`; the output replaces the input.
Stage II: a gated weighted sum over tokens forms one global descriptor,
and one linear layer with a ReLU mixes each full-resolution row with it.
The layer's weight is one parameter per input part, ``w_row`` and
``w_desc``, and the concatenation ``[full_res, descriptor]`` times it is
computed as ``full_res @ w_row + (descriptor @ w_desc + b)``: the
descriptor's (1, d) projection is broadcast over the rows, never tiled,
and it and the ReLU go into the buffer of ``full_res @ w_row`` (one
:func:`~affground.tensor.linear` node).
``AffordanceModel.forward`` runs the stages around the backbone, and
``fusion.stage1``/``fusion.stage2`` switch each off for ablations; a stage
that is off builds no weights.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import CrossAttention, make_linear
from .tensor import Tensor, linear, matmul, softmax_lastdim, transpose


class FusionModule:
    """Holds the integration stages that are on and their parameters."""

    def __init__(self, params: dict, prefix: str, rng, d: int,
                 stage1: bool = True, stage2: bool = True, dtype=np.float32):
        self.d = d
        if stage1:
            self.attn = CrossAttention(params, f"{prefix}.attn", rng, d, dtype)
        if stage2:
            gate = rng.uniform(-1, 1, size=(d, 1)) / np.sqrt(d)
            self.gate_w = Tensor(gate.astype(dtype), requires_grad=True)
            params[f"{prefix}.gate.w"] = self.gate_w
            self.fuse = make_linear(params, f"{prefix}.fuse", rng, 2 * d, d,
                                    dtype, parts={"w_row": d, "w_desc": d})

    def bottleneck_cross_attention(self, point_feats: Tensor,
                                   token_feats: Tensor) -> Tensor:
        """Stage I enhancement of the bottleneck point features."""
        return self.attn(point_feats, token_feats)

    def gated_global_descriptor(self, token_feats: Tensor) -> Tensor:
        """Softmax-gated weighted sum over token rows -> (1, d)."""
        scores = matmul(token_feats, self.gate_w)          # (L, 1)
        weights = softmax_lastdim(transpose(scores))       # (1, L)
        return matmul(weights, token_feats)

    def fuse_full_res(self, full_res: Tensor, descriptor: Tensor) -> Tensor:
        """Stage II: ``relu([row, descriptor] @ W + b)`` for every row."""
        if full_res.shape[1] != self.d or descriptor.shape != (1, self.d):
            raise ShapeError(
                f"fuse expects (N, {self.d}) and (1, {self.d}), got "
                f"{full_res.shape} and {descriptor.shape}")
        w_row, w_desc = self.fuse.w
        shift = linear(descriptor, w_desc, (self.fuse.b,))
        return linear(full_res, w_row, (shift,), relu=True)
