"""Two-stage cross-modal integration of token features into point features.

Stage I: bottleneck point features attend to projected token states
(queries are points, keys/values are tokens; the attention output
replaces the input rather than being added, unless the residual flag is
set). Stage II: a gated weighted sum over tokens forms one global
descriptor, and an MLP mixes each full-resolution row with it. Its first
layer, the concatenation ``[full_res, descriptor]`` times ``W``, is
computed exactly as ``full_res @ W[:d] + (descriptor @ W[d:] + b)``: the
descriptor's (1, d) projection is broadcast over the rows, never tiled.
Both stages can be switched off independently for ablations.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .nn import make_mlp
from .tensor import (
    Tensor,
    concat,
    matmul,
    slice_cols,
    softmax_lastdim,
    transpose,
)


class CrossAttention:
    """Scaled dot-product attention with q/k/v/output projections."""

    def __init__(self, params: dict, prefix: str, rng, d: int, n_heads: int = 1,
                 dtype=np.float32):
        if d % n_heads != 0:
            raise ContractError(f"width {d} not divisible by {n_heads} heads")
        self.d = d
        self.n_heads = n_heads
        self.head_dim = d // n_heads
        from .nn import make_linear
        self.wq = make_linear(params, f"{prefix}.q", rng, d, d, dtype, bias=False)
        self.wk = make_linear(params, f"{prefix}.k", rng, d, d, dtype, bias=False)
        self.wv = make_linear(params, f"{prefix}.v", rng, d, d, dtype, bias=False)
        self.wo = make_linear(params, f"{prefix}.out", rng, d, d, dtype, bias=False)

    def __call__(self, queries: Tensor, context: Tensor) -> Tensor:
        if queries.shape[1] != self.d or context.shape[1] != self.d:
            raise ShapeError(
                f"attention width {self.d}, got {queries.shape} and {context.shape}")
        q = self.wq(queries)
        k = self.wk(context)
        v = self.wv(context)
        scale = 1.0 / np.sqrt(self.head_dim)
        heads = []
        for h in range(self.n_heads):
            lo, hi = h * self.head_dim, (h + 1) * self.head_dim
            qh, kh, vh = (slice_cols(t, lo, hi) for t in (q, k, v))
            attn = softmax_lastdim(matmul(qh, transpose(kh)) * scale)
            heads.append(matmul(attn, vh))
        mixed = heads[0] if self.n_heads == 1 else concat(heads, axis=1)
        return self.wo(mixed)


class FusionModule:
    """Holds both integration stages and their parameters."""

    def __init__(self, params: dict, prefix: str, rng, d: int, n_heads: int = 1,
                 residual: bool = False, dtype=np.float32):
        self.d = d
        self.residual = residual
        self.dtype = dtype
        self.attn = CrossAttention(params, f"{prefix}.attn", rng, d, n_heads, dtype)
        gate = rng.uniform(-1, 1, size=(d, 1)) / np.sqrt(d)
        self.gate_w = Tensor(gate.astype(dtype), requires_grad=True)
        params[f"{prefix}.gate.w"] = self.gate_w
        self.fuse_mlp = make_mlp(params, f"{prefix}.fuse", rng, [2 * d, d, d], dtype)

    def bottleneck_cross_attention(self, point_feats: Tensor,
                                   token_feats: Tensor) -> Tensor:
        """Stage I enhancement of the bottleneck point features."""
        out = self.attn(point_feats, token_feats)
        if self.residual:
            out = out + point_feats
        return out

    def gated_global_descriptor(self, token_feats: Tensor) -> Tensor:
        """Softmax-gated weighted sum over token rows -> (1, d)."""
        scores = matmul(token_feats, self.gate_w)          # (L, 1)
        weights = softmax_lastdim(transpose(scores))       # (1, L)
        return matmul(weights, token_feats)

    def fuse_full_res(self, full_res: Tensor, descriptor: Tensor) -> Tensor:
        """Stage II: mix every row with the descriptor, ``MLP([row, desc])``."""
        if full_res.shape[1] != self.d or descriptor.shape != (1, self.d):
            raise ShapeError(
                f"fuse expects (N, {self.d}) and (1, {self.d}), got "
                f"{full_res.shape} and {descriptor.shape}")
        first = self.fuse_mlp.layers[0]
        w_row, w_desc = first.split(self.d)
        h = matmul(full_res, w_row) + (matmul(descriptor, w_desc) + first.b)
        return self.fuse_mlp.after_first(h)


def integrate(backbone, fusion: FusionModule, plan, token_feats: Tensor,
              stage1: bool = True, stage2: bool = True):
    """Encode, optionally enhance at the bottleneck, decode, optionally fuse.

    Returns the fused full-resolution features and the multi-scale
    feature pyramid for lifting. With both stages off the fused map is
    exactly the decoder output.
    """
    bottleneck, skips = backbone.encode(plan)
    if stage1:
        bottleneck = fusion.bottleneck_cross_attention(bottleneck, token_feats)
    ms = backbone.decode(bottleneck, skips, plan)
    if stage2:
        descriptor = fusion.gated_global_descriptor(token_feats)
        fused = fusion.fuse_full_res(ms.full_res, descriptor)
    else:
        fused = ms.full_res
    return fused, ms
