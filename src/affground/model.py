"""Full pipeline assembly: intention -> integration -> lifting -> decoding.

:meth:`AffordanceModel.forward` is the one forward path, in two halves.
:meth:`AffordanceModel.integrate` projects the token states, encodes the
cloud, enhances the bottleneck with Stage I cross-attention, decodes to
full resolution and mixes in the Stage II descriptor;
:meth:`AffordanceModel.score` lifts the contact-token embedding over the
three decoder scales and gives every point a logit. The training loss
takes those logits; :meth:`AffordanceModel.predict` turns them into
scores with :func:`~affground.losses.sigmoid`. ``fusion.stage1`` and
``fusion.stage2`` skip their stage (an ablation) and build none of its
weights, nor the token projection when neither stage reads it;
``lifting.mode`` picks the lifting.

On the full-resolution point path every linear layer is followed by a
ReLU before the next one: FP3 (one layer), the Stage II fuse (one layer)
and the decoder head's first layer, whose bias carries the broadcast
intention add. Each layer, here and in every MLP, is one
:func:`~affground.tensor.linear` node: its bias, other addends and ReLU
are written into the product's buffer, so the graph keeps one buffer per
layer. Stage I learns ``W_q @ W_k.T`` and ``W_v @ W_o``, each
lift stage ``W_q @ W_k.T``, and the decoder ``W_v @ W_head.0``, each as
one matrix. Two learned matrices are known to still meet only in a
product, and are left so because folding them would make the last lift
stage unlike the others: the last lift stage's FFN output layer
(``lifting.stage3.ffn.1``, or ``stage1`` in ``single`` mode) feeds only
``decoder.v`` through the residual, and its bias is spanned by
``b_head.0``; in ``concat`` mode, ``lifting.concat.w_embedding`` and
``lifting.concat.w_pooled`` feed only ``decoder.v``.
``pca-viz`` projects the features ``integrate`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import BackbonePlan, PointBackbone, PointCloud
from .config import RunConfig
from .decoder import AffordanceDecoder
from .fusion import FusionModule
from .intention import HiddenStates, IntentionHead
from .lifting import GeometryLifting
from .losses import cross_entropy, map_loss, sigmoid, total_loss
from .rng import rng_for
from .tensor import Tensor


@dataclass
class ForwardResult:
    """One sample's forward: the per-point logits, which the map loss
    takes and whose sigmoid :meth:`AffordanceModel.predict` returns, and
    the text-label logits."""

    logits: Tensor          # (N, 1) affordance logits, one per point
    aux_logits: Tensor      # (1, K) text-label logits


class AffordanceModel:
    """Owns every trainable tensor and runs the per-sample forward pass."""

    def __init__(self, config: RunConfig, dtype=np.float32, rng=None):
        """``rng`` draws the initial weights; by default it is the seed's
        ``init`` stream."""
        config.validate()
        self.config = config
        m = config.model
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        if rng is None:
            rng = rng_for(config.seed, "init")
        self.backbone = PointBackbone(
            self.params, "backbone", rng, d=m.d,
            stage_points=m.resolved_stage_points(), radii=m.radii,
            k_max=m.k_max, dtype=dtype)
        stages = config.fusion
        self.intention = IntentionHead(
            self.params, "intention", rng, d_h=m.d_h, d=m.d,
            n_affordances=m.n_affordances, cont_width=m.cont_width,
            tokens=stages.stage1 or stages.stage2, dtype=dtype)
        self.fusion = FusionModule(self.params, "fusion", rng, d=m.d,
                                   stage1=stages.stage1, stage2=stages.stage2,
                                   dtype=dtype)
        self.lifting = GeometryLifting(
            self.params, "lifting", rng, d=m.d, mode=config.lifting.mode,
            dtype=dtype)
        self.decoder = AffordanceDecoder(self.params, "decoder", rng, d=m.d,
                                         dtype=dtype)

    def full_resolution_params(self) -> list:
        """The weights and biases of the layers that run on all N points:
        FP3, the Stage II fuse (when it is on) and the decoder head.

        A backward walk reaches them first. In each walk but a step's
        last, ``train`` keeps their gradient work on the walking thread
        and hands the other layers' to its pipeline worker, which is then
        making the next member's graph; the last walk, with no graph left
        to make, hands all of it over.
        """
        layers = ("backbone.fp3.", "fusion.fuse.", "decoder.head.")
        return [p for name, p in self.params.items() if name.startswith(layers)]

    def integrate_params(self) -> list:
        """The weights and biases :meth:`integrate` reads: the backbone's,
        the fusion stages' and the token projection's. :meth:`score` reads
        every other parameter and none of these.

        At a boundary between two pipelined steps, ``train`` updates these
        first, and its worker runs the next step's first ``integrate``
        while the others are updated.
        """
        layers = ("backbone.", "fusion.", "intention.tokens.")
        return [p for name, p in self.params.items() if name.startswith(layers)]

    def build_plan(self, cloud: PointCloud) -> BackbonePlan:
        return self.backbone.build_plan(cloud.coords)

    def integrate(self, hidden: HiddenStates,
                  plan: BackbonePlan) -> tuple[Tensor, list]:
        """(fused, scales): the point features after both integration stages.

        ``fused`` is the (N, d) features; ``scales`` are the three decoder
        scales lifting attends over.
        """
        stages = self.config.fusion
        if stages.stage1 or stages.stage2:
            token_feats = self.intention.project_hidden(hidden)
        bottleneck, skips = self.backbone.encode(plan)
        if stages.stage1:
            bottleneck = self.fusion.bottleneck_cross_attention(bottleneck,
                                                                token_feats)
        fused, scales = self.backbone.decode(bottleneck, skips, plan)
        if stages.stage2:
            descriptor = self.fusion.gated_global_descriptor(token_feats)
            fused = self.fusion.fuse_full_res(fused, descriptor)
        return fused, scales

    def score(self, hidden: HiddenStates, fused: Tensor,
              scales: list) -> ForwardResult:
        """The forward's second half, on :meth:`integrate`'s result: the
        per-point logits and the auxiliary affordance logits."""
        lifted = self.lifting.lift_all(self.intention.project_cont(hidden), scales)
        row = self.decoder.point_to_intention(lifted)
        return ForwardResult(
            logits=self.decoder.predict_map(fused, row),
            aux_logits=self.intention.aux_affordance_logits(hidden))

    def forward(self, cloud: PointCloud, hidden: HiddenStates,
                plan: BackbonePlan | None = None,
                integrated: tuple | None = None) -> ForwardResult:
        """:meth:`score` of :meth:`integrate`'s result. ``integrated`` is
        that result where it was made already for this sample, and then
        ``plan`` is not read."""
        if integrated is None:
            if plan is None:
                plan = self.build_plan(cloud)
            integrated = self.integrate(hidden, plan)
        return self.score(hidden, *integrated)

    def loss(self, result: ForwardResult, cloud: PointCloud,
             hidden: HiddenStates):
        """(total, l_txt, l_aff) for one sample."""
        w = self.config.losses
        l_txt = cross_entropy(result.aux_logits, hidden.affordance_id)
        l_aff = map_loss(result.logits, cloud.labels, w)
        return total_loss(l_txt, l_aff, w), l_txt, l_aff

    def predict(self, cloud: PointCloud, hidden: HiddenStates,
                plan: BackbonePlan | None = None) -> np.ndarray:
        """Per-point scores, the sigmoid of the logits, as a flat array (no
        graph recorded). They lie in [0, 1]: in float32 a logit above about
        16.6 gives exactly 1.0, and one below about -104 exactly 0.0."""
        from .tensor import no_grad

        with no_grad():
            result = self.forward(cloud, hidden, plan)
        return sigmoid(result.logits.data).reshape(-1)
