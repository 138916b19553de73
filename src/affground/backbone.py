"""Point-cloud encoder/decoder backbone.

The encoder stacks three set-abstraction stages (sample centers, group
neighbors in a ball, run a shared per-point MLP, max-pool per group); the
decoder runs three feature-propagation stages (inverse-distance 3-NN
interpolation plus skip connection and a unit MLP) back to full
resolution. FP1 and FP2 end in a linear layer; FP3 is one linear layer
followed by a ReLU, because the next thing on the point path (the
Stage II fuse, or the decoder head with Stage II off) is itself linear.
Every first layer is one :func:`~affground.tensor.linear` node that ends
in its ReLU (FP3's being the one after its only layer).
``decode`` returns that full-resolution map together with the three
coarser feature scales lifting attends over: the bottleneck and the first
two FP outputs, coarse to fine. All geometry (sampling
indices, groupings, interpolation neighbors) is computed once per cloud
into a :class:`BackbonePlan` and is not differentiated; gradients flow
only through feature MLPs.

Both stage kinds compute their first linear layer on distinct rows only,
in exact algebra equal to concatenating the inputs and projecting:

- SA1, whose input features are the coordinates themselves:
  ``geometry @ W + b``, with the plan's constant (rows, 6) member rows
  ``[rel, coords[group_idx]]``;
- SA2, SA3: ``rel @ W_geo + gather_rows(feats @ W_feat, group_idx) + b``;
- FP: ``skip @ W_skip + interpolate(src @ W_src, nn_idx, w) + b``.

Each sum is added left to right into the first product's buffer. The
graph keeps no buffer of the ``feats @ W_feat`` or ``src @ W_src``
product once it is gathered or interpolated (their ``release``), nor of
the gathered or interpolated term once it is added (``linear``'s
``spent``), nor of an SA stage's (rows, C) last-layer output once it is
pooled (``segment_max``'s ``release``): the pool keeps only each
column's first-max row per group.

Each weight of such a sum is a parameter of its own (``w_geo`` and
``w_feat``, ``w_src`` and ``w_skip``), the rows of the concatenated
layer's weight for that input part, in input order; SA1, whose input is
one constant block, keeps one weight ``w``.

Geometry contract: every squared distance is float64, summed over x, y, z
in that order, and every nearest-first order breaks equal distances toward
the lower index. :func:`farthest_point_sample` returns the distance rows
it computes from each pick; :func:`ball_query` groups from them, and each
FP stage's :func:`interpolation_neighbors` reads their transpose, the same
bytes since (a - b)^2 = (b - a)^2. Groups hold real members only, back to
back with one start offset each (the ``SAPlan`` layout), so the SA MLPs
run on no padding. No geometry function loops over groups in Python.
:meth:`PointBackbone.build_plan` is :meth:`~PointBackbone.group` of
:meth:`~PointBackbone.sample`: the sampling, hundreds of small numpy calls
that hold the GIL, apart from the grouping, a few calls on large arrays,
so that a caller can run the two on different threads.

Clouds are expected centered at their centroid with max norm 1 (see
:func:`normalize_unit_sphere`); normalization is applied when data is
generated, never re-applied here, so perturbation magnitudes stay
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .nn import make_mlp
from .tensor import Tensor, gather_rows, interpolate, linear, matmul, segment_max

EPS_INTERP = 1e-8


@dataclass
class PointCloud:
    """N x 3 coordinates plus optional per-point affordance scores."""

    coords: np.ndarray
    labels: np.ndarray | None = None
    id: str = ""

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float32)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ContractError(f"coords must be (N, 3), got {self.coords.shape}")
        if self.coords.shape[0] < 4:
            raise ContractError(f"need at least 4 points, got {self.coords.shape[0]}")
        if not np.isfinite(self.coords).all():
            raise ContractError("coords contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.float32).reshape(-1)
            if self.labels.shape[0] != self.coords.shape[0]:
                raise ContractError(
                    f"{self.labels.shape[0]} labels for {self.coords.shape[0]} points")
            if self.labels.min() < 0.0 or self.labels.max() > 1.0:
                raise ContractError("labels must lie in [0, 1]")

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]


def normalize_unit_sphere(coords: np.ndarray) -> np.ndarray:
    """Center at the centroid and scale the max norm to 1."""
    coords = np.asarray(coords, dtype=np.float32)
    centered = coords - coords.mean(axis=0, keepdims=True)
    scale = np.linalg.norm(centered, axis=1).max()
    if scale > 0:
        centered = centered / scale
    return centered.astype(np.float32)


def farthest_point_sample(coords: np.ndarray, m: int):
    """Greedy max-min selection of m distinct point indices.

    Returns ``(selected, d2)``: the (m,) int64 picks, and the (m, n)
    float64 squared distances from each pick to every point, summed x, y,
    z in that order, which the selection computes anyway. The first pick
    is the point farthest from the centroid; every tie (including later
    max-min ties) is broken toward the lowest index.
    """
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise ContractError(f"cannot sample {m} points from {n}")
    coords = np.asarray(coords, dtype=np.float64)
    x, y, z = (np.ascontiguousarray(coords[:, c]) for c in range(3))
    # each pick's coordinates as Python floats, the values of the columns
    xs, ys, zs = x.tolist(), y.tolist(), z.tolist()
    d2 = np.empty((m, n))
    diff = np.empty(n)
    subtract, multiply, add = np.subtract, np.multiply, np.add

    def sq_dist_to(px, py, pz, out):
        subtract(x, px, out=out)
        multiply(out, out, out=out)
        subtract(y, py, out=diff)
        multiply(diff, diff, out=diff)
        add(out, diff, out=out)
        subtract(z, pz, out=diff)
        multiply(diff, diff, out=diff)
        add(out, diff, out=out)
        return out

    selected = np.empty(m, dtype=np.int64)
    # argmax returns the first max index
    first = int(np.argmax(sq_dist_to(*coords.mean(axis=0).tolist(), d2[0])))
    selected[0] = first
    min_dist = sq_dist_to(xs[first], ys[first], zs[first], d2[0]).copy()
    min_dist[first] = -1.0  # never re-pick
    argmax, minimum = min_dist.argmax, np.minimum
    for i in range(1, m):
        nxt = argmax()
        selected[i] = nxt
        minimum(min_dist, sq_dist_to(xs[nxt], ys[nxt], zs[nxt], d2[i]),
                out=min_dist)
        min_dist[nxt] = -1.0
    return selected, d2


def ball_query(d2: np.ndarray, radius: float, k_max: int):
    """Each center's points within ``radius``, nearest first, up to k_max.

    ``d2`` is the (centers, points) float64 squared distances. Returns
    ``(group_idx, starts)``: ``group_idx`` is 1-D int64, center by
    center, each center's in-range points in (squared distance, index)
    order, so equal distances go to the lower index; ``starts`` is the
    (centers,) offset of each center's first member. A center with no
    point in range keeps one member, its nearest point (lowest index on
    ties), so no group is ever empty.

    Only the rows with more than k_max points in range are partitioned,
    and each is cut at its k_max-th smallest distance, ties kept; every
    other row keeps all its in-range points, and a row with none keeps
    its first ``argmin``. A cut row still holds every point that sorts
    before its k_max-th in (squared distance, index) order, so the sort
    and the cut at k_max give the groups that sorting all in-range
    points would.
    """
    if radius <= 0:
        raise ContractError("radius must be positive")
    if k_max < 1:
        raise ContractError("k_max must be at least 1")
    m, n = d2.shape
    flat = np.flatnonzero(d2 <= float(radius) ** 2)
    rows, cols = np.divmod(flat, n)
    dist = d2.reshape(-1)[flat]
    found = np.bincount(rows, minlength=m)
    over = np.flatnonzero(found > k_max)
    if over.size:
        # a crowded row keeps its points up to its k_max-th distance, ties too
        cut = np.full(m, np.inf)
        cut[over] = np.partition(d2[over], k_max - 1, axis=1)[:, k_max - 1]
        keep = dist <= cut[rows]
        rows, cols, dist = rows[keep], cols[keep], dist[keep]
    empty = np.flatnonzero(found == 0)
    if empty.size:
        # a center with no point in range keeps its nearest point alone
        nearest = d2[empty].argmin(axis=1)
        rows, cols, dist = (np.concatenate(pair) for pair in (
            (rows, empty), (cols, nearest), (dist, d2[empty, nearest])))
    # stable, so equal distances keep the candidates' index order
    order = np.lexsort((dist, rows))
    rows, cols = rows[order], cols[order]
    found = np.bincount(rows, minlength=m)
    pos = np.arange(rows.size) - (np.cumsum(found) - found)[rows]
    count = np.minimum(found, k_max)
    return cols[pos < k_max], np.cumsum(count) - count


# interpolation_neighbors' key tile: destination rows by sources
KEY_TILE = (256, 64)


def interpolation_neighbors(d2: np.ndarray, k: int = 3):
    """Nearest-source indices and normalized inverse-distance weights.

    ``d2`` is the (destinations, sources) float64 squared distances. Per
    destination point, the k (at most the source count) nearest sources
    in (squared distance, index) order, so equal distances go to the
    lower index.

    The picks strike entries out of a row-major copy of ``d2``, the key.
    ``d2`` is usually the transpose of a sampling's rows, so the key is
    built in tiles of ``KEY_TILE`` (destinations, sources), each small
    enough to stay in cache while it is copied, and one band of
    destination rows at a time: no full-size key is ever held.
    """
    n_dst, n_src = d2.shape
    if n_src == 0:
        raise ContractError("interpolation needs a non-empty source set")
    k = min(k, n_src)
    tile_rows, tile_cols = KEY_TILE
    band = np.empty((min(tile_rows, n_dst), n_src))
    idx = np.empty((n_dst, k), dtype=np.int64)
    for r0 in range(0, n_dst, tile_rows):
        r1 = min(r0 + tile_rows, n_dst)
        key = band[:r1 - r0]
        for c0 in range(0, n_src, tile_cols):
            key[:, c0:c0 + tile_cols] = d2[r0:r1, c0:c0 + tile_cols]
        rows = np.arange(r1 - r0)
        for c in range(k):
            # argmin takes the first of equal minima, the lower index
            pick = key.argmin(axis=1)
            idx[r0:r1, c] = pick
            key[rows, pick] = np.inf
    dist = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    w = 1.0 / (dist + EPS_INTERP)
    w /= w.sum(axis=1, keepdims=True)
    return idx, w


@dataclass
class SAPlan:
    """One stage's groups and their members' constant first-layer columns.

    Groups hold real members only, stored group by group: group j is rows
    ``starts[j]:starts[j + 1]`` of ``group_idx`` and ``geometry``.
    ``geometry`` is each member's offset from its center; at the first
    stage, whose input features are the coordinates, the member's own
    coordinates follow.
    """

    group_idx: np.ndarray       # (rows,) member indices, nearest first per group
    geometry: np.ndarray        # (rows, 3), or (rows, 6) at the first stage
    starts: np.ndarray          # (m,) each group's first row


@dataclass
class FPPlan:
    nn_idx: np.ndarray          # (n_dst, k) into the source level
    weights: np.ndarray         # (n_dst, k)


@dataclass
class SampledCloud:
    """A cloud's farthest-point sampling stages, the input of a plan's
    grouping (see :meth:`PointBackbone.sample`)."""

    level_coords: list          # [0]=input cloud, then each stage's centers
    d2: list = field(default_factory=list)  # (centers, level) per stage


@dataclass
class BackbonePlan:
    """All per-cloud geometry the backbone needs, computed once."""

    level_coords: list          # [0]=input cloud, then one entry per SA stage
    sa: list = field(default_factory=list)
    fp: list = field(default_factory=list)


class SetAbstraction:
    """Sample/group/encode/pool stage producing coarser features.

    The shared MLP's first layer sees ``[geometry, feats[group]]`` per
    member, where ``geometry`` holds the plan's constant columns. Its
    weight is two parameters, ``W_geo`` and ``W_feat``, and its
    pre-activation is computed as ``geometry @ W_geo + gather(feats @
    W_feat) + b``, with its ReLU, in the buffer of ``geometry @ W_geo``:
    each point's features are projected once, and only the geometry
    columns run on the member rows. The MLP runs on real members only,
    and :func:`~affground.tensor.segment_max` pools each group's rows,
    releasing the last layer's output once pooled.
    With ``first_stage`` the geometry is the whole input, since that
    stage's features are the coordinates: the layer has one weight ``W``,
    and ``feats`` is None.
    """

    def __init__(self, params, prefix, rng, in_dim, hidden, out, dtype=np.float32,
                 first_stage=False):
        parts = None if first_stage else {"w_geo": 3, "w_feat": in_dim}
        self.mlp = make_mlp(params, prefix, rng, [in_dim + 3, hidden, out], dtype,
                            parts)
        self.out_dim = out
        self.dtype = dtype

    def __call__(self, feats: Tensor | None, plan: SAPlan) -> Tensor:
        geometry = Tensor(plan.geometry.astype(self.dtype))
        first = self.mlp.layers[0]
        w_geo, gathered = first.w, ()
        if feats is not None:
            w_geo, w_feat = first.w
            gathered = (gather_rows(matmul(feats, w_feat), plan.group_idx,
                                    release=True),)
        h = linear(geometry, w_geo, (*gathered, first.b), relu=True,
                   spent=gathered)
        return segment_max(self.mlp.after_first(h), plan.starts, release=True)


class FeaturePropagation:
    """Interpolate coarse features to finer points, merge skip, run unit MLP.

    Each destination point takes the inverse-distance weighted sum of its
    k nearest source rows (the plan's weights are constants), the skip
    features of that level are appended on the right, and a unit MLP of
    the given ``widths`` maps the result to ``widths[-1]`` channels.
    Interpolation is linear, so with the first layer's weight as two
    parameters, ``W_src`` for the ``src_dim`` source columns and
    ``W_skip``, that layer is computed as ``skip @ W_skip +
    interpolate(src @ W_src) + b``, with its ReLU, in the buffer of
    ``skip @ W_skip``: the source part runs on the coarse rows, not on
    every destination row. The first layer always ends in a ReLU: between
    layers, or, in a one-layer MLP (FP3), on the output. A longer MLP's
    last layer has no activation.
    """

    def __init__(self, params, prefix, rng, src_dim, widths, dtype=np.float32):
        self.mlp = make_mlp(params, prefix, rng, widths, dtype,
                            {"w_src": src_dim, "w_skip": widths[0] - src_dim})

    def __call__(self, src_feats: Tensor, plan: FPPlan,
                 skip_feats: Tensor) -> Tensor:
        first = self.mlp.layers[0]
        w_src, w_skip = first.w
        mixed = interpolate(matmul(src_feats, w_src), plan.nn_idx, plan.weights,
                            release=True)
        return self.mlp.after_first(
            linear(skip_feats, w_skip, (mixed, first.b), relu=True,
                   spent=(mixed,)))


class PointBackbone:
    """Three-stage set-abstraction encoder and feature-propagation decoder."""

    def __init__(self, params: dict, prefix: str, rng, d: int,
                 stage_points, radii=(0.1, 0.2, 0.4), k_max=(32, 32, 32),
                 dtype=np.float32):
        if len(stage_points) != 3 or len(radii) != 3 or len(k_max) != 3:
            raise ContractError("backbone expects exactly three stages")
        if any(a <= b for a, b in zip(stage_points, stage_points[1:])):
            raise ContractError(f"stage points must strictly decrease: {stage_points}")
        self.d = d
        self.stage_points = list(stage_points)
        self.radii = list(radii)
        self.k_max = list(k_max)
        self.dtype = dtype

        widths = [max(1, d // 4), max(1, d // 2), d]
        self.sa_stages = []
        in_dim = 3  # absolute coordinates double as the initial features
        for i, w in enumerate(widths):
            stage = SetAbstraction(params, f"{prefix}.sa{i + 1}", rng,
                                   in_dim, w, w, dtype, first_stage=i == 0)
            self.sa_stages.append(stage)
            in_dim = w
        # decoder skips: the two finer encoder stages, then the raw coords;
        # FP3 is one layer, since a linear layer follows its ReLU'd output
        fp_widths = [[d + widths[1], d, d], [d + widths[0], d, d], [d + 3, d]]
        self.fp_stages = [
            FeaturePropagation(params, f"{prefix}.fp{i + 1}", rng, d, w, dtype)
            for i, w in enumerate(fp_widths)
        ]

    # -- geometry ------------------------------------------------------

    def sample(self, coords: np.ndarray) -> SampledCloud:
        """The three farthest-point sampling stages of one cloud.

        This is the part of a plan that is hundreds of small numpy calls
        and holds the GIL for most of its time; :meth:`group` makes the
        rest of the plan from it.
        """
        coords = np.asarray(coords, dtype=np.float32)
        n = coords.shape[0]
        if n < self.stage_points[0]:
            raise ContractError(
                f"cloud has {n} points but the first stage samples "
                f"{self.stage_points[0]}")
        sampled = SampledCloud(level_coords=[coords])
        for m in self.stage_points:
            level = sampled.level_coords[-1]
            idx, d2 = farthest_point_sample(level, m)
            sampled.level_coords.append(level[idx])
            sampled.d2.append(d2)
        return sampled

    def group(self, sampled: SampledCloud) -> BackbonePlan:
        """The plan from a cloud's sampling stages: each stage's ball
        query and member geometry, then each FP stage's interpolation
        neighbors. It keeps no reference to ``sampled``, whose distance
        rows can be dropped once this returns."""
        levels = sampled.level_coords
        plan = BackbonePlan(level_coords=list(levels))
        for i, (r, k, d2) in enumerate(zip(self.radii, self.k_max, sampled.d2)):
            level, centers = levels[i], levels[i + 1]
            group_idx, starts = ball_query(d2, r, k)
            columns = level
            if i == 0:
                # the first stage's input features are the coordinates: its
                # members carry their own coordinates after the offset
                columns = np.concatenate([level, level], axis=1)
            geometry = columns[group_idx]
            geometry[:, :3] -= np.repeat(
                centers, np.diff(starts, append=len(group_idx)), axis=0)
            plan.sa.append(SAPlan(group_idx, geometry, starts))
        # propagation runs bottleneck -> ... -> full resolution; each
        # stage's (finer, coarser) distances are its sampling's, transposed
        for d2 in reversed(sampled.d2):
            plan.fp.append(FPPlan(*interpolation_neighbors(d2.T)))
        return plan

    def build_plan(self, coords: np.ndarray) -> BackbonePlan:
        """The cloud's whole plan: :meth:`group` of :meth:`sample`."""
        return self.group(self.sample(coords))

    # -- features ------------------------------------------------------

    def encode(self, plan: BackbonePlan):
        """Run the SA stack; returns (bottleneck, skip features fine->coarse).

        skips[0] is the raw full-resolution coordinate features, then one
        entry per abstraction stage except the bottleneck itself. The
        first stage reads the coordinates from its plan's geometry.
        """
        skips = [Tensor(plan.level_coords[0].astype(self.dtype))]
        feats = None
        for stage, sa_plan in zip(self.sa_stages, plan.sa):
            feats = stage(feats, sa_plan)
            skips.append(feats)
        return feats, skips[:-1]

    def decode(self, bottleneck: Tensor, skips, plan: BackbonePlan):
        """Run the FP stack; returns (full_res, scales).

        ``full_res`` is FP3's (N, d) output, after its ReLU. ``scales`` is the
        bottleneck and the first two FP outputs, coarse to fine: the three
        feature tensors that lifting attends over.
        """
        if bottleneck.shape != (self.stage_points[-1], self.d):
            raise ShapeError(
                f"bottleneck shape {bottleneck.shape} does not match "
                f"({self.stage_points[-1]}, {self.d})")
        scales = [bottleneck]
        for fp, fp_plan, skip in zip(self.fp_stages, plan.fp, reversed(skips)):
            scales.append(fp(scales[-1], fp_plan, skip))
        return scales.pop(), scales
