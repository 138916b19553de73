"""Point-cloud encoder/decoder backbone.

The encoder stacks three set-abstraction stages (sample centers, group
neighbors in a ball, run a shared per-point MLP, max-pool per group); the
decoder runs three feature-propagation stages (inverse-distance 3-NN
interpolation plus skip connection and a unit MLP) back to full
resolution. ``decode`` returns that full-resolution map together with
the three coarser feature scales lifting attends over: the bottleneck and
the first two FP outputs, coarse to fine. All geometry (sampling
indices, groupings, interpolation neighbors) is computed once per cloud
into a :class:`BackbonePlan` and is not differentiated; gradients flow
only through feature MLPs.

Both stage kinds compute their first linear layer on distinct rows only,
in exact algebra equal to concatenating the inputs and projecting:

- SA: ``rel @ W[:3] + gather_rows(feats @ W[3:], group_idx) + b``;
- FP: ``interpolate(src @ W[:d_src], nn_idx, w) + skip @ W[d_src:] + b``.

``W[a:b]`` is a :func:`~affground.tensor.slice_rows` view, so parameter
names, shapes and checkpoints are those of the concatenated layer.

Geometry contract: every squared distance is float64, summed over x, y, z
in that order, and every nearest-first order breaks equal distances toward
the lower index. :func:`ball_query` returns one (centers, k_max) array whose
rows are padded past their last member with their first entry, which is
exactly the ``SAPlan.group_idx`` layout. All three geometry functions are
vectorised over whole rows; none loops over groups in Python.

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
from .tensor import Tensor, gather_rows, interpolate, matmul, max_reduce

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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) float64 squared distances, summed x, y, z in order.

    Built from one contiguous per-coordinate difference at a time, so no
    (len(a), len(b), 3) temporary exists; the values equal
    ``np.square(a[:, None] - b[None]).sum(axis=2)`` bitwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    diff = np.empty_like(d2)
    for c in (1, 2):
        np.subtract.outer(a[:, c], b[:, c], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _nearest_k(key: np.ndarray, k: int):
    """Per row, the first k finite columns in (key, column) order.

    Returns ``(idx, count)``: ``idx`` is (rows, k) int64, each row padded
    with its first entry past its ``count`` finite columns (a row with no
    finite column is all zeros and has count 0). Only the candidates up to
    each row's k-th smallest key, ties included, are sorted.
    """
    m, n = key.shape
    last = min(k, n) - 1
    kth = np.partition(key, last, axis=1)[:, last, None]
    # capped at the largest finite value, the bound never admits inf or nan
    np.minimum(kth, np.finfo(np.float64).max, out=kth)
    rows, cols = np.nonzero(key <= kth)
    order = np.lexsort((cols, key[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    found = np.bincount(rows, minlength=m)
    pos = np.arange(rows.size) - (np.cumsum(found) - found)[rows]
    keep = pos < k
    idx = np.zeros((m, k), dtype=np.int64)
    idx[rows[keep], pos[keep]] = cols[keep]
    count = np.minimum(found, k)
    idx = np.where(np.arange(k) < count[:, None], idx, idx[:, :1])
    return idx, count


def farthest_point_sample(coords: np.ndarray, m: int) -> np.ndarray:
    """Greedy max-min selection of m distinct point indices.

    The first pick is the point farthest from the centroid; every tie
    (including later max-min ties) is broken toward the lowest index.
    Squared distances are float64, summed x, y, z in that order.
    """
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise ContractError(f"cannot sample {m} points from {n}")
    coords = np.asarray(coords, dtype=np.float64)
    xyz = [np.ascontiguousarray(coords[:, c]) for c in range(3)]
    d = np.empty(n)
    diff = np.empty(n)

    def sq_dist_to(point):
        np.subtract(xyz[0], point[0], out=d)
        np.multiply(d, d, out=d)
        for c in (1, 2):
            np.subtract(xyz[c], point[c], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(d, diff, out=d)
        return d

    selected = np.empty(m, dtype=np.int64)
    # argmax returns the first max index
    selected[0] = int(np.argmax(sq_dist_to(coords.mean(axis=0))))
    min_dist = sq_dist_to(coords[selected[0]]).copy()
    min_dist[selected[0]] = -1.0  # never re-pick
    for i in range(1, m):
        nxt = int(np.argmax(min_dist))
        selected[i] = nxt
        np.minimum(min_dist, sq_dist_to(coords[nxt]), out=min_dist)
        min_dist[nxt] = -1.0
    return selected


def ball_query(centers: np.ndarray, coords: np.ndarray, radius: float,
               k_max: int) -> np.ndarray:
    """Indices within ``radius`` of each center, nearest first, up to k_max.

    Returns a (len(centers), k_max) int64 array. Each row holds the
    center's in-range points in (squared distance, index) order, so equal
    distances go to the lower index, and is padded past its last member
    with its first entry. Distances are float64, summed x, y, z in that
    order. A center with no point in range gets the nearest point (lowest
    index on ties) in every column, so no group is ever empty.
    """
    if radius <= 0:
        raise ContractError("radius must be positive")
    if k_max < 1:
        raise ContractError("k_max must be at least 1")
    d2 = _sq_dist(centers, coords)
    r2 = float(radius) ** 2
    idx, count = _nearest_k(np.where(d2 <= r2, d2, np.inf), k_max)
    empty = count == 0
    if empty.any():
        idx[empty] = np.argmin(d2[empty], axis=1)[:, None]
    return idx


def interpolation_neighbors(src_coords: np.ndarray, dst_coords: np.ndarray,
                            k: int = 3):
    """Nearest-source indices and normalized inverse-distance weights.

    Per destination point, the k (at most the source count) nearest
    sources in (squared distance, index) order, so equal distances go to
    the lower index. Distances are float64, summed x, y, z in that order.
    """
    if src_coords.shape[0] == 0:
        raise ContractError("interpolation needs a non-empty source set")
    k = min(k, src_coords.shape[0])
    d2 = _sq_dist(dst_coords, src_coords)
    idx, _ = _nearest_k(d2, k)
    dist = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    w = 1.0 / (dist + EPS_INTERP)
    w /= w.sum(axis=1, keepdims=True)
    return idx, w


@dataclass
class SAPlan:
    sample_idx: np.ndarray      # (m,) into the previous level
    group_idx: np.ndarray       # (m, k) padded with each group's first entry
    rel_coords: np.ndarray      # (m, k, 3) member minus center
    centers: np.ndarray         # (m, 3)


@dataclass
class FPPlan:
    nn_idx: np.ndarray          # (n_dst, k) into the source level
    weights: np.ndarray         # (n_dst, k)


@dataclass
class BackbonePlan:
    """All per-cloud geometry the backbone needs, computed once."""

    level_coords: list          # [0]=input cloud, then one entry per SA stage
    sa: list = field(default_factory=list)
    fp: list = field(default_factory=list)


class SetAbstraction:
    """Sample/group/encode/pool stage producing coarser features.

    The shared MLP's first layer sees ``[rel, feats[group]]`` per member.
    With ``W = [W_rel; W_feat]`` its pre-activation is computed as
    ``rel @ W_rel + gather(feats @ W_feat) + b``: each point's features
    are projected once, and only the 3 relative-coordinate columns run
    on all m*k member rows.
    """

    def __init__(self, params, prefix, rng, in_dim, hidden, out, dtype=np.float32):
        self.mlp = make_mlp(params, prefix, rng, [in_dim + 3, hidden, out], dtype)
        self.out_dim = out
        self.dtype = dtype

    def __call__(self, feats: Tensor, plan: SAPlan) -> Tensor:
        m, k, _ = plan.rel_coords.shape
        rel = Tensor(plan.rel_coords.reshape(m * k, 3).astype(self.dtype))
        first = self.mlp.layers[0]
        w_rel, w_feat = first.split(3)
        member = gather_rows(matmul(feats, w_feat), plan.group_idx.reshape(-1))
        h = matmul(rel, w_rel) + member + first.b
        encoded = self.mlp.after_first(h).reshape(m, k, self.out_dim)
        return max_reduce(encoded, axis=1)


class FeaturePropagation:
    """Interpolate coarse features to finer points, merge skip, run unit MLP.

    Each destination point takes the inverse-distance weighted sum of its
    k nearest source rows (the plan's weights are constants), the skip
    features of that level are appended on the right, and a two-layer unit
    MLP maps the result to ``out`` channels. Interpolation is linear, so
    with ``W = [W_src; W_skip]`` the first layer is computed as
    ``interpolate(src @ W_src) + skip @ W_skip + b``: the source half runs
    on the coarse rows, not on every destination row.
    """

    def __init__(self, params, prefix, rng, in_dim, out, dtype=np.float32):
        self.mlp = make_mlp(params, prefix, rng, [in_dim, out, out], dtype)

    def __call__(self, src_feats: Tensor, plan: FPPlan,
                 skip_feats: Tensor) -> Tensor:
        first = self.mlp.layers[0]
        w_src, w_skip = first.split(src_feats.shape[1])
        h = (interpolate(matmul(src_feats, w_src), plan.nn_idx, plan.weights)
             + matmul(skip_feats, w_skip) + first.b)
        return self.mlp.after_first(h)


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
                                   in_dim, w, w, dtype)
            self.sa_stages.append(stage)
            in_dim = w
        # decoder skips: the two finer encoder stages, then the raw coords
        skip_dims = [widths[1], widths[0], 3]
        self.fp_stages = [
            FeaturePropagation(params, f"{prefix}.fp{i + 1}", rng,
                               d + skip_dims[i], d, dtype)
            for i in range(3)
        ]

    # -- geometry ------------------------------------------------------

    def build_plan(self, coords: np.ndarray) -> BackbonePlan:
        coords = np.asarray(coords, dtype=np.float32)
        n = coords.shape[0]
        if n < self.stage_points[0]:
            raise ContractError(
                f"cloud has {n} points but the first stage samples "
                f"{self.stage_points[0]}")
        plan = BackbonePlan(level_coords=[coords])
        level = coords
        for m, r, k in zip(self.stage_points, self.radii, self.k_max):
            idx = farthest_point_sample(level, m)
            centers = level[idx]
            group_idx = ball_query(centers, level, r, k)
            rel = level[group_idx] - centers[:, None, :]
            plan.sa.append(SAPlan(idx, group_idx, rel.astype(np.float32), centers))
            plan.level_coords.append(centers)
            level = centers
        # propagation runs bottleneck -> ... -> full resolution
        for i in range(3):
            src = plan.level_coords[3 - i]
            dst = plan.level_coords[2 - i]
            nn_idx, w = interpolation_neighbors(src, dst)
            plan.fp.append(FPPlan(nn_idx, w))
        return plan

    # -- features ------------------------------------------------------

    def encode(self, plan: BackbonePlan):
        """Run the SA stack; returns (bottleneck, skip features fine->coarse).

        skips[0] is the raw full-resolution coordinate features, then one
        entry per abstraction stage except the bottleneck itself.
        """
        feats = Tensor(plan.level_coords[0].astype(self.dtype))
        skips = [feats]
        for stage, sa_plan in zip(self.sa_stages, plan.sa):
            feats = stage(feats, sa_plan)
            skips.append(feats)
        return feats, skips[:-1]

    def decode(self, bottleneck: Tensor, skips, plan: BackbonePlan):
        """Run the FP stack; returns (full_res, scales).

        ``scales`` is the bottleneck and the first two FP outputs, coarse
        to fine: the three feature tensors that lifting attends over.
        """
        if bottleneck.shape != (self.stage_points[-1], self.d):
            raise ShapeError(
                f"bottleneck shape {bottleneck.shape} does not match "
                f"({self.stage_points[-1]}, {self.d})")
        scales = [bottleneck]
        for fp, fp_plan, skip in zip(self.fp_stages, plan.fp, reversed(skips)):
            scales.append(fp(scales[-1], fp_plan, skip))
        full_res = scales.pop()
        return full_res, scales
