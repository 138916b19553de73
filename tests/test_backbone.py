"""Backbone geometry oracles and feature-path checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affground import tensor as T
from affground.backbone import (
    KEY_TILE,
    BackbonePlan,
    FeaturePropagation,
    FPPlan,
    PointBackbone,
    PointCloud,
    SAPlan,
    ball_query,
    farthest_point_sample,
    interpolation_neighbors,
    normalize_unit_sphere,
)
from affground.config import ModelConfig, RunConfig
from affground.corruption import KINDS, LEVELS, generate_benchmark
from affground.dataio import gen_synthetic_dataset, read_dataset, synth_cloud
from affground.errors import ContractError
from affground.gradcheck import finite_difference_check_params
from affground.intention import synth_fixture
from affground.model import AffordanceModel
from affground.rng import rng_for


def fps_oracle(coords, m):
    """Independent greedy max-min selection with explicit tie-breaking."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    centroid = coords.mean(axis=0)

    def pick(dists, taken):
        best, best_d = None, -np.inf
        for i in range(n):
            if i in taken:
                continue
            if dists[i] > best_d:
                best, best_d = i, dists[i]
        return best

    d0 = [float(np.square(coords[i] - centroid).sum()) for i in range(n)]
    chosen = [pick(d0, set())]
    while len(chosen) < m:
        taken = set(chosen)
        min_d = [
            min(float(np.square(coords[i] - coords[j]).sum()) for j in chosen)
            for i in range(n)
        ]
        chosen.append(pick(min_d, taken))
    return chosen


# -- reference geometry: the per-group loop implementations, kept as oracles


def fps_reference(coords, m):
    """Greedy max-min sampling over (n, 3) float64 rows."""
    coords = np.asarray(coords, dtype=np.float64)
    centroid = coords.mean(axis=0)
    dist = np.square(coords - centroid).sum(axis=1)
    selected = np.empty(m, dtype=np.int64)
    selected[0] = int(np.argmax(dist))  # argmax returns the first max index
    min_dist = np.square(coords - coords[selected[0]]).sum(axis=1)
    min_dist[selected[0]] = -1.0  # never re-pick
    for i in range(1, m):
        nxt = int(np.argmax(min_dist))
        selected[i] = nxt
        d = np.square(coords - coords[nxt]).sum(axis=1)
        np.minimum(min_dist, d, out=min_dist)
        min_dist[nxt] = -1.0
    return selected


def sq_dist_oracle(a, b):
    """(len(a), len(b)) float64 squared distances, summed x, y, z in order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.square(a[:, None, :] - b[None, :, :]).sum(axis=2)


def ball_query_oracle(centers, coords, radius, k_max):
    """One index array per center: in range, nearest first."""
    return groups_oracle(sq_dist_oracle(centers, coords), radius, k_max)


def groups_oracle(d2, radius, k_max):
    """``ball_query_oracle`` from the (centers, points) squared distances."""
    r2 = float(radius) ** 2
    groups = []
    for row in d2:
        inside = np.flatnonzero(row <= r2)
        if inside.size == 0:
            groups.append(np.array([int(np.argmin(row))], dtype=np.int64))
            continue
        order = np.argsort(row[inside], kind="stable")  # ties keep index order
        groups.append(inside[order][:k_max].astype(np.int64))
    return groups


def compact_groups_oracle(groups):
    """The groups back to back, and each group's first row."""
    sizes = [len(g) for g in groups]
    starts = np.array([sum(sizes[:j]) for j in range(len(groups))], dtype=np.int64)
    return np.concatenate(groups), starts


def interpolation_neighbors_oracle(src_coords, dst_coords, k=3):
    """k nearest sources by a full stable sort, inverse-distance weights."""
    k = min(k, len(src_coords))
    d2 = sq_dist_oracle(dst_coords, src_coords)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    dist = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    w = 1.0 / (dist + 1e-8)
    w /= w.sum(axis=1, keepdims=True)
    return idx.astype(np.int64), w.astype(np.float64)


def build_plan_oracle(backbone, coords):
    """``PointBackbone.build_plan`` computed with the reference geometry."""
    coords = np.asarray(coords, dtype=np.float32)
    plan = BackbonePlan(level_coords=[coords])
    level = coords
    for m, r, k in zip(backbone.stage_points, backbone.radii, backbone.k_max):
        idx = fps_reference(level, m)
        centers = level[idx]
        groups = ball_query_oracle(centers, level, r, k)
        group_idx, starts = compact_groups_oracle(groups)
        geometry = np.concatenate(
            [level[g] - centers[j] for j, g in enumerate(groups)])
        if len(plan.sa) == 0:  # the input cloud: its features are the coords
            geometry = np.concatenate([geometry, level[group_idx]], axis=1)
        plan.sa.append(SAPlan(group_idx, geometry.astype(np.float32), starts))
        plan.level_coords.append(centers)
        level = centers
    for i in range(3):
        nn_idx, w = interpolation_neighbors_oracle(plan.level_coords[3 - i],
                                                   plan.level_coords[2 - i])
        plan.fp.append(FPPlan(nn_idx, w))
    return plan


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_plans_bitwise(got, want):
    assert len(got.level_coords) == len(want.level_coords)
    for a, b in zip(got.level_coords, want.level_coords):
        assert_bitwise(a, b)
    assert len(got.sa) == len(want.sa) and len(got.fp) == len(want.fp)
    for a, b in zip(got.sa, want.sa):
        for name in ("group_idx", "geometry", "starts"):
            assert_bitwise(getattr(a, name), getattr(b, name))
    for a, b in zip(got.fp, want.fp):
        assert_bitwise(a.nn_idx, b.nn_idx)
        assert_bitwise(a.weights, b.weights)


@st.composite
def clouds(draw):
    """float32 clouds: random, gridded, duplicated points, or 4 points.

    Grid clouds sit on integer coordinates, so many squared distances are
    exactly equal, and equal to an integer radius squared.
    """
    kind = draw(st.sampled_from(["random", "grid", "duplicate", "four"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        coords = rng.normal(size=(draw(st.integers(4, 160)), 3))
    elif kind == "grid":
        g = draw(st.integers(2, 5))
        axes = np.meshgrid(*[np.arange(g)] * 3, indexing="ij")
        coords = np.stack(axes, axis=-1).reshape(-1, 3)[rng.permutation(g ** 3)]
    elif kind == "duplicate":
        base = rng.normal(size=(draw(st.integers(1, 12)), 3))
        coords = base[rng.integers(0, len(base), draw(st.integers(4, 120)))]
    else:
        coords = rng.integers(-1, 2, size=(4, 3))
    return coords.astype(np.float32), rng


class TestGeometryMatchesOracles:
    @settings(max_examples=60, deadline=None)
    @given(clouds(), st.data())
    def test_farthest_point_sample(self, cloud, data):
        coords, _ = cloud
        n = len(coords)
        m = data.draw(st.integers(1, n))
        got, d2 = farthest_point_sample(coords, m)
        assert_bitwise(got, fps_reference(coords, m))
        # each pick's distance row, as the ball query and FP stages read it
        assert_bitwise(d2, sq_dist_oracle(coords[got], coords))
        assert_bitwise(d2.T, sq_dist_oracle(coords, coords[got]))
        if n <= 24:
            assert got.tolist() == fps_oracle(coords, m)

    @settings(max_examples=80, deadline=None)
    @given(clouds(), st.data())
    def test_ball_query(self, cloud, data):
        coords, rng = cloud
        n = len(coords)
        centers = coords[rng.integers(0, n, data.draw(st.integers(1, 12)))]
        if data.draw(st.booleans()):  # centers far outside every ball
            centers = np.vstack([centers, coords[:2] + 50.0])
        radius = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
        k_max = data.draw(st.integers(1, n + 4))
        want = compact_groups_oracle(
            ball_query_oracle(centers, coords, radius, k_max))
        got = ball_query(sq_dist_oracle(centers, coords), radius, k_max)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert_bitwise(a, b)

    @settings(max_examples=80, deadline=None)
    @given(clouds(), st.data())
    def test_interpolation_neighbors(self, cloud, data):
        coords, rng = cloud
        n = len(coords)
        src = coords[rng.permutation(n)[: data.draw(st.integers(1, n))]]
        k = data.draw(st.integers(1, 5))
        got_idx, got_w = interpolation_neighbors(sq_dist_oracle(coords, src), k)
        want_idx, want_w = interpolation_neighbors_oracle(src, coords, k)
        assert_bitwise(got_idx, want_idx)
        assert_bitwise(got_w, want_w)

    def test_build_plan_on_every_corruption_cell(self, tmp_path):
        manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1, 128,
                                         seed=5, d_h=16, seq_len=4)
        tree = generate_benchmark(manifest, tmp_path / "bench", seed=31)
        backbone = PointBackbone({}, "backbone", rng_for(0, "init"), d=8,
                                 stage_points=[32, 8, 2])
        cells = 0
        for kind in KINDS:
            for level in LEVELS:
                cell = read_dataset(tree / kind / f"level_{level}" / "manifest.jsonl")
                for record in cell.records:
                    coords = cell.load_cloud(record).coords
                    assert_plans_bitwise(backbone.build_plan(coords),
                                         build_plan_oracle(backbone, coords))
                cells += 1
        assert cells == 35

    def test_build_plan_with_a_one_member_group_and_a_full_one(self):
        rng = np.random.default_rng(7)
        # a dense clump, and one point farther than any radius from it,
        # which the sampling picks first
        coords = np.vstack([rng.normal(scale=0.02, size=(63, 3)), [[0, 0, 3.0]]])
        backbone = PointBackbone({}, "backbone", rng_for(0, "init"), d=8,
                                 stage_points=[32, 8, 2], k_max=[8, 8, 8])
        plan = backbone.build_plan(coords)
        assert_plans_bitwise(plan, build_plan_oracle(backbone, coords))
        sa = plan.sa[0]
        sizes = np.diff(sa.starts, append=len(sa.group_idx))
        assert sizes[0] == 1 and sa.group_idx[0] == 63 and sizes.max() == 8


    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_interpolation_neighbors_across_key_tiles(self, kind, k):
        rng = np.random.default_rng(11)
        if kind == "grid":   # integer coordinates: many equal distances
            axes = np.meshgrid(*[np.arange(9)] * 3, indexing="ij")
            coords = np.stack(axes, axis=-1).reshape(-1, 3)
            coords = coords[rng.permutation(len(coords))[:600]]
        else:
            coords = rng.normal(size=(600, 3))
        coords = coords.astype(np.float32)
        src = coords[rng.permutation(600)[:150]]
        # more than one key tile each way, and a partial one at each end
        for size, tile in zip((600, 150), KEY_TILE):
            assert size > tile and size % tile
        want_idx, want_w = interpolation_neighbors_oracle(src, coords, k)
        # row-major, and transposed as a sampling stage's rows are read
        for d2 in (sq_dist_oracle(coords, src), sq_dist_oracle(src, coords).T):
            got_idx, got_w = interpolation_neighbors(d2, k)
            assert_bitwise(got_idx, want_idx)
            assert_bitwise(got_w, want_w)

    def test_ball_query_at_the_k_max_cut(self):
        radius, k_max = 2.0, 3          # squared radius 4
        d2 = np.array([
            [5, 1, 4, 9, 0, 7, 6, 8],   # exactly k_max in range
            [3, 9, 2, 1, 2, 0, 2, 2],   # more, tied at the k_max-th distance
            [2, 2, 9, 4, 2, 0, 4, 1],   # more, tied at the k_max-th and cut
            [7, 5, 9, 5, 6, 8, 5, 10],  # none in range, tied nearest points
            [9, 8, 7, 6, 5, 4, 5, 6],   # one in range, at the radius
            [4, 4, 4, 4, 4, 4, 4, 4],   # all tied at the radius
        ], dtype=np.float64)
        group_idx, starts = ball_query(d2, radius, k_max)
        assert starts.tolist() == [0, 3, 6, 9, 10, 11]
        assert group_idx.tolist() == [4, 1, 2, 5, 3, 2, 5, 7, 0,
                                      1, 5, 0, 1, 2]
        want = compact_groups_oracle(groups_oracle(d2, radius, k_max))
        assert_bitwise(group_idx, want[0])
        assert_bitwise(starts, want[1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), st.data())
    def test_ball_query_on_tie_heavy_distances(self, m, n, data):
        # quarter steps, and radii whose squares are quarter steps too:
        # rows full of equal distances, some equal to the squared radius
        seed = data.draw(st.integers(0, 2**32 - 1))
        top = data.draw(st.sampled_from([2, 6, 12, 40]))
        d2 = np.random.default_rng(seed).integers(0, top, (m, n)) / 4.0
        radius = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
        k_max = data.draw(st.integers(1, n + 2))
        want = compact_groups_oracle(groups_oracle(d2, radius, k_max))
        for a, b in zip(ball_query(d2, radius, k_max), want):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("kind", ["clumps", "grid"])
    def test_build_plan_on_a_large_cloud(self, kind):
        rng = np.random.default_rng(3)
        if kind == "grid":
            # integer coordinates, and radii whose squares are integers:
            # groups cut at k_max among points at the same distance
            axes = np.meshgrid(*[np.arange(11)] * 3, indexing="ij")
            coords = np.stack(axes, axis=-1).reshape(-1, 3)
            coords = coords[rng.permutation(len(coords))]
            backbone = PointBackbone({}, "backbone", rng_for(0, "init"), d=8,
                                     stage_points=[512, 128, 32],
                                     radii=[2.0, 3.0, 5.0], k_max=[32, 16, 8])
        else:
            # dense clumps, as the local additions make, a duplicated
            # block, and one far point that is in no other point's ball
            base = normalize_unit_sphere(rng.normal(size=(1024, 3)))
            clumps = (base[rng.integers(0, 1024, 8)][:, None, :]
                      + rng.normal(scale=0.02, size=(8, 64, 3)))
            coords = np.vstack([base, clumps.reshape(-1, 3), base[:64],
                                [[0, 0, 3.0]]])
            backbone = PointBackbone({}, "backbone", rng_for(0, "init"), d=8,
                                     stage_points=[512, 128, 32])
        coords = coords.astype(np.float32)
        assert len(coords) >= 1024
        plan = backbone.build_plan(coords)
        assert_plans_bitwise(plan, build_plan_oracle(backbone, coords))
        # some first-stage group was cut at k_max with more in range
        sa = plan.sa[0]
        in_range = (sq_dist_oracle(plan.level_coords[1], coords)
                    <= backbone.radii[0] ** 2).sum(axis=1)
        sizes = np.diff(sa.starts, append=len(sa.group_idx))
        assert (in_range > backbone.k_max[0]).any()
        assert sizes.max() == backbone.k_max[0]


class TestFarthestPointSample:
    def test_colinear_hand_case(self):
        coords = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        idx, d2 = farthest_point_sample(coords, 3)
        assert idx.tolist() == [0, 3, 1]
        assert d2.tolist() == [[0, 1, 4, 9], [9, 4, 1, 0], [1, 0, 1, 4]]

    def test_m_equals_n_all_indices(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(12, 3))
        idx, _ = farthest_point_sample(coords, 12)
        assert sorted(idx.tolist()) == list(range(12))
        again, _ = farthest_point_sample(coords, 12)
        np.testing.assert_array_equal(idx, again)

    def test_m_one_is_farthest_from_centroid(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(20, 3))
        idx, d2 = farthest_point_sample(coords, 1)
        d = np.square(coords - coords.mean(0)).sum(1)
        assert idx[0] == int(np.argmax(d)) and d2.shape == (1, 20)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(15, 3))
        m = 7
        assert farthest_point_sample(coords, m)[0].tolist() == fps_oracle(coords, m)

    def test_indices_distinct_on_duplicate_cloud(self):
        coords = np.zeros((8, 3))
        idx, _ = farthest_point_sample(coords, 5)
        assert len(set(idx.tolist())) == 5

    def test_m_too_large_rejected(self):
        with pytest.raises(ContractError):
            farthest_point_sample(np.zeros((4, 3)), 5)


def ball_query_at(centers, coords, radius, k_max):
    """ball_query from the centers' squared distances to the points."""
    return ball_query(sq_dist_oracle(centers, coords), radius, k_max)


class TestBallQuery:
    def test_radius_filter(self):
        coords = np.array([[0.5, 0, 0], [2.0, 0, 0]])
        group_idx, starts = ball_query_at(np.zeros((1, 3)), coords, 1.0, 8)
        assert group_idx.dtype == np.int64 and starts.dtype == np.int64
        assert group_idx.tolist() == [0] and starts.tolist() == [0]

    def test_huge_radius_sorts_by_distance(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(10, 3))
        center = coords[[3]]
        group_idx, starts = ball_query_at(center, coords, 100.0, 10)
        d = np.linalg.norm(coords - center, axis=1)
        assert starts.tolist() == [0]
        assert group_idx.tolist() == np.argsort(d, kind="stable").tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_membership_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-1, 1, size=(40, 3))
        picks, d2 = farthest_point_sample(coords, 6)
        r = 0.6
        group_idx, starts = ball_query(d2, r, 40)
        bounds = np.append(starts, len(group_idx))
        assert bounds[0] == 0 and (np.diff(bounds) >= 1).all()
        for j, c in enumerate(coords[picks]):
            expected = {
                i for i in range(40)
                if np.linalg.norm(coords[i] - c) <= r
            }
            # the members, once each, and nothing else
            members = group_idx[bounds[j]:bounds[j + 1]].tolist()
            assert len(members) == len(expected) and set(members) == expected

    def test_empty_group_keeps_its_nearest_point(self):
        coords = np.array([[5.0, 0, 0], [6.0, 0, 0], [4.0, 0, 0], [9.0, 0, 0]])
        centers = np.array([[0.0, 0, 0], [5.9, 0, 0], [0.0, 0, 0], [20.0, 0, 0]])
        group_idx, starts = ball_query_at(centers, coords, 0.5, 4)
        # one member each for the empty groups, the nearest point
        assert group_idx.tolist() == [2, 1, 2, 3]
        assert starts.tolist() == [0, 1, 2, 3]

    def test_truncation_at_k_max(self):
        coords = np.linspace(0, 1, 9)[:, None] * np.array([[1.0, 0, 0]])
        group_idx, starts = ball_query_at(np.zeros((1, 3)), coords, 2.0, 3)
        assert group_idx.tolist() == [0, 1, 2] and starts.tolist() == [0]


def tiny_backbone(params, rng, d=8, stage_points=(8, 4, 2), dtype=np.float64):
    return PointBackbone(params, "backbone", rng, d=d,
                         stage_points=list(stage_points),
                         radii=[0.35, 0.6, 1.0], k_max=[4, 4, 2], dtype=dtype)


class TestSetAbstraction:
    def test_identical_geometry_identical_pool(self):
        # two centers with bitwise-identical local patches and features
        params = {}
        backbone = tiny_backbone(params, rng_for(0, "init"))
        patch = np.array([[0.1, 0, 0], [0, 0.1, 0], [-0.1, 0, 0], [0, -0.1, 0]])
        plan = SAPlan(group_idx=np.arange(8), geometry=np.vstack([patch, patch]),
                      starts=np.array([0, 4]))
        feats = T.tensor(np.tile(np.arange(8)[:, None] % 4, (1, 2)),
                         dtype=np.float64)
        out = backbone.sa_stages[1](feats, plan)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_single_point_group_equals_mlp_output(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(1, "init"))
        stage = backbone.sa_stages[1]
        rel = np.array([[0.2, -0.1, 0.05]])
        feat = np.array([[0.4, -0.3]])
        plan = SAPlan(np.array([0]), rel, np.array([0]))
        out = stage(T.tensor(feat, dtype=np.float64), plan)

        w0 = np.vstack([params[f"backbone.sa2.0.{part}"].data
                        for part in ("w_geo", "w_feat")])
        b0 = params["backbone.sa2.0.b"].data
        w1 = params["backbone.sa2.1.w"].data
        b1 = params["backbone.sa2.1.b"].data
        stacked = np.hstack([rel, feat])
        expected = np.maximum(stacked @ w0 + b0, 0) @ w1 + b1
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_pool_invariant_to_within_group_shuffle(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(2, "init"))
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(16, 3)).astype(np.float32)
        feats = T.tensor(rng.normal(size=(16, 2)), dtype=np.float64)
        idx = np.array([1, 5, 9, 13])
        centers = coords[idx]
        # groups of four, one, three and two members
        group_idx = np.array([0, 3, 6, 7, 2, 5, 9, 11, 1, 13])
        starts = np.array([0, 4, 5, 8])
        center_of_row = np.repeat(centers, [4, 1, 3, 2], axis=0)
        rel = (coords[group_idx] - center_of_row).astype(np.float64)
        plan = SAPlan(group_idx, rel, starts)
        out = backbone.sa_stages[1](feats, plan)

        perm = np.array([2, 0, 3, 1, 4, 6, 7, 5, 9, 8])  # within each group
        plan_shuffled = SAPlan(group_idx[perm], rel[perm], starts)
        out_shuffled = backbone.sa_stages[1](feats, plan_shuffled)
        np.testing.assert_array_equal(out.data, out_shuffled.data)

    def test_gradcheck_single_stage(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(4, "init"))
        rng = np.random.default_rng(5)
        coords = normalize_unit_sphere(rng.normal(size=(32, 3)))
        plan = backbone.build_plan(coords)
        target = T.tensor(rng.normal(size=(8, 2)), dtype=np.float64)

        # the first stage reads its input, the coordinates, from the plan
        stage_params = {k: v for k, v in params.items() if k.startswith("backbone.sa1")}
        errs = finite_difference_check_params(
            lambda: ((backbone.sa_stages[0](None, plan.sa[0]) - target) ** 2.0).sum(),
            stage_params)
        assert max(errs.values()) <= 1e-4


class TestFeaturePropagation:
    def test_coincident_point_recovers_source_feature(self):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(5, 3))
        feats = rng.normal(size=(5, 4))
        dst = np.vstack([src[2], [10.0, 0, 0]])
        idx, w = interpolation_neighbors(sq_dist_oracle(dst, src))
        mixed = (feats[idx] * w[..., None]).sum(axis=1)
        np.testing.assert_allclose(mixed[0], feats[2], atol=1e-5)

    def test_constant_source_features(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(6, 3))
        dst = rng.normal(size=(9, 3))
        feats = np.full((6, 4), 2.5)
        idx, w = interpolation_neighbors(sq_dist_oracle(dst, src))
        mixed = (feats[idx] * w[..., None]).sum(axis=1)
        np.testing.assert_allclose(mixed, 2.5, atol=1e-6)

    def test_matches_naive_three_nn_oracle(self):
        rng = np.random.default_rng(8)
        src = rng.normal(size=(12, 3))
        dst = rng.normal(size=(20, 3))
        feats = rng.normal(size=(12, 5))
        idx, w = interpolation_neighbors(sq_dist_oracle(dst, src))
        mixed = (feats[idx] * w[..., None]).sum(axis=1)

        for j in range(20):
            d = np.sqrt(np.square(src - dst[j]).sum(axis=1))
            nn = np.argsort(d)[:3]
            wts = 1.0 / (d[nn] + 1e-8)
            wts = wts / wts.sum()
            expected = sum(wts[t] * feats[nn[t]] for t in range(3))
            np.testing.assert_allclose(mixed[j], expected, atol=1e-6)

    def test_unit_mlp_applied_after_skip_concat(self):
        params = {}
        fp = FeaturePropagation(params, "fp", rng_for(9, "init"), src_dim=4,
                                widths=[6, 4, 4], dtype=np.float64)
        rng = np.random.default_rng(10)
        src_feats = T.tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        skip = T.tensor(rng.normal(size=(5, 2)), dtype=np.float64)
        idx, w = interpolation_neighbors(
            sq_dist_oracle(rng.normal(size=(5, 3)), rng.normal(size=(3, 3))))
        out = fp(src_feats, FPPlan(idx, w), skip)
        assert out.shape == (5, 4)


def gather_rows_oracle(x, index):
    """The former gather_rows: its backward is np.add.at into zeros."""
    idx = np.asarray(index)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        T._accumulate(x, gx)

    return T._node(x.data[idx], (x,), backward, "gather_rows")


def interpolate_chain_oracle(src_feats, nn_idx, weights):
    """The former FP interpolation: gather, multiply, reshape, sum over k."""
    n_dst, k = nn_idx.shape
    neighbor = gather_rows_oracle(src_feats, nn_idx.reshape(-1))
    w = T.Tensor(weights.reshape(n_dst * k, 1).astype(src_feats.dtype))
    mixed = (neighbor * w).reshape(n_dst, k, src_feats.shape[1])
    return T.tsum(mixed, axis=1)


def accumulate_oracle(t, grad):
    """The zero-filling first gradient write: zeros, then add in place."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad


def fp_plans():
    """Real FP plans: a random cloud and a duplicate-heavy gridded one."""
    rng = np.random.default_rng(31)
    backbone = PointBackbone({}, "backbone", rng_for(0, "init"), d=4,
                             stage_points=[64, 16, 4], k_max=[8, 8, 8])
    grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), -1).reshape(-1, 3)
    clouds = [normalize_unit_sphere(rng.normal(size=(160, 3))),
              normalize_unit_sphere(np.vstack([grid, grid[:35]]))]
    return [fp for coords in clouds for fp in backbone.build_plan(coords).fp]


class TestInterpolateMatchesChain:
    """interpolate equals the gather -> mul -> reshape -> sum chain byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_on_real_plans(self, dtype, monkeypatch):
        rng = np.random.default_rng(32)
        for plan in fp_plans():
            n_src = int(plan.nn_idx.max()) + 1
            x_data = rng.normal(size=(n_src, 6)).astype(dtype)
            x_data[rng.random(x_data.shape) < 0.2] = -0.0
            g = rng.normal(size=(len(plan.nn_idx), 6)).astype(dtype)
            g[rng.random(g.shape) < 0.2] = -0.0

            def run(interp):
                x = T.tensor(x_data, requires_grad=True, dtype=dtype)
                out = interp(x, plan.nn_idx, plan.weights)
                T.backward((out * T.tensor(g, dtype=dtype)).sum())
                return out.data, x.grad

            got = run(T.interpolate)
            with monkeypatch.context() as m:
                m.setattr(T, "_add", accumulate_oracle)
                want = run(interpolate_chain_oracle)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_model_gradients_equal_the_oracle_run(self, monkeypatch):
        # a first write that keeps the rule's buffer gives the same bytes as
        # zero-filling and adding, in every accumulated model gradient
        toy = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4,
               "cont_width": 16, "k_max": [8, 8, 8]}
        samples = [(synth_cloud(c, a, seed=5 + c, n=toy["n_points"]),
                    synth_fixture(c, a, seed=7 + c, L=toy["seq_len"],
                                  d_h=toy["d_h"]))
                   for c, a in [(0, 1), (2, 0)]]

        def accumulated():
            model = AffordanceModel(RunConfig(model=ModelConfig(**toy)))
            losses = []
            for cloud, hidden in samples:
                total, _, _ = model.loss(model.forward(cloud, hidden), cloud, hidden)
                T.backward(total)
                losses.append(total.data.tobytes())
            return losses, {k: p.grad for k, p in model.params.items()}

        losses, grads = accumulated()
        with monkeypatch.context() as m:
            m.setattr(T, "_add", accumulate_oracle)
            want_losses, want_grads = accumulated()
        assert losses == want_losses
        assert sorted(grads) == sorted(want_grads)
        differ = [k for k in grads if grads[k].tobytes() != want_grads[k].tobytes()]
        assert differ == []

    def test_one_node_replaces_four(self):
        plan = fp_plans()[0]
        x = T.tensor(np.ones((int(plan.nn_idx.max()) + 1, 2)), requires_grad=True)
        new = len(T.Tape.trace(T.interpolate(x, plan.nn_idx, plan.weights)).nodes)
        old = len(T.Tape.trace(
            interpolate_chain_oracle(x, plan.nn_idx, plan.weights)).nodes)
        assert (new, old) == (2, 6)


class TestEncodeDecode:
    def test_default_config_shapes(self):
        params = {}
        backbone = PointBackbone(params, "backbone", rng_for(0, "init"), d=512,
                                 stage_points=[512, 128, 32])
        rng = np.random.default_rng(11)
        coords = normalize_unit_sphere(rng.normal(size=(2048, 3)))
        plan = backbone.build_plan(coords)
        with T.no_grad():
            bottleneck, skips = backbone.encode(plan)
            assert bottleneck.shape == (32, 512)
            full_res, scales = backbone.decode(bottleneck, skips, plan)
        assert full_res.shape == (2048, 512)
        assert scales[0] is bottleneck
        # one scale per sampled level, coarse to fine
        assert [s.shape for s in scales] == \
            [(len(plan.level_coords[3 - i]), 512) for i in range(3)]

    def test_toy_config_bottleneck_shape(self):
        params = {}
        backbone = PointBackbone(params, "backbone", rng_for(1, "init"), d=64,
                                 stage_points=[128, 32, 8])
        rng = np.random.default_rng(12)
        coords = normalize_unit_sphere(rng.normal(size=(512, 3)))
        with T.no_grad():
            bottleneck, _ = backbone.encode(backbone.build_plan(coords))
        assert bottleneck.shape == (8, 64)

    def test_duplicate_point_cloud_stays_finite(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(2, "init"))
        coords = np.zeros((16, 3), dtype=np.float32)
        plan = backbone.build_plan(coords)
        with T.no_grad():
            bottleneck, skips = backbone.encode(plan)
            full_res, _ = backbone.decode(bottleneck, skips, plan)
        assert np.isfinite(full_res.data).all()

    def test_zero_bottleneck_zero_skips_zero_output(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(3, "init"))
        for name, p in params.items():
            if name.startswith("backbone.fp") and name.endswith(".b"):
                p.data[:] = 0.0
        rng = np.random.default_rng(13)
        coords = normalize_unit_sphere(rng.normal(size=(16, 3)))
        plan = backbone.build_plan(coords)
        zero_bottleneck = T.tensor(np.zeros((2, 8)), dtype=np.float64)
        zero_skips = [T.tensor(np.zeros((16, 3)), dtype=np.float64),
                      T.tensor(np.zeros((8, 2)), dtype=np.float64),
                      T.tensor(np.zeros((4, 4)), dtype=np.float64)]
        full_res, _ = backbone.decode(zero_bottleneck, zero_skips, plan)
        np.testing.assert_array_equal(full_res.data, 0.0)

    def test_full_res_row_count_matches_input(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(4, "init"))
        for n in (16, 23, 40):
            rng = np.random.default_rng(n)
            coords = normalize_unit_sphere(rng.normal(size=(n, 3)))
            plan = backbone.build_plan(coords)
            with T.no_grad():
                bottleneck, skips = backbone.encode(plan)
                full_res, _ = backbone.decode(bottleneck, skips, plan)
            assert full_res.shape == (n, 8)

    def test_subset_property(self):
        # every sampled scale's coordinates are rows of the input cloud
        params = {}
        backbone = tiny_backbone(params, rng_for(5, "init"))
        rng = np.random.default_rng(14)
        coords = normalize_unit_sphere(rng.normal(size=(24, 3)))
        plan = backbone.build_plan(coords)
        rows = {tuple(np.round(r, 6)) for r in coords}
        for level in plan.level_coords[1:]:
            for r in level:
                assert tuple(np.round(r, 6)) in rows

    def test_plan_determinism(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(6, "init"))
        rng = np.random.default_rng(15)
        coords = normalize_unit_sphere(rng.normal(size=(32, 3)))
        p1 = backbone.build_plan(coords)
        p2 = backbone.build_plan(coords)
        for a, b in zip(p1.level_coords, p2.level_coords):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(p1.sa, p2.sa):
            np.testing.assert_array_equal(a.group_idx, b.group_idx)
            np.testing.assert_array_equal(a.geometry, b.geometry)
            np.testing.assert_array_equal(a.starts, b.starts)

    def test_gradcheck_encode_decode(self):
        params = {}
        backbone = tiny_backbone(params, rng_for(8, "init"))
        rng = np.random.default_rng(17)
        coords = normalize_unit_sphere(rng.normal(size=(16, 3)))
        plan = backbone.build_plan(coords)
        target = T.tensor(rng.normal(size=(16, 8)), dtype=np.float64)

        def loss():
            bottleneck, skips = backbone.encode(plan)
            full_res, _ = backbone.decode(bottleneck, skips, plan)
            return ((full_res - target) ** 2.0).mean()

        errs = finite_difference_check_params(loss, params)
        assert max(errs.values()) <= 1e-4


class TestPointCloudType:
    def test_rejects_tiny_cloud(self):
        with pytest.raises(ContractError):
            PointCloud(np.zeros((3, 3)))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ContractError):
            PointCloud(np.zeros((4, 3)), labels=np.array([0.0, 0.5, 1.2, 0.1]))

    def test_rejects_nonfinite(self):
        coords = np.zeros((4, 3))
        coords[0, 0] = np.nan
        with pytest.raises(ContractError):
            PointCloud(coords)

    def test_normalization_centers_and_scales(self):
        rng = np.random.default_rng(18)
        coords = rng.normal(size=(50, 3)) * 7.0 + 4.0
        normed = normalize_unit_sphere(coords)
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-5)
        assert np.linalg.norm(normed, axis=1).max() == pytest.approx(1.0, abs=1e-5)
