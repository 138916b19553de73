"""Corruption kinds, magnitudes, determinism, and benchmark structure."""

import shutil

import numpy as np
import pytest

from affground.backbone import PointCloud, normalize_unit_sphere
from affground.corruption import (
    KINDS,
    LEVEL_TABLE,
    LEVELS,
    CorruptionSpec,
    apply_corruption,
    generate_benchmark,
)
from affground.dataio import Dataset, gen_synthetic_dataset, read_dataset
from affground.errors import ContractError

from oracles import tree_digest


def make_cloud(n=256, seed=0, with_labels=True):
    rng = np.random.default_rng(seed)
    coords = normalize_unit_sphere(rng.normal(size=(n, 3)))
    labels = (rng.uniform(size=n) > 0.7).astype(np.float32) if with_labels else None
    return PointCloud(coords=coords, labels=labels, id=f"cloud{seed}")


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            CorruptionSpec(kind="blur", level=0, seed=0)

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            CorruptionSpec(kind="jitter", level=5, seed=0)

    def test_magnitudes_strictly_increase(self):
        for kind, rows in LEVEL_TABLE.items():
            key = [k for k in rows[0] if k not in ("clusters", "clip_sigmas",
                                                   "sigma") or kind == "jitter"][0]
            values = [row[key] for row in rows]
            assert all(a < b for a, b in zip(values, values[1:])), kind


class TestKinds:
    def test_determinism_bitwise(self):
        cloud = make_cloud()
        for kind in KINDS:
            spec = CorruptionSpec(kind=kind, level=2, seed=99)
            a = apply_corruption(cloud, spec)
            b = apply_corruption(cloud, spec)
            assert a.coords.tobytes() == b.coords.tobytes(), kind
            assert a.labels.tobytes() == b.labels.tobytes(), kind

    def test_scale_is_isotropic_within_bounds(self):
        cloud = make_cloud(seed=1)
        out = apply_corruption(cloud, CorruptionSpec("scale", 4, seed=5))
        ratio = out.coords / cloud.coords
        finite = np.isfinite(ratio)
        factors = ratio[finite]
        assert factors.std() < 1e-5
        f = factors.mean()
        assert 1 / 1.5 - 1e-6 <= f <= 1.5 + 1e-6

    def test_jitter_preserves_count_and_sigma(self):
        # empirical sigma within 5% of the table value over 100 clouds
        level = 2
        sigma = LEVEL_TABLE["jitter"][level]["sigma"]
        offsets = []
        for seed in range(100):
            cloud = make_cloud(n=2048, seed=seed, with_labels=False)
            out = apply_corruption(cloud, CorruptionSpec("jitter", level, seed=7))
            assert out.n_points == cloud.n_points
            offsets.append(out.coords - cloud.coords)
        measured = np.concatenate(offsets).std()
        assert abs(measured - sigma) / sigma < 0.05

    def test_jitter_clipped_at_three_sigma(self):
        level = 4
        sigma = LEVEL_TABLE["jitter"][level]["sigma"]
        cloud = make_cloud(n=2048, seed=3, with_labels=False)
        out = apply_corruption(cloud, CorruptionSpec("jitter", level, seed=11))
        assert np.abs(out.coords - cloud.coords).max() <= 3 * sigma + 1e-6

    def test_rotate_preserves_pairwise_distances(self):
        cloud = make_cloud(n=64, seed=4)
        out = apply_corruption(cloud, CorruptionSpec("rotate", 3, seed=13))
        assert out.n_points == cloud.n_points

        def pdist(x):
            return np.linalg.norm(x[:, None] - x[None, :], axis=2)

        np.testing.assert_allclose(pdist(out.coords), pdist(cloud.coords),
                                   atol=1e-6)

    def test_rotate_angle_bounded(self):
        for level in LEVELS:
            cloud = make_cloud(n=32, seed=5)
            out = apply_corruption(cloud, CorruptionSpec("rotate", level, seed=17))
            # rotation moves any unit vector by at most 2 sin(angle/2)
            max_angle = np.deg2rad(LEVEL_TABLE["rotate"][level]["max_angle_deg"])
            displacement = np.linalg.norm(out.coords - cloud.coords, axis=1)
            radius = np.linalg.norm(cloud.coords, axis=1)
            bound = 2 * np.sin(max_angle / 2) * radius + 1e-6
            assert (displacement <= bound).all()

    def test_dropout_global_counts_exact(self):
        cloud = make_cloud(n=2048, seed=6)
        for level, expected in [(0, 2048 - 205), (4, 1024)]:
            out = apply_corruption(cloud,
                                   CorruptionSpec("dropout_global", level, seed=19))
            assert out.n_points == expected
            assert out.labels.shape[0] == expected

    def test_dropout_local_removes_clusters(self):
        cloud = make_cloud(n=512, seed=7)
        level = 3
        out = apply_corruption(cloud,
                               CorruptionSpec("dropout_local", level, seed=23))
        entry = LEVEL_TABLE["dropout_local"][level]
        per = int(entry["drop_ratio"] * 512 / entry["clusters"])
        removed = 512 - out.n_points
        assert 0 < removed <= entry["clusters"] * per
        assert out.labels.shape[0] == out.n_points

    def test_add_global_appends_zero_labeled_points(self):
        cloud = make_cloud(n=500, seed=8)
        level = 2
        out = apply_corruption(cloud, CorruptionSpec("add_global", level, seed=29))
        added = out.n_points - 500
        assert added == int(0.3 * 500)
        np.testing.assert_array_equal(out.labels[500:], 0.0)
        np.testing.assert_array_equal(out.labels[:500], cloud.labels)
        assert np.linalg.norm(out.coords[500:], axis=1).max() <= 1.0 + 1e-6

    def test_add_local_clusters_near_seeds(self):
        cloud = make_cloud(n=400, seed=9)
        level = 1
        out = apply_corruption(cloud, CorruptionSpec("add_local", level, seed=31))
        entry = LEVEL_TABLE["add_local"][level]
        added = out.n_points - 400
        assert added == entry["clusters"] * int(entry["add_ratio"] * 400
                                                / entry["clusters"])
        # every added point sits near some original point
        d = np.linalg.norm(out.coords[400:][:, None] - cloud.coords[None],
                           axis=2).min(axis=1)
        assert d.max() <= 6 * entry["sigma"]

    def test_labels_length_always_matches(self):
        cloud = make_cloud(n=300, seed=10)
        for kind in KINDS:
            out = apply_corruption(cloud, CorruptionSpec(kind, 4, seed=37))
            assert out.labels.shape[0] == out.n_points, kind

    def test_extreme_dropout_on_tiny_cloud_rejected(self):
        cloud = make_cloud(n=6, seed=11)
        with pytest.raises(ContractError):
            apply_corruption(cloud, CorruptionSpec("dropout_global", 4, seed=41))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("src")
    return gen_synthetic_dataset(root, 2, 2, 1, 128, seed=3, d_h=32, seq_len=4)


class TestBenchmarkTree:
    def test_structure_and_counts(self, dataset, tmp_path):
        out = generate_benchmark(dataset, tmp_path / "bench", seed=77,
                                 kinds=("jitter", "scale"), levels=(0, 1))
        for kind in ("jitter", "scale"):
            for level in (0, 1):
                cell = out / kind / f"level_{level}"
                assert (cell / "manifest.jsonl").exists()
                assert (cell / "cell.json").exists()
                assert len(list((cell / "clouds").glob("*.htns"))) == 4
        assert (out / "benchmark.json").exists()

    def test_cell_manifest_loads_as_dataset(self, dataset, tmp_path):
        out = generate_benchmark(dataset, tmp_path / "bench", seed=78,
                                 kinds=("dropout_global",), levels=(4,))
        cell = read_dataset(out / "dropout_global" / "level_4" / "manifest.jsonl")
        assert len(cell.records) == 4
        cloud = cell.load_cloud(cell.records[0])
        assert cloud.n_points == 64  # half of 128 dropped at level 4
        hidden = cell.load_hidden(cell.records[0])
        assert hidden.hidden_dim == 32

    def test_regeneration_hash_equal(self, dataset, tmp_path):
        a = generate_benchmark(dataset, tmp_path / "a", seed=79,
                               kinds=("jitter", "add_local"), levels=(0, 2))
        b = generate_benchmark(dataset, tmp_path / "b", seed=79,
                               kinds=("jitter", "add_local"), levels=(0, 2))
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_different_tree(self, dataset, tmp_path):
        a = generate_benchmark(dataset, tmp_path / "a", seed=1,
                               kinds=("jitter",), levels=(2,))
        b = generate_benchmark(dataset, tmp_path / "b", seed=2,
                               kinds=("jitter",), levels=(2,))
        assert tree_digest(a) != tree_digest(b)

    def test_each_source_cloud_is_read_once_per_tree(self, dataset, tmp_path,
                                                     monkeypatch):
        read = []
        real_load = Dataset.load_cloud

        def load_cloud(self, record):
            read.append(record.id)
            return real_load(self, record)

        monkeypatch.setattr(Dataset, "load_cloud", load_cloud)
        generate_benchmark(dataset, tmp_path / "bench", seed=80)
        ids = [record.id for record in read_dataset(dataset).records]
        assert read == ids   # 4 reads for 35 cells, not 140

    def test_tree_equals_the_cells_generated_one_at_a_time(self, dataset,
                                                           tmp_path):
        tree = generate_benchmark(dataset, tmp_path / "tree", seed=81)
        # the reference reads the source clouds again for every cell
        ref = tmp_path / "ref"
        for kind in KINDS:
            for level in LEVELS:
                alone = generate_benchmark(dataset, tmp_path / "alone", seed=81,
                                           kinds=(kind,), levels=(level,))
                cell = f"{kind}/level_{level}"
                shutil.copytree(alone / cell, ref / cell)
                shutil.rmtree(alone)
        shutil.copyfile(tree / "benchmark.json", ref / "benchmark.json")
        assert tree_digest(tree) == tree_digest(ref)
