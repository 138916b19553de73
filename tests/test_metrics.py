"""Metric oracles: threshold enumeration, pair counting, formula checks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affground.errors import ContractError
from affground.metrics import (
    IOU_THRESHOLDS,
    MetricReport,
    MetricSkip,
    aiou,
    auc,
    evaluate_sample,
    mae,
    pca_project,
    sim,
)


def aiou_oracle(p, y):
    """Direct 19-threshold enumeration."""
    gt = np.asarray(y) > 0
    values = []
    for t in IOU_THRESHOLDS:
        pred = np.asarray(p) > t
        tp = int((pred & gt).sum())
        fp = int((pred & ~gt).sum())
        fn = int((~pred & gt).sum())
        values.append(tp / (tp + fp + fn) if (tp + fp + fn) else 0.0)
    return float(np.mean(values))


def auc_pair_oracle(p, y):
    """All-pairs counting with half credit for ties."""
    p = np.asarray(p, dtype=np.float64)
    gt = np.asarray(y) > 0
    pos = p[gt]
    neg = p[~gt]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_loop_oracle(p, y):
    """Rank sums with average ranks assigned one tie run at a time."""
    p = np.asarray(p, dtype=np.float64)
    gt = np.asarray(y) > 0
    n_pos = int(gt.sum())
    n_neg = gt.size - n_pos
    order = np.argsort(p, kind="mergesort")
    ranks = np.empty(p.size, dtype=np.float64)
    sorted_p = p[order]
    i = 0
    while i < p.size:
        j = i
        while j + 1 < p.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos_rank_sum = ranks[gt].sum()
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAiou:
    def test_constant_across_thresholds(self):
        assert aiou([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.5)

    def test_hand_enumerated_example(self):
        # 3 thresholds at IOU 0.5, 8 at 1.0, 8 at 0.0 -> 9.5/19
        value = aiou([0.6, 0.2, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert value == pytest.approx(9.5 / 19.0, abs=1e-12)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_binary_identity(self):
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        assert aiou(y, y) == pytest.approx(1.0)

    def test_all_zero_gt_skipped(self):
        with pytest.raises(MetricSkip, match="all-zero"):
            aiou([0.5, 0.5], [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 64))
        p = rng.uniform(size=n)
        y = (rng.uniform(size=n) > 0.5).astype(float)
        if not (y > 0).any():
            y[0] = 1.0
        assert aiou(p, y) == pytest.approx(aiou_oracle(p, y), abs=1e-12)

    def test_perfect_iff_thresholded_match(self):
        y = np.array([1.0, 1.0, 0.0])
        assert aiou([0.96, 0.97, 0.01], y) == pytest.approx(1.0)
        assert aiou([0.9, 0.5, 0.01], y) < 1.0  # 0.5 drops out above t=0.5


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert auc([0.9, 0.1, 0.5], [0, 1, 0]) == pytest.approx(0.0)

    def test_constant_prediction_is_half(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == pytest.approx(0.5)

    def test_single_class_skipped(self):
        with pytest.raises(MetricSkip, match="single-class"):
            auc([0.2, 0.8], [1.0, 1.0])

    def test_matches_pair_oracle_200_trials(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            p = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
            y = (rng.uniform(size=n) > rng.uniform(0.2, 0.8)).astype(float)
            if not (y > 0).any():
                y[int(rng.integers(n))] = 1.0
            if (y > 0).all():
                y[int(rng.integers(n))] = 0.0
            assert auc(p, y) == pytest.approx(auc_pair_oracle(p, y), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0]),
                              st.booleans()), min_size=2, max_size=80))
    def test_tied_scores_match_loop_oracle_bitwise(self, pairs):
        p = np.array([score for score, _ in pairs])
        y = np.array([float(pos) for _, pos in pairs])
        assume((y > 0).any() and not (y > 0).all())
        assert auc(p, y) == auc_loop_oracle(p, y)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        p = rng.uniform(size=n)
        y = (rng.uniform(size=n) > 0.5).astype(float)
        if not (y > 0).any() or (y > 0).all():
            return
        assert auc(p ** 3, y) == pytest.approx(auc(p, y), abs=1e-12)


class TestSim:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.5, 0.8])
        assert sim(p, 2.0 * p) == pytest.approx(1.0)

    def test_hand_case(self):
        assert sim([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_disjoint_support(self):
        assert sim([2.0, 0.0, 0.0], [0.0, 0.0, 3.0]) == pytest.approx(0.0)

    def test_zero_sum_skipped(self):
        with pytest.raises(MetricSkip, match="zero-sum"):
            sim([0.0, 0.0], [1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=20)
        y = rng.uniform(size=20)
        assert sim(7.3 * p, y) == pytest.approx(sim(p, y), abs=1e-12)
        assert sim(p, 0.02 * y) == pytest.approx(sim(p, y), abs=1e-12)


class TestMae:
    def test_zero_for_identical(self):
        p = np.random.default_rng(6).uniform(size=10)
        assert mae(p, p) == 0.0

    def test_hand_case(self):
        assert mae([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(size=33)
        y = rng.uniform(size=33)
        naive = sum(abs(a - b) for a, b in zip(p, y)) / 33
        assert mae(p, y) == pytest.approx(naive, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(size=15)
        y = rng.uniform(size=15)
        assert mae(p, y) == mae(y, p)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            mae([0.1], [0.1, 0.2])


class TestPcaProject:
    def test_line_in_high_dim(self):
        rng = np.random.default_rng(9)
        direction = rng.normal(size=8)
        t = rng.normal(size=50)
        x = np.outer(t, direction)
        result = pca_project(x, k=3)
        total = result.projection.var(axis=0).sum()
        assert result.projection[:, 0].var() / total >= 0.999

    def test_reconstructs_low_dim_data(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 3))
        result = pca_project(x, k=3)
        centered = x - x.mean(axis=0)
        # projection onto a full orthonormal basis preserves geometry
        gram_in = centered @ centered.T
        gram_out = result.projection @ result.projection.T
        np.testing.assert_allclose(gram_in, gram_out, atol=1e-8)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 10)) * np.linspace(3, 0.5, 10)
        result = pca_project(x, k=3)
        variances = result.projection.var(axis=0)
        assert variances[0] >= variances[1] >= variances[2]

    def test_rank_deficient_padded_and_flagged(self):
        x = np.zeros((10, 4))
        x[:, 0] = np.arange(10)
        result = pca_project(x, k=3)
        assert result.padded and result.rank == 1
        np.testing.assert_array_equal(result.projection[:, 1:], 0.0)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 5))
        a = pca_project(x, k=2).projection
        b = pca_project(x.copy(), k=2).projection
        np.testing.assert_array_equal(a, b)


class TestReport:
    def _build(self):
        report = MetricReport()
        rng = np.random.default_rng(13)
        for i in range(6):
            aff = "grasp" if i % 2 == 0 else "contain"
            y = (rng.uniform(size=16) > 0.5).astype(float)
            p = np.clip(y * 0.8 + rng.uniform(size=16) * 0.2, 0, 1)
            report.add(f"s{i}", aff, evaluate_sample(p, y))
        report.add("degenerate", "grasp", evaluate_sample(
            np.full(16, 0.5), np.zeros(16)))
        return report

    def test_summary_structure(self):
        summary = self._build().summary()
        assert set(summary["per_affordance"]) == {"grasp", "contain"}
        assert summary["overall"]["count"] == 7
        assert summary["skipped"]["aiou"] == {"all-zero ground truth": 1}
        assert summary["overall"]["aiou_n"] == 6  # degenerate excluded

    def test_json_round_trip(self):
        import json
        payload = json.loads(self._build().to_json())
        assert payload["constants"]["ground_truth_binarization"] == "y > 0"
        assert len(payload["samples"]) == 7

    def test_table_contains_groups_and_constants(self):
        table = self._build().to_table()
        assert "grasp" in table and "contain" in table and "overall" in table
        assert "iou_thresholds" in table
