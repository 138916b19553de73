"""Evaluation metrics for per-point affordance maps.

Four per-sample scores: threshold-averaged overlap (aIOU), ranking AUC,
distribution similarity (SIM), and mean absolute error (MAE), plus a PCA
projection helper for feature visualization. Ground truth is binarized
at y > 0 for overlap/ranking; SIM and MAE keep the soft values.

Degenerate samples (all-zero ground truth, single-class ground truth,
zero-sum inputs for SIM) are skipped with a recorded reason rather than
patched with epsilons, and skip counts surface in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# documented constants: 19 thresholds, strict '>' prediction binarization,
# ground truth binarized at y > 0
IOU_THRESHOLDS = tuple(round(0.05 * i, 2) for i in range(1, 20))

METRIC_CONSTANTS = {
    "iou_thresholds": list(IOU_THRESHOLDS),
    "prediction_binarization": "p > t (strict)",
    "ground_truth_binarization": "y > 0",
    "auc_ties": "half credit",
    "sim_normalization": "unit sum, no epsilon",
}


class MetricSkip(Exception):
    """Raised when a sample cannot produce a well-defined metric value."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _check_pair(p, y):
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ContractError(f"length mismatch: {p.shape[0]} vs {y.shape[0]}")
    return p, y


def aiou(p, y) -> float:
    """IOU between binarized prediction and ground truth, averaged over
    the documented threshold set."""
    p, y = _check_pair(p, y)
    gt = y > 0
    if not gt.any():
        raise MetricSkip("all-zero ground truth")
    total = 0.0
    for t in IOU_THRESHOLDS:
        pred = p > t
        tp = np.logical_and(pred, gt).sum()
        union = np.logical_or(pred, gt).sum()
        total += tp / union if union else 0.0
    return total / len(IOU_THRESHOLDS)


def auc(p, y) -> float:
    """Ranking AUC of scores against binarized ground truth.

    Computed from rank sums with average ranks on ties, which equals
    all-pairs counting with half credit for ties and the trapezoidal
    area under the ROC curve.
    """
    p, y = _check_pair(p, y)
    gt = y > 0
    n_pos = int(gt.sum())
    n_neg = gt.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricSkip("single-class ground truth")
    order = np.argsort(p, kind="mergesort")
    sorted_p = p[order]
    # runs of equal scores: [starts[r], ends[r]) in sorted order
    starts = np.flatnonzero(np.r_[True, sorted_p[1:] != sorted_p[:-1]])
    ends = np.r_[starts[1:], p.size]
    ranks = np.empty(p.size, dtype=np.float64)
    # average 1-based rank of a run is the midpoint of its first and last
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    pos_rank_sum = ranks[gt].sum()
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def sim(p, y) -> float:
    """Sum of pointwise minima after normalizing both maps to unit sum."""
    p, y = _check_pair(p, y)
    if p.min() < 0 or y.min() < 0:
        raise ContractError("similarity expects non-negative maps")
    sp, sy = p.sum(), y.sum()
    if sp <= 0 or sy <= 0:
        raise MetricSkip("zero-sum map")
    return float(np.minimum(p / sp, y / sy).sum())


def mae(p, y) -> float:
    """Mean absolute deviation on the raw (un-binarized) scores."""
    p, y = _check_pair(p, y)
    return float(np.abs(p - y).mean())


@dataclass
class PCAResult:
    projection: np.ndarray
    rank: int
    padded: bool
    explained: np.ndarray


def pca_project(features: np.ndarray, k: int = 3) -> PCAResult:
    """Project rows onto the top-k principal directions.

    Columns are centered first. The sign of each component is fixed by
    making its largest-magnitude loading positive. Rank-deficient input
    yields zero-padded trailing columns with ``padded=True``.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got {x.shape}")
    n = x.shape[0]
    if n <= k:
        raise ContractError(f"need more than {k} rows, got {n}")
    centered = x - x.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = s[0] * max(x.shape) * np.finfo(np.float64).eps if s.size else 0.0
    rank = int((s > tol).sum())
    take = min(k, rank)
    comps = vt[:take]
    for i in range(take):
        pivot = np.argmax(np.abs(comps[i]))
        if comps[i, pivot] < 0:
            comps[i] = -comps[i]
    proj = centered @ comps.T
    if take < k:
        proj = np.hstack([proj, np.zeros((n, k - take))])
    var = s[:take] ** 2 / max(1, n - 1)
    return PCAResult(projection=proj, rank=rank, padded=take < k, explained=var)


# -- aggregation ----------------------------------------------------------

METRIC_NAMES = ("aiou", "auc", "sim", "mae")


def evaluate_sample(pred, gt) -> dict:
    """All four metrics for one sample; skipped metrics map to reasons."""
    record = {"skipped": {}}
    for name, fn in (("aiou", aiou), ("auc", auc), ("sim", sim), ("mae", mae)):
        try:
            record[name] = fn(pred, gt)
        except MetricSkip as exc:
            record[name] = None
            record["skipped"][name] = exc.reason
    return record


@dataclass
class MetricReport:
    """Per-sample values with per-affordance and overall means."""

    samples: list = field(default_factory=list)

    def add(self, sample_id: str, affordance: str, record: dict):
        entry = {"id": sample_id, "affordance": affordance}
        entry.update(record)
        self.samples.append(entry)

    def _mean_over(self, entries, name):
        values = [e[name] for e in entries if e.get(name) is not None]
        return (float(np.mean(values)), len(values)) if values else (None, 0)

    def summary(self) -> dict:
        by_aff = {}
        for e in self.samples:
            by_aff.setdefault(e["affordance"], []).append(e)
        per_affordance = {}
        for aff in sorted(by_aff):
            entries = by_aff[aff]
            stats = {"count": len(entries)}
            for name in METRIC_NAMES:
                mean, n = self._mean_over(entries, name)
                stats[name] = mean
                stats[f"{name}_n"] = n
            per_affordance[aff] = stats
        overall = {"count": len(self.samples)}
        skip_counts = {}
        for name in METRIC_NAMES:
            mean, n = self._mean_over(self.samples, name)
            overall[name] = mean
            overall[f"{name}_n"] = n
            skipped = [e for e in self.samples if e.get(name) is None]
            if skipped:
                reasons = {}
                for e in skipped:
                    reason = e["skipped"].get(name, "unknown")
                    reasons[reason] = reasons.get(reason, 0) + 1
                skip_counts[name] = reasons
        return {
            "constants": METRIC_CONSTANTS,
            "per_affordance": per_affordance,
            "overall": overall,
            "skipped": skip_counts,
        }

    def to_json(self) -> str:
        payload = self.summary()
        payload["samples"] = self.samples
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_table(self) -> str:
        """Aligned text table grouped by affordance type."""
        summary = self.summary()
        lines = ["# metric constants: " + json.dumps(METRIC_CONSTANTS, sort_keys=True)]
        header = f"{'affordance':<16}{'n':>5}  {'aIOU':>7}  {'AUC':>7}  " \
                 f"{'SIM':>7}  {'MAE':>7}"
        lines.append(header)
        lines.append("-" * len(header))

        def fmt(v):
            return f"{v:7.4f}" if v is not None else "   skip"

        rows = list(summary["per_affordance"].items())
        rows.append(("overall", summary["overall"]))
        for name, stats in rows:
            lines.append(
                f"{name:<16}{stats['count']:>5}  {fmt(stats['aiou'])}  "
                f"{fmt(stats['auc'])}  {fmt(stats['sim'])}  {fmt(stats['mae'])}")
        if summary["skipped"]:
            lines.append("skipped: " + json.dumps(summary["skipped"], sort_keys=True))
        return "\n".join(lines)
