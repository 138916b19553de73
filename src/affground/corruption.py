"""Point-cloud corruption benchmark: seven kinds, five severity levels.

Each corruption is a pure function of (cloud, kind, level, seed); all
randomness comes from a counter-based stream keyed by the sample id, so
regeneration is bitwise identical regardless of iteration order or
parallelism. Magnitudes per level are fixed in :data:`LEVEL_TABLE` and
recorded in every benchmark manifest. Labels follow their points:
dropped points lose their labels, appended points get label 0. Clouds
are expected unit-sphere normalized on input and are *not* renormalized
afterwards, so the applied magnitude stays meaningful.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .backbone import PointCloud
from .dataio import Dataset, _canon_json, read_dataset, write_manifest, write_tensor
from .errors import ContractError, DataFormatError
from .rng import rng_for

KINDS = ("scale", "jitter", "rotate", "dropout_local", "dropout_global",
         "add_local", "add_global")
LEVELS = (0, 1, 2, 3, 4)


def level_table() -> dict:
    """Per-kind, per-level magnitude constants (strictly increasing)."""
    table = {}
    for level in LEVELS:
        ratio = 0.1 * (level + 1)
        table.setdefault("scale", []).append({"max_factor": 1.0 + ratio})
        table.setdefault("jitter", []).append({"sigma": 0.01 * (level + 1),
                                               "clip_sigmas": 3.0})
        table.setdefault("rotate", []).append(
            {"max_angle_deg": 7.5 * (level + 1)})
        table.setdefault("dropout_global", []).append({"drop_ratio": ratio})
        table.setdefault("dropout_local", []).append(
            {"drop_ratio": ratio, "clusters": level + 1})
        table.setdefault("add_global", []).append({"add_ratio": ratio})
        table.setdefault("add_local", []).append(
            {"add_ratio": ratio, "clusters": level + 1, "sigma": 0.05})
    return table


LEVEL_TABLE = level_table()


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    level: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown corruption kind {self.kind!r}")
        if self.level not in LEVELS:
            raise ContractError(f"level must be 0..4, got {self.level}")


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def _uniform_ball(rng, n: int) -> np.ndarray:
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)
    return direction * radius


def apply_corruption(cloud: PointCloud, spec: CorruptionSpec) -> PointCloud:
    """Return a corrupted copy of the cloud; the input is left untouched."""
    entry = LEVEL_TABLE[spec.kind][spec.level]
    rng = rng_for(spec.seed, "corrupt", cloud.id, spec.kind, spec.level)
    coords = cloud.coords.astype(np.float64)
    labels = None if cloud.labels is None else cloud.labels.copy()
    n = coords.shape[0]

    if spec.kind == "scale":
        hi = entry["max_factor"]
        factor = rng.uniform(1.0 / hi, hi)
        coords = coords * factor
    elif spec.kind == "jitter":
        sigma = entry["sigma"]
        bound = entry["clip_sigmas"] * sigma
        offsets = np.clip(rng.normal(scale=sigma, size=coords.shape),
                          -bound, bound)
        coords = coords + offsets
    elif spec.kind == "rotate":
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.deg2rad(entry["max_angle_deg"]))
        coords = coords @ _rotation_matrix(axis, angle).T
    elif spec.kind == "dropout_global":
        n_drop = int(round(entry["drop_ratio"] * n))
        drop = rng.choice(n, size=n_drop, replace=False)
        keep = np.setdiff1d(np.arange(n), drop)
        coords = coords[keep]
        labels = None if labels is None else labels[keep]
    elif spec.kind == "dropout_local":
        clusters = entry["clusters"]
        per_cluster = int(entry["drop_ratio"] * n / clusters)
        keep_mask = np.ones(n, dtype=bool)
        seeds = rng.choice(n, size=clusters, replace=False)
        for s in seeds:
            alive = np.flatnonzero(keep_mask)
            if alive.size == 0:
                break
            d = np.square(coords[alive] - coords[s]).sum(axis=1)
            nearest = alive[np.argsort(d, kind="stable")[:per_cluster]]
            keep_mask[nearest] = False
        coords = coords[keep_mask]
        labels = None if labels is None else labels[keep_mask]
    elif spec.kind == "add_global":
        n_add = int(entry["add_ratio"] * n)
        coords = np.vstack([coords, _uniform_ball(rng, n_add)])
        if labels is not None:
            labels = np.concatenate([labels, np.zeros(n_add, dtype=labels.dtype)])
    elif spec.kind == "add_local":
        clusters = entry["clusters"]
        per_cluster = int(entry["add_ratio"] * n / clusters)
        seeds = rng.choice(n, size=clusters, replace=False)
        blobs = [coords[s] + rng.normal(scale=entry["sigma"],
                                        size=(per_cluster, 3))
                 for s in seeds]
        coords = np.vstack([coords] + blobs)
        if labels is not None:
            added = clusters * per_cluster
            labels = np.concatenate([labels, np.zeros(added, dtype=labels.dtype)])

    if coords.shape[0] < 4:
        raise ContractError(
            f"{spec.kind} level {spec.level} left {coords.shape[0]} points")
    return PointCloud(coords=coords.astype(np.float32), labels=labels,
                      id=cloud.id)


def generate_benchmark(manifest_path, out_dir, seed: int, kinds=KINDS,
                       levels=LEVELS) -> Path:
    """One corrupted copy of every sample per (kind, level) cell.

    Layout: <out>/<kind>/level_<l>/ with clouds/, labels/, hidden/ (copies
    of the source fixtures, so a cell stays a self-contained snapshot when
    ``gen-data`` later rewrites the source tree), a dataset-style manifest,
    and a cell.json recording the spec, seed, and magnitude constants.
    Each source cloud is read once, before any cell is written.
    """
    _check_selection("kind", kinds, KINDS)
    _check_selection("level", levels, LEVELS)
    dataset = read_dataset(manifest_path)
    clouds = [_source_cloud(dataset, record) for record in dataset.records]
    out = Path(out_dir)
    for kind in kinds:
        for level in levels:
            _generate_cell(dataset, clouds, out, kind, level, seed)
    (out / "benchmark.json").write_text(_canon_json({
        "seed": seed,
        "kinds": list(kinds),
        "levels": list(levels),
        "level_table": LEVEL_TABLE,
        "source_manifest": str(Path(manifest_path).resolve()),
        "samples_per_cell": len(dataset.records),
    }))
    return out


def _check_selection(what: str, chosen, allowed):
    """Refuse an empty, repeated or unknown list of corruption kinds or levels."""
    if not chosen:
        raise ContractError(f"no corruption {what} selected")
    for item in chosen:
        if item not in allowed:
            raise ContractError(f"unknown corruption {what} {item!r}")
    if len(set(chosen)) != len(chosen):
        raise ContractError(f"corruption {what}s repeat: {list(chosen)}")


def _source_cloud(dataset: Dataset, record):
    try:
        return dataset.load_cloud(record)
    except OSError as exc:
        raise DataFormatError(f"source sample {record.id}: {exc}") from exc


def _generate_cell(dataset: Dataset, clouds: list, out: Path, kind: str,
                   level: int, seed: int):
    """One cell from the source records and their clouds, in record order."""
    cell = out / kind / f"level_{level}"
    for sub in ("clouds", "labels", "hidden"):
        (cell / sub).mkdir(parents=True, exist_ok=True)
    spec = CorruptionSpec(kind=kind, level=level, seed=seed)
    records = []
    for record, cloud in zip(dataset.records, clouds):
        hidden = f"hidden/{record.id}.htns"
        try:
            # the row's cont_index is copied, so the fixture it indexes is too
            shutil.copyfile(dataset.root / record.hidden, cell / hidden)
        except OSError as exc:
            raise DataFormatError(f"source sample {record.id}: {exc}") from exc
        corrupted = apply_corruption(cloud, spec)
        write_tensor(cell / "clouds" / f"{record.id}.htns", corrupted.coords)
        write_tensor(cell / "labels" / f"{record.id}.htns", corrupted.labels)
        records.append(replace(
            record, points=f"clouds/{record.id}.htns",
            labels=f"labels/{record.id}.htns", hidden=hidden))
    write_manifest(cell / "manifest.jsonl", records)
    vocab = dict(dataset.vocab)
    vocab["corruption"] = {"kind": kind, "level": level, "seed": seed}
    (cell / "vocab.json").write_text(_canon_json(vocab))
    (cell / "cell.json").write_text(_canon_json({
        "kind": kind, "level": level, "seed": seed,
        "magnitudes": LEVEL_TABLE[kind][level],
        "samples": len(records),
    }))
