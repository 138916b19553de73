"""File formats, synthetic dataset generation, and checkpoints.

Tensors persist in a little-endian container ("HTNS"): 4-byte magic,
version byte, dtype byte (0=float32, 1=float64), rank byte, one zero pad
byte, rank u64 extents, then the row-major payload.

A dataset is a directory holding:

- ``manifest.jsonl``, one JSON row per sample. The row is the only record
  of the sample's metadata: id, class and affordance names, affordance
  id, contact-token index (``cont_index``), prompt, and the relative
  paths of its three tensor files;
- ``vocab.json``: class and affordance vocabularies and generation sizes;
- ``clouds/``, ``labels/`` and ``hidden/``: one plain tensor file per
  sample for the (N, 3) points, the N labels and the (L, d_h) hidden
  states. Trees written by older versions also hold a ``hidden/*.json``
  metadata sidecar per fixture; it is never read. Where an older version
  regenerated the fixtures at another length, the rows still hold the old
  ``cont_index``; running ``gen-fixtures`` again rewrites them.

A checkpoint is a directory holding ``manifest.json`` and three groups of
tensor files, ``params/``, ``exp_avg/`` and ``exp_avg_sq/`` (the AdamW
moments), one file per parameter name. The manifest carries the config,
step counter and vocabulary, maps each parameter name to its file under
``params``, and under ``optimizer`` holds the optimizer step and the
file maps of both moments. Every group is written, read and restored by
one code path each.

Everything written here is byte-reproducible: fixed key order in JSON,
explicit little-endian scalars, and counter-based generators.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import PointCloud, normalize_unit_sphere
from .errors import AffgroundError, CheckpointError, ContractError, DataFormatError
from .intention import HiddenStates, synth_fixture
from .rng import derive_seed, rng_for

MAGIC = b"HTNS"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
MAX_ELEMENTS = 1 << 40


def write_tensor(path, array: np.ndarray):
    """Write a float32/float64 array; the payload is little-endian row-major."""
    arr = np.asarray(array)  # ascontiguousarray would promote rank-0 to rank-1
    base = np.dtype(arr.dtype).newbyteorder("=")
    if base not in _CODES_BY_KIND:
        raise DataFormatError(f"unsupported dtype {arr.dtype}")
    code = _CODES_BY_KIND[base]
    header = MAGIC + struct.pack("<BBBB", VERSION, code, arr.ndim, 0)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C")
    Path(path).write_bytes(header + dims + payload)


def read_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise DataFormatError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, code, rank, pad = struct.unpack("<BBBB", raw[4:8])
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise DataFormatError(f"{path}: unknown dtype code {code}")
    if pad != 0:
        raise DataFormatError(f"{path}: nonzero pad byte")
    offset = 8 + 8 * rank
    if len(raw) < offset:
        raise DataFormatError(f"{path}: truncated dimension block")
    dims = struct.unpack(f"<{rank}Q", raw[8:offset]) if rank else ()
    count = 1
    for d in dims:
        count *= d
    if count > MAX_ELEMENTS:
        raise DataFormatError(f"{path}: dimension overflow {dims}")
    dtype = _DTYPE_CODES[code]
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(raw) - offset} bytes, expected "
            f"{count * dtype.itemsize}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return data.reshape(dims).astype(dtype.newbyteorder("="), copy=True)


def _canon_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- dataset manifests -----------------------------------------------------


@dataclass
class SampleRecord:
    id: str
    class_name: str
    affordance_name: str
    affordance_id: int
    points: str
    labels: str
    hidden: str
    cont_index: int
    prompt: str


@dataclass
class Dataset:
    root: Path
    vocab: dict
    records: list = field(default_factory=list)

    def load_cloud(self, record: SampleRecord) -> PointCloud:
        coords = read_tensor(self.root / record.points)
        labels = read_tensor(self.root / record.labels)
        return PointCloud(coords=coords, labels=labels, id=record.id)

    def load_hidden(self, record: SampleRecord) -> HiddenStates:
        return HiddenStates(states=read_tensor(self.root / record.hidden),
                            cont_index=record.cont_index,
                            affordance_id=record.affordance_id)


def write_manifest(path, records):
    lines = []
    for r in records:
        lines.append(json.dumps({
            "id": r.id, "class_name": r.class_name,
            "affordance_name": r.affordance_name,
            "affordance_id": r.affordance_id, "points": r.points,
            "labels": r.labels, "hidden": r.hidden,
            "cont_index": r.cont_index, "prompt": r.prompt,
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset(manifest_path) -> Dataset:
    """Parse and validate a manifest; referenced files must exist."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    vocab_path = root / "vocab.json"
    if not vocab_path.exists():
        raise DataFormatError(f"{vocab_path} is missing")
    try:
        vocab = json.loads(vocab_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{vocab_path}: bad vocabulary: {exc}") from exc
    if not isinstance(vocab, dict) or "affordances" not in vocab \
            or "classes" not in vocab:
        raise DataFormatError(f"{vocab_path}: missing vocabulary fields")
    records = []
    for lineno, line in enumerate(manifest_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            record = SampleRecord(**raw)
        except (json.JSONDecodeError, TypeError) as exc:
            raise DataFormatError(
                f"{manifest_path}:{lineno}: bad manifest line: {exc}") from exc
        for key in ("points", "labels", "hidden"):
            rel = getattr(record, key)
            if not isinstance(rel, str):
                raise DataFormatError(
                    f"{manifest_path}:{lineno}: {key} is not a path string: "
                    f"{rel!r}")
            ref = root / rel
            if not ref.exists():
                raise DataFormatError(
                    f"{manifest_path}:{lineno}: missing file {ref}")
        for key in ("affordance_id", "cont_index"):
            value = getattr(record, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataFormatError(
                    f"{manifest_path}:{lineno}: {key} is not an integer: "
                    f"{value!r}")
        if not 0 <= record.affordance_id < len(vocab["affordances"]):
            raise DataFormatError(
                f"{manifest_path}:{lineno}: affordance_id "
                f"{record.affordance_id} outside vocabulary")
        records.append(record)
    return Dataset(root=root, vocab=vocab, records=records)


# -- synthetic shapes ------------------------------------------------------

CLASS_NAMES = ("mug", "pan", "bottle", "stool")
AFFORDANCE_NAMES = ("grasp", "contain", "support", "lift", "open", "press")
PROMPT_TEMPLATE = ("Locate the points on the {class_name} that support the "
                   "action '{affordance_name}'.")

_BODY_FRACTION = 0.53
_PART_FRACTION = 0.22  # region for even affordance ids
_TOP_FRACTION = 0.25   # region for odd affordance ids


def _cylinder_side(rng, n, radius, z0, z1):
    theta = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(z0, z1, n)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)


def _disk(rng, n, radius, z):
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    theta = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(theta), r * np.sin(theta),
                     np.full(n, float(z))], axis=1)


def _rod(rng, n, start, end, thickness):
    t = rng.uniform(0, 1, n)
    axis = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    pts = np.asarray(start) + t[:, None] * axis
    return pts + rng.normal(scale=thickness, size=(n, 3)), t


def _handle_arc(rng, n, attach_x, z_mid, span, reach, thickness):
    """Semicircular handle in the xz-plane bulging outward from attach_x."""
    theta = rng.uniform(-np.pi / 2, np.pi / 2, n)
    x = attach_x + reach * np.cos(theta)
    z = z_mid + span * np.sin(theta)
    pts = np.stack([x, np.zeros(n), z], axis=1)
    t = np.abs(theta) / (np.pi / 2)  # 0 at the outermost point
    return pts + rng.normal(scale=thickness, size=(n, 3)), t


def _falloff(t):
    # 1 at the region core, 0.3 at the boundary
    return (1.0 - 0.7 * np.clip(t, 0, 1) ** 2).astype(np.float64)


def _make_shape(class_id: int, rng, n: int):
    """Body plus two geometrically distinctive labeled regions per class."""
    n_part = max(4, round(_PART_FRACTION * n))
    n_top = max(4, round(_TOP_FRACTION * n))
    n_body = n - n_part - n_top
    base = class_id % 4
    r = 0.45 + 0.06 * (class_id % 3)
    height = 1.0 + 0.15 * (class_id % 2)

    if base == 0:   # mug: cylinder body, outward handle, flared rim
        body = np.vstack([_cylinder_side(rng, n_body - n_body // 4, r,
                                         0, 0.80 * height),
                          _disk(rng, n_body // 4, r, 0.0)])
        part, t_part = _handle_arc(rng, n_part, attach_x=r,
                                   z_mid=0.5 * height, span=0.3 * height,
                                   reach=0.35 * height, thickness=0.02)
        top = _cylinder_side(rng, n_top, 1.18 * r, 0.82 * height, height)
        t_top = 1.0 - (top[:, 2] - 0.82 * height) / (0.18 * height)
    elif base == 1:  # pan: deep dish, long handle, raised inner bottom
        rim = 1.3 * r
        body = np.vstack([_cylinder_side(rng, n_body // 2, rim, 0, 0.35),
                          _disk(rng, n_body - n_body // 2, rim, 0.0)])
        part, t_part = _rod(rng, n_part, (rim, 0, 0.30),
                            (rim + 0.75, 0, 0.38), 0.03)
        t_part = 1.0 - t_part  # grip is strongest at the outer end
        top = _disk(rng, n_top, 0.8 * rim, 0.28)
        t_top = np.linalg.norm(top[:, :2], axis=1) / (0.8 * rim)
    elif base == 2:  # bottle: tall body, narrow neck, flared lip above it
        body = np.vstack([_cylinder_side(rng, n_body - n_body // 5, 0.75 * r,
                                         0, height),
                          _disk(rng, n_body // 5, 0.75 * r, 0.0)])
        part = _cylinder_side(rng, n_part, 0.32 * r, height, height + 0.35)
        t_part = np.abs(part[:, 2] - (height + 0.175)) / 0.175
        top = _cylinder_side(rng, n_top, 0.5 * r, height + 0.35, height + 0.45)
        t_top = 1.0 - (top[:, 2] - (height + 0.35)) / 0.1
    else:            # stool: apron band, four legs, wide seat slab on top
        body = _cylinder_side(rng, n_body, r, 0.70, 0.90)
        legs = []
        per = n_part // 4
        offsets = [(0.6 * r, 0.6 * r), (-0.6 * r, 0.6 * r),
                   (0.6 * r, -0.6 * r), (-0.6 * r, -0.6 * r)]
        counts = [per, per, per, n_part - 3 * per]
        t_list = []
        for (ox, oy), cnt in zip(offsets, counts):
            rod, t = _rod(rng, cnt, (ox, oy, 0.0), (ox, oy, 0.70), 0.02)
            legs.append(rod)
            t_list.append(np.abs(t - 0.5) * 2.0)
        part = np.vstack(legs)
        t_part = np.concatenate(t_list)
        top = np.vstack([_disk(rng, n_top - n_top // 4, 1.1 * r, 1.0),
                         _cylinder_side(rng, n_top // 4, 1.1 * r, 0.94, 1.0)])
        t_top = np.concatenate([
            np.linalg.norm(top[:n_top - n_top // 4, :2], axis=1) / (1.1 * r),
            np.full(n_top // 4, 0.8)])

    coords = np.vstack([body, part, top])
    labels = {
        "part": np.concatenate([np.zeros(len(body)), _falloff(t_part),
                                np.zeros(len(top))]),
        "top": np.concatenate([np.zeros(len(body)), np.zeros(len(part)),
                               _falloff(t_top)]),
    }
    return coords, labels


def synth_cloud(class_id: int, affordance_id: int, seed: int, n: int,
                sample_id: str = "") -> PointCloud:
    """One deterministic labeled cloud, unit-sphere normalized."""
    rng = rng_for(int(seed), "cloud", class_id, affordance_id, n)
    coords, labels = _make_shape(class_id, rng, n)
    label = labels["part"] if affordance_id % 2 == 0 else labels["top"]
    perm = rng.permutation(n)
    coords = normalize_unit_sphere(coords[perm])
    return PointCloud(coords=coords, labels=np.clip(label[perm], 0, 1),
                      id=sample_id)


def gen_synthetic_dataset(out_dir, n_classes: int, n_affordances: int,
                          samples_per_pair: int, n_points: int, seed: int,
                          d_h: int = 256, seq_len: int = 8) -> Path:
    """Procedural dataset tree: clouds, labels, hidden-state fixtures, manifest."""
    if min(n_classes, n_affordances, samples_per_pair) < 1:
        raise ContractError("counts must be at least 1")
    if n_affordances > len(AFFORDANCE_NAMES):
        raise ContractError(f"at most {len(AFFORDANCE_NAMES)} affordances supported")
    out = Path(out_dir)
    for sub in ("clouds", "labels", "hidden"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    class_names = [CLASS_NAMES[i % 4] + ("" if i < 4 else str(i // 4))
                   for i in range(n_classes)]
    affordance_names = list(AFFORDANCE_NAMES[:n_affordances])
    records = []
    index = 0
    for c in range(n_classes):
        for a in range(n_affordances):
            for _ in range(samples_per_pair):
                sid = f"{class_names[c]}_{affordance_names[a]}_{index:04d}"
                cloud_seed = derive_seed(seed, "cloud", index)
                cloud = synth_cloud(c, a, cloud_seed, n_points, sid)
                fixture = synth_fixture(
                    c, a, seed=derive_seed(seed, "fixture", index),
                    L=seq_len, d_h=d_h)
                write_tensor(out / "clouds" / f"{sid}.htns", cloud.coords)
                write_tensor(out / "labels" / f"{sid}.htns", cloud.labels)
                write_tensor(out / "hidden" / f"{sid}.htns", fixture.states)
                records.append(SampleRecord(
                    id=sid, class_name=class_names[c],
                    affordance_name=affordance_names[a], affordance_id=a,
                    points=f"clouds/{sid}.htns", labels=f"labels/{sid}.htns",
                    hidden=f"hidden/{sid}.htns", cont_index=fixture.cont_index,
                    prompt=PROMPT_TEMPLATE.format(
                        class_name=class_names[c],
                        affordance_name=affordance_names[a])))
                index += 1
    (out / "vocab.json").write_text(_canon_json({
        "classes": class_names,
        "affordances": affordance_names,
        "n_points": n_points,
        "d_h": d_h,
        "seq_len": seq_len,
        "seed": seed,
    }))
    write_manifest(out / "manifest.jsonl", records)
    return out / "manifest.jsonl"


def regen_fixtures(manifest_path, seed: int, d_h: int, seq_len: int):
    """Rewrite every hidden-state fixture referenced by a manifest.

    Each row's ``cont_index`` is updated to its new fixture's contact
    token, and the manifest and vocabulary are rewritten.
    """
    ds = read_dataset(manifest_path)
    class_index = {name: i for i, name in enumerate(ds.vocab["classes"])}
    for index, record in enumerate(ds.records):
        fixture = synth_fixture(
            class_index[record.class_name], record.affordance_id,
            seed=derive_seed(seed, "fixture", index), L=seq_len, d_h=d_h)
        write_tensor(ds.root / record.hidden, fixture.states)
        record.cont_index = fixture.cont_index
    write_manifest(manifest_path, ds.records)
    vocab = dict(ds.vocab)
    vocab["d_h"] = d_h
    vocab["seq_len"] = seq_len
    (ds.root / "vocab.json").write_text(_canon_json(vocab))
    return len(ds.records)


# -- checkpoints -------------------------------------------------------------

MOMENTS = ("exp_avg", "exp_avg_sq")


def _write_group(ckpt: Path, group: str, arrays: dict) -> dict:
    """One tensor file per entry under ``group/``; returns name -> relative path."""
    (ckpt / group).mkdir(parents=True, exist_ok=True)
    files = {}
    for name, data in arrays.items():
        if not np.isfinite(data).all():
            raise CheckpointError(f"refusing to save non-finite {group} entry {name}")
        files[name] = f"{group}/{name}.htns"
        write_tensor(ckpt / files[name], data)
    return files


def save_checkpoint(ckpt_dir, params: dict, config: dict, step: int,
                    optimizer_state=None, vocab=None):
    """Parameters (and optimizer moments) as tensor files plus a manifest."""
    ckpt = Path(ckpt_dir)
    manifest = {
        "config": config,
        "step": int(step),
        "params": _write_group(ckpt, "params",
                               {name: p.data for name, p in params.items()}),
        "vocab": vocab or {},
    }
    if optimizer_state is not None:
        manifest["optimizer"] = {"step": int(optimizer_state["step"])}
        for moment in MOMENTS:
            manifest["optimizer"][moment] = _write_group(
                ckpt, moment, optimizer_state[moment])
    (ckpt / "manifest.json").write_text(_canon_json(manifest))


@dataclass
class Checkpoint:
    config: dict
    step: int
    params: dict            # name -> np.ndarray
    optimizer: dict | None  # {"step", "exp_avg": {...}, "exp_avg_sq": {...}}
    vocab: dict


def _read_group(ckpt: Path, group: str, files) -> dict:
    arrays = {}
    for name, rel in dict(files).items():
        if not isinstance(rel, str):
            raise CheckpointError(
                f"{ckpt / 'manifest.json'}: file for {group} entry {name} is "
                f"not a path string: {rel!r}")
        path = ckpt / rel
        if not path.exists():
            raise CheckpointError(f"missing {group} file for {name}: {path}")
        try:
            arrays[name] = read_tensor(path)
        except DataFormatError as exc:
            raise CheckpointError(f"{group} file for {name}: {exc}") from exc
    return arrays


def load_checkpoint(ckpt_dir) -> Checkpoint:
    ckpt = Path(ckpt_dir)
    manifest_path = ckpt / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"{manifest_path} is missing")
    try:
        manifest = json.loads(manifest_path.read_text())
        config, step = manifest["config"], int(manifest["step"])
        params = _read_group(ckpt, "params", manifest["params"])
        opt = manifest.get("optimizer")
        optimizer = None
        if opt is not None:
            optimizer = {"step": int(opt["step"])}
            for moment in MOMENTS:
                optimizer[moment] = _read_group(ckpt, moment, opt[moment])
    except AffgroundError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
    return Checkpoint(config=config, step=step, params=params,
                      optimizer=optimizer, vocab=manifest.get("vocab", {}))


def restore_arrays(live: dict, saved: dict, group: str):
    """Copy each saved array into the live array of the same name, in place.

    Every live name must be saved with exactly the live shape; all of them
    are checked before any is written, so a refused restore changes
    nothing. The live dtype is kept.
    """
    missing = sorted(set(live) - set(saved))
    if missing:
        raise CheckpointError(f"checkpoint lacks {group} entries: {missing[:5]}")
    for name, arr in live.items():
        if saved[name].shape != arr.shape:
            raise CheckpointError(
                f"{group} entry {name} has shape {saved[name].shape} in the "
                f"checkpoint but {arr.shape} in the model")
    for name, arr in live.items():
        arr[...] = saved[name]
