"""File formats, synthetic data, and checkpoint round-trips."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from affground import tensor as T
from affground.cli import main
from affground.dataio import (
    MOMENTS,
    Checkpoint,
    gen_synthetic_dataset,
    load_checkpoint,
    read_dataset,
    read_tensor,
    restore_arrays,
    save_checkpoint,
    synth_cloud,
    write_manifest,
    write_tensor,
)
from affground.errors import CheckpointError, DataFormatError


class TestTensorFile:
    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "scalar.htns"
        write_tensor(path, np.array(3.5, dtype=np.float64))
        out = read_tensor(path)
        assert out.shape == () and out.dtype == np.float64
        assert out == 3.5

    def test_cloud_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(2048, 3)).astype(np.float32)
        path = tmp_path / "cloud.htns"
        write_tensor(path, cloud)
        out = read_tensor(path)
        assert out.tobytes() == cloud.tobytes()
        # regeneration writes identical bytes
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        write_tensor(path, cloud)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_header_layout_is_pinned(self, tmp_path):
        path = tmp_path / "t.htns"
        write_tensor(path, np.array([[1.0, 2.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"HTNS"
        assert struct.unpack("<BBBB", raw[4:8]) == (1, 0, 2, 0)
        assert struct.unpack("<2Q", raw[8:24]) == (1, 2)
        assert raw[24:] == struct.pack("<2f", 1.0, 2.0)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", ">f4", ">f8"])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)],
                             ids=["rank0", "rank1", "rank2", "rank3"])
    @pytest.mark.parametrize("view", ["whole", "strided"])
    def test_bytes_equal_the_joined_form(self, tmp_path, dtype, shape, view):
        # the former writer joined header, extents and a copy of the payload
        data = np.random.default_rng(len(shape)).normal(size=shape).astype(dtype)
        if view == "strided":
            data = np.random.default_rng(1).normal(
                size=tuple(2 * n for n in shape)).astype(dtype)
            data = data[tuple(slice(None, None, 2) for _ in shape)]
            if data.ndim >= 2:
                data = data.swapaxes(0, 1)
                assert not data.flags.c_contiguous
        code = 0 if data.dtype.itemsize == 4 else 1
        joined = (b"HTNS" + struct.pack("<BBBB", 1, code, data.ndim, 0)
                  + struct.pack(f"<{data.ndim}Q", *data.shape)
                  + data.astype(data.dtype.newbyteorder("<"), copy=False)
                  .tobytes(order="C"))
        path = tmp_path / "t.htns"
        write_tensor(path, data)
        assert path.read_bytes() == joined
        np.testing.assert_array_equal(read_tensor(path), data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.htns"
        write_tensor(path, np.zeros(3, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.htns"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="payload"):
            read_tensor(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.htns"
        write_tensor(path, np.zeros(2, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_tensor(path)

    def test_dim_overflow_rejected(self, tmp_path):
        path = tmp_path / "huge.htns"
        header = b"HTNS" + struct.pack("<BBBB", 1, 0, 2, 0)
        dims = struct.pack("<2Q", 1 << 32, 1 << 32)
        path.write_bytes(header + dims)
        with pytest.raises(DataFormatError, match="overflow"):
            read_tensor(path)

    def test_float64_round_trip(self, tmp_path):
        data = np.array([np.pi, np.e, -0.0], dtype=np.float64)
        path = tmp_path / "f64.htns"
        write_tensor(path, data)
        assert read_tensor(path).tobytes() == data.tobytes()


    @pytest.mark.parametrize("cut, message", [
        (5, "truncated header"),
        (8 + 8 + 4, "truncated dimension block"),
        (8 + 16 + 4 * 6 - 1, "payload is 23 bytes, expected 24"),
        (None, "payload is 28 bytes, expected 24"),
    ], ids=["header", "dimensions", "short_payload", "long_payload"])
    def test_every_truncation_names_its_part(self, tmp_path, cut, message):
        path = tmp_path / "t.htns"
        write_tensor(path, np.ones((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut is not None else raw + b"\0" * 4)
        with pytest.raises(DataFormatError, match=message):
            read_tensor(path)

    def test_read_array_is_native_and_writable(self, tmp_path):
        path = tmp_path / "t.htns"
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_tensor(path, data)
        out = read_tensor(path)
        assert out.dtype == np.dtype(np.float32) and out.dtype.isnative
        assert out.flags.writeable and out.flags.c_contiguous
        out += 1   # its own buffer
        assert (read_tensor(path) == data).all()


class TestSyntheticData:
    def test_label_positive_fraction_bounds(self):
        for class_id in range(4):
            for aff in range(2):
                for seed in (0, 1, 2):
                    cloud = synth_cloud(class_id, aff, seed=seed, n=512)
                    frac = (cloud.labels > 0).mean()
                    assert 0.05 <= frac <= 0.60, (class_id, aff, frac)

    def test_labels_in_unit_interval(self):
        cloud = synth_cloud(1, 1, seed=3, n=256)
        assert cloud.labels.min() >= 0.0 and cloud.labels.max() <= 1.0

    def test_cloud_determinism(self):
        a = synth_cloud(2, 0, seed=9, n=128)
        b = synth_cloud(2, 0, seed=9, n=128)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_dataset_tree_regenerates_bitwise(self, tmp_path):
        def tree_hash(root):
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    digest.update(path.name.encode())
                    digest.update(path.read_bytes())
            return digest.hexdigest()

        m1 = gen_synthetic_dataset(tmp_path / "a", 2, 2, 2, 128, seed=5,
                                   d_h=32, seq_len=4)
        m2 = gen_synthetic_dataset(tmp_path / "b", 2, 2, 2, 128, seed=5,
                                   d_h=32, seq_len=4)
        assert tree_hash(m1.parent) == tree_hash(m2.parent)

    def test_manifest_validates_and_loads(self, tmp_path):
        manifest = gen_synthetic_dataset(tmp_path / "ds", 2, 2, 1, 64, seed=7,
                                         d_h=32, seq_len=4)
        ds = read_dataset(manifest)
        assert len(ds.records) == 4
        assert ds.vocab["affordances"] == ["grasp", "contain"]
        cloud = ds.load_cloud(ds.records[0])
        hidden = ds.load_hidden(ds.records[0])
        assert cloud.n_points == 64
        assert hidden.seq_len == 4 and hidden.hidden_dim == 32

    def test_manifest_missing_file_fails_fast(self, tmp_path):
        manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=8,
                                         d_h=32, seq_len=4)
        ds = read_dataset(manifest)
        (ds.root / ds.records[0].points).unlink()
        with pytest.raises(DataFormatError, match="missing file"):
            read_dataset(manifest)

    @pytest.mark.parametrize("where, what", [
        ("ds/typo.jsonl", "is missing"),
        ("ds", "is not a regular file"),
        ("elsewhere/typo.jsonl", "is missing"),
    ], ids=["typo", "directory", "no_vocab_beside_it"])
    def test_manifest_that_is_not_a_file_is_refused_by_name(
            self, tmp_path, where, what):
        gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=8, d_h=32,
                              seq_len=4)
        path = tmp_path / where
        # the manifest is named, not the vocab.json looked for beside it
        with pytest.raises(DataFormatError,
                           match=f"^manifest {re.escape(str(path))} {what}$"):
            read_dataset(path)

    def test_fixture_sizes_leave_clouds_and_labels_unchanged(self, tmp_path):
        # so gen-data, rerun at another (d_h, L), is how fixtures are remade
        trees = {}
        for d_h, seq_len in ((32, 4), (48, 12)):
            manifest = gen_synthetic_dataset(tmp_path / f"{d_h}-{seq_len}", 2, 2,
                                             2, 64, seed=9, d_h=d_h,
                                             seq_len=seq_len)
            ds = read_dataset(manifest)
            assert [r.cont_index for r in ds.records] == [seq_len - 1] * 8
            hidden = ds.load_hidden(ds.records[0])
            assert hidden.hidden_dim == d_h and hidden.seq_len == seq_len
            trees[d_h, seq_len] = {
                path.relative_to(ds.root): path.read_bytes()
                for kind in ("clouds", "labels")
                for path in sorted((ds.root / kind).iterdir())}
        first, second = trees.values()
        assert len(first) == 16 and first == second

    def test_fixture_metadata_comes_from_the_row(self, tmp_path):
        manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=9,
                                         d_h=32, seq_len=4)
        assert not list((tmp_path / "ds" / "hidden").glob("*.json"))
        ds = read_dataset(manifest)
        ds.records[1].cont_index = 1
        write_manifest(manifest, ds.records)
        record = read_dataset(manifest).records[1]
        hidden = ds.load_hidden(record)
        assert (hidden.cont_index, hidden.affordance_id) == (1, 1)
        # trees from older versions hold a metadata sidecar per fixture
        sidecar = (ds.root / record.hidden).with_suffix(".json")
        sidecar.write_text(json.dumps({"cont_index": 3, "affordance_id": 0}))
        assert ds.load_hidden(record).cont_index == 1
        sidecar.write_text("not json")
        assert ds.load_hidden(record).cont_index == 1

    def test_class_geometries_differ(self):
        clouds = [synth_cloud(c, 0, seed=1, n=256) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(clouds[i].coords, clouds[j].coords)


VOCAB = {"classes": ["mug"], "affordances": ["grasp"]}


def save_plain(ckpt_dir, params, config, step):
    """``save_checkpoint`` with both AdamW moments zero and ``VOCAB``."""
    moments = {moment: {name: np.zeros_like(p.data)
                        for name, p in params.items()}
               for moment in MOMENTS}
    save_checkpoint(ckpt_dir, params, config, step, moments, VOCAB)


class TestCheckpoints:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "a.w": T.Tensor(rng.normal(size=(4, 3)).astype(np.float32),
                            requires_grad=True),
            "b.w": T.Tensor(rng.normal(size=(1, 3)).astype(np.float32),
                            requires_grad=True),
        }

    def test_round_trip_bitwise(self, tmp_path):
        params = self._params()
        config = {"model": {"d": 8}, "seed": 3}
        moments = {
            "exp_avg": {k: np.full_like(v.data, 0.25) for k, v in params.items()},
            "exp_avg_sq": {k: np.full_like(v.data, 0.5) for k, v in params.items()},
        }
        save_checkpoint(tmp_path / "ckpt", params, config, 17, moments, VOCAB)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.step == 17 and ckpt.config == config
        assert ckpt.vocab == VOCAB
        for name, p in params.items():
            assert ckpt.params[name].tobytes() == p.data.tobytes()
            for moment in MOMENTS:
                assert ckpt.moments[moment][name].tobytes() == \
                    moments[moment][name].tobytes()
        # the step is stored once, as the manifest's step
        saved = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert sorted(saved["optimizer"]) == sorted(MOMENTS)

    def test_missing_parameter_file_named(self, tmp_path):
        params = self._params(1)
        save_plain(tmp_path / "ckpt", params, {}, 0)
        (tmp_path / "ckpt" / "params" / "b.w.htns").unlink()
        with pytest.raises(CheckpointError, match="b.w"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_drift_rejected(self, tmp_path):
        save_plain(tmp_path / "ckpt", self._params(2), {}, 0)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        live = {"a.w": np.zeros((4, 3), dtype=np.float32),
                "b.w": np.zeros((1, 4), dtype=np.float32)}
        with pytest.raises(CheckpointError, match="b.w"):
            restore_arrays(live, ckpt.params, "params")
        assert not live["a.w"].any()  # a refused restore writes nothing
        del ckpt.params["a.w"]
        with pytest.raises(CheckpointError, match="a.w"):
            restore_arrays(live, ckpt.params, "params")

    def test_unexpected_entries_refused(self, tmp_path):
        save_plain(tmp_path / "ckpt", self._params(4), {}, 0)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        live = {"a.w": np.zeros((4, 3), dtype=np.float32)}
        with pytest.raises(CheckpointError, match=r"does not: \['b.w'\]"):
            restore_arrays(live, ckpt.params, "exp_avg")
        assert not live["a.w"].any()  # a refused restore writes nothing

    def test_restore_takes_the_saved_arrays(self, tmp_path):
        params = self._params(5)
        params["b.w"].data = params["b.w"].data.astype(np.float64)
        save_plain(tmp_path / "ckpt", params, {}, 0)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        live = {"a.w": np.zeros((4, 3), dtype=np.float32),
                "b.w": np.zeros((1, 3), dtype=np.float32)}
        taken = restore_arrays(live, ckpt.params, "params")
        assert taken["a.w"] is ckpt.params["a.w"]
        # a saved float64 array is cast once to the live float32
        assert taken["b.w"].dtype == np.float32
        assert taken["b.w"].tobytes() == \
            ckpt.params["b.w"].astype(np.float32).tobytes()
        assert not live["a.w"].any() and not live["b.w"].any()

    def test_nonfinite_parameters_refused(self, tmp_path):
        params = self._params(3)
        params["a.w"].data[0, 0] = np.nan
        with pytest.raises(CheckpointError, match="non-finite"):
            save_plain(tmp_path / "ckpt", params, {}, 0)

    def test_finite_parameter_whose_square_overflows_is_saved(self, tmp_path):
        params = self._params(6)
        params["a.w"].data[1, 2] = np.float32(3e19)
        with np.errstate(over="ignore"):
            assert not np.isfinite(params["a.w"].data[1, 2] ** 2)
        save_plain(tmp_path / "ckpt", params, {}, 0)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        for name, p in params.items():
            assert ckpt.params[name].tobytes() == p.data.tobytes()
        params["a.w"].data[1, 2] = np.inf
        with pytest.raises(CheckpointError,
                           match="refusing to save non-finite params entry a.w"):
            save_plain(tmp_path / "ckpt2", params, {}, 0)

    def test_config_round_trips_key_for_key(self, tmp_path):
        config = {"optimizer": {"lr": 1e-4, "betas": [0.9, 0.999]},
                  "fusion": {"stage1": True, "stage2": False}}
        save_plain(tmp_path / "ckpt", self._params(4), config, 1)
        assert load_checkpoint(tmp_path / "ckpt").config == config


def _checkpoint_reader(tmp_path):
    params = {"a.w": T.Tensor(np.ones((2, 3), dtype=np.float32))}
    save_plain(tmp_path / "ckpt", params, {"seed": 0}, 3)
    return tmp_path / "ckpt" / "manifest.json", \
        lambda: load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("part", ["config", "step", "params", "optimizer",
                                  "exp_avg_sq", "vocab"])
def test_checkpoint_manifest_without_a_part_is_refused(tmp_path, part):
    params = {"a.w": T.Tensor(np.ones((2, 3), dtype=np.float32))}
    save_plain(tmp_path / "ckpt", params, {"seed": 0}, 3)
    path = tmp_path / "ckpt" / "manifest.json"
    payload = json.loads(path.read_text())
    del (payload["optimizer"] if part in MOMENTS else payload)[part]
    path.write_text(json.dumps(payload))
    named = f"optimizer.{part}" if part in MOMENTS else part
    # a resume reads the moments; an evaluation only checks them
    for moments in (True, False):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(tmp_path / "ckpt", moments)
        assert str(exc.value) == f"{path}: manifest lacks {named}"


def _vocab_reader(tmp_path):
    manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=1,
                                     d_h=16, seq_len=4)
    return tmp_path / "ds" / "vocab.json", lambda: read_dataset(manifest)


# reader -> (set-up returning (JSON file, read call), a required key, error)
JSON_READERS = {
    "checkpoint_manifest": (_checkpoint_reader, "params", CheckpointError),
    "dataset_vocab": (_vocab_reader, "affordances", DataFormatError),
}
# "<key>_is_a_number" replaces a key that must hold an object or a list
JSON_DAMAGE = [(reader, damage) for reader in sorted(JSON_READERS)
               for damage in ("truncated", "missing_key", "not_an_object")] + [
    ("checkpoint_manifest", "vocab_is_a_number"),
    ("dataset_vocab", "classes_is_a_number"),
    ("dataset_vocab", "affordances_is_a_number"),
]


@pytest.mark.parametrize("reader, damage", JSON_DAMAGE,
                         ids=[f"{reader}-{damage}" for reader, damage in JSON_DAMAGE])
def test_malformed_json_raises_package_error(tmp_path, reader, damage):
    setup, key, error = JSON_READERS[reader]
    path, read = setup(tmp_path)
    text = path.read_text()
    read()  # intact files load
    payload = json.loads(text)
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage == "missing_key":
        del payload[key]
        path.write_text(json.dumps(payload))
    elif damage.endswith("_is_a_number"):
        payload[damage.removesuffix("_is_a_number")] = 5
        path.write_text(json.dumps(payload))
    else:
        path.write_text("[1, 2]")
    with pytest.raises(error):
        read()


def _edit_first_row(tmp_path, key, value):
    manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=1,
                                     d_h=16, seq_len=4)
    rows = manifest.read_text().splitlines()
    row = json.loads(rows[0])
    row[key] = value
    manifest.write_text("\n".join([json.dumps(row)] + rows[1:]) + "\n")
    return lambda: read_dataset(manifest)


def _manifest_row(key, value):
    return lambda tmp_path: _edit_first_row(tmp_path, key, value)


def _checkpoint_path(section):
    def damage(tmp_path):
        params = {"a.w": T.Tensor(np.ones((2, 3), dtype=np.float32))}
        save_plain(tmp_path / "ckpt", params, {"seed": 0}, 3)
        path = tmp_path / "ckpt" / "manifest.json"
        payload = json.loads(path.read_text())
        files = payload["params"] if section == "params" \
            else payload["optimizer"][section]
        files["a.w"] = 5
        path.write_text(json.dumps(payload))
        return lambda: load_checkpoint(tmp_path / "ckpt")
    return damage


@pytest.mark.parametrize("damage, error", [
    (_manifest_row("points", 5), DataFormatError),
    (_manifest_row("id", ["a"]), DataFormatError),
    (_manifest_row("class_name", 5), DataFormatError),
    (_manifest_row("affordance_name", 5), DataFormatError),
    (_manifest_row("prompt", None), DataFormatError),
    (_checkpoint_path("params"), CheckpointError),
    (_checkpoint_path("exp_avg"), CheckpointError),
], ids=["manifest_row", "manifest_id", "manifest_class_name",
        "manifest_affordance_name", "manifest_prompt", "checkpoint_params",
        "checkpoint_optimizer"])
def test_non_string_path_raises_package_error(tmp_path, damage, error):
    read = damage(tmp_path)
    with pytest.raises(error, match="is not a (path )?string"):
        read()


@pytest.mark.parametrize("key, value", [("class_name", "cup"),
                                        ("affordance_name", "pour")])
def test_name_outside_vocabulary_raises_package_error(tmp_path, capsys, key,
                                                      value):
    read = _edit_first_row(tmp_path, key, value)
    with pytest.raises(DataFormatError, match=rf"manifest.jsonl:1: {key} "
                                              rf"'{value}' is not in the vocab"):
        read()
    capsys.readouterr()
    assert main(["corrupt", "--in", str(tmp_path / "ds" / "manifest.jsonl"),
                 "--out", str(tmp_path / "tree"), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key, value", [
    ("affordance_id", "0"), ("affordance_id", True), ("affordance_id", 1.0),
    ("cont_index", "3"), ("cont_index", None), ("cont_index", False),
])
def test_non_integer_index_raises_package_error(tmp_path, key, value):
    read = _edit_first_row(tmp_path, key, value)
    with pytest.raises(DataFormatError, match=f"{key} is not an integer"):
        read()


def test_affordance_id_naming_another_affordance_raises_package_error(tmp_path):
    read = _edit_first_row(tmp_path, "affordance_id", 1)
    with pytest.raises(DataFormatError,
                       match="manifest.jsonl:1: affordance_id 1 names "
                             "'contain', not affordance_name 'grasp'"):
        read()


@pytest.mark.parametrize("sample_id", ["", ".", "..", "../../../escaped",
                                       "a/b", "a\\b", "a\0b"])
def test_id_that_is_not_one_file_name_raises_package_error(tmp_path, sample_id):
    read = _edit_first_row(tmp_path, "id", sample_id)
    with pytest.raises(DataFormatError,
                       match="manifest.jsonl:1: id .* is not one plain file name"):
        read()


def test_repeated_id_raises_package_error(tmp_path):
    manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=1,
                                     d_h=16, seq_len=4)
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    rows[1]["id"] = rows[0]["id"]
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(DataFormatError, match="manifest.jsonl:2: id "
                                              "'mug_grasp_0000' repeats line 1"):
        read_dataset(manifest)
