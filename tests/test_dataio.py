"""File formats, synthetic data, and checkpoint round-trips."""

import hashlib
import json
import struct

import numpy as np
import pytest

from affground import tensor as T
from affground.dataio import (
    CLASS_NAMES,
    Checkpoint,
    gen_synthetic_dataset,
    load_checkpoint,
    read_dataset,
    read_tensor,
    regen_fixtures,
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

    def test_regen_fixtures_changes_width(self, tmp_path):
        manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=9,
                                         d_h=32, seq_len=4)
        n = regen_fixtures(manifest, seed=10, d_h=48, seq_len=6)
        assert n == 2
        ds = read_dataset(manifest)
        hidden = ds.load_hidden(ds.records[0])
        assert hidden.hidden_dim == 48 and hidden.seq_len == 6

    @pytest.mark.parametrize("seq_len", [3, 12])
    def test_regen_fixtures_moves_every_rows_cont_index(self, tmp_path, seq_len):
        manifest = gen_synthetic_dataset(tmp_path / "ds", 2, 2, 2, 64, seed=9,
                                         d_h=32, seq_len=8)
        regen_fixtures(manifest, seed=10, d_h=32, seq_len=seq_len)
        ds = read_dataset(manifest)
        assert [r.cont_index for r in ds.records] == [seq_len - 1] * 8
        for record in ds.records:
            hidden = ds.load_hidden(record)
            assert hidden.seq_len == seq_len
            assert hidden.cont_index == seq_len - 1
            assert hidden.affordance_id == record.affordance_id

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


class TestCheckpoints:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "a.w": T.tensor(rng.normal(size=(4, 3)).astype(np.float32),
                            requires_grad=True),
            "b.w": T.tensor(rng.normal(size=(1, 3)).astype(np.float32),
                            requires_grad=True),
        }

    def test_round_trip_bitwise(self, tmp_path):
        params = self._params()
        config = {"model": {"d": 8}, "seed": 3}
        opt_state = {
            "step": 17,
            "exp_avg": {k: np.full_like(v.data, 0.25) for k, v in params.items()},
            "exp_avg_sq": {k: np.full_like(v.data, 0.5) for k, v in params.items()},
        }
        save_checkpoint(tmp_path / "ckpt", params, config, step=17,
                        optimizer_state=opt_state, vocab={"affordances": ["grasp"]})
        ckpt = load_checkpoint(tmp_path / "ckpt")
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.step == 17 and ckpt.config == config
        for name, p in params.items():
            assert ckpt.params[name].tobytes() == p.data.tobytes()
            assert ckpt.optimizer["exp_avg"][name].tobytes() == \
                opt_state["exp_avg"][name].tobytes()

    def test_missing_parameter_file_named(self, tmp_path):
        params = self._params(1)
        save_checkpoint(tmp_path / "ckpt", params, {}, step=0)
        (tmp_path / "ckpt" / "params" / "b.w.htns").unlink()
        with pytest.raises(CheckpointError, match="b.w"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_drift_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", self._params(2), {}, step=0)
        ckpt = load_checkpoint(tmp_path / "ckpt")
        live = {"a.w": np.zeros((4, 3), dtype=np.float32),
                "b.w": np.zeros((1, 4), dtype=np.float32)}
        with pytest.raises(CheckpointError, match="b.w"):
            restore_arrays(live, ckpt.params, "params")
        assert not live["a.w"].any()  # a refused restore writes nothing
        del ckpt.params["a.w"]
        with pytest.raises(CheckpointError, match="a.w"):
            restore_arrays(live, ckpt.params, "params")

    def test_nonfinite_parameters_refused(self, tmp_path):
        params = self._params(3)
        params["a.w"].data[0, 0] = np.nan
        with pytest.raises(CheckpointError, match="non-finite"):
            save_checkpoint(tmp_path / "ckpt", params, {}, step=0)

    def test_config_round_trips_key_for_key(self, tmp_path):
        config = {"optimizer": {"lr": 1e-4, "betas": [0.9, 0.999]},
                  "fusion": {"stage1": True, "stage2": False}}
        save_checkpoint(tmp_path / "ckpt", self._params(4), config, step=1)
        assert load_checkpoint(tmp_path / "ckpt").config == config


def _checkpoint_reader(tmp_path):
    params = {"a.w": T.tensor(np.ones((2, 3), dtype=np.float32))}
    save_checkpoint(tmp_path / "ckpt", params, {"seed": 0}, step=3)
    return tmp_path / "ckpt" / "manifest.json", \
        lambda: load_checkpoint(tmp_path / "ckpt")


def _vocab_reader(tmp_path):
    manifest = gen_synthetic_dataset(tmp_path / "ds", 1, 2, 1, 64, seed=1,
                                     d_h=16, seq_len=4)
    return tmp_path / "ds" / "vocab.json", lambda: read_dataset(manifest)


# reader -> (set-up returning (JSON file, read call), a required key, error)
JSON_READERS = {
    "checkpoint_manifest": (_checkpoint_reader, "params", CheckpointError),
    "dataset_vocab": (_vocab_reader, "affordances", DataFormatError),
}


@pytest.mark.parametrize("damage", ["truncated", "missing_key", "not_an_object"])
@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_malformed_json_raises_package_error(tmp_path, reader, damage):
    setup, key, error = JSON_READERS[reader]
    path, read = setup(tmp_path)
    text = path.read_text()
    read()  # intact files load
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage == "missing_key":
        payload = json.loads(text)
        del payload[key]
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


def _manifest_row_path(tmp_path):
    return _edit_first_row(tmp_path, "points", 5)


def _checkpoint_path(section):
    def damage(tmp_path):
        params = {"a.w": T.tensor(np.ones((2, 3), dtype=np.float32))}
        save_checkpoint(tmp_path / "ckpt", params, {"seed": 0}, step=3,
                        optimizer_state={"step": 3,
                                         "exp_avg": {"a.w": np.zeros((2, 3))},
                                         "exp_avg_sq": {"a.w": np.zeros((2, 3))}})
        path = tmp_path / "ckpt" / "manifest.json"
        payload = json.loads(path.read_text())
        files = payload["params"] if section == "params" \
            else payload["optimizer"][section]
        files["a.w"] = 5
        path.write_text(json.dumps(payload))
        return lambda: load_checkpoint(tmp_path / "ckpt")
    return damage


@pytest.mark.parametrize("damage, error", [
    (_manifest_row_path, DataFormatError),
    (_checkpoint_path("params"), CheckpointError),
    (_checkpoint_path("exp_avg"), CheckpointError),
], ids=["manifest_row", "checkpoint_params", "checkpoint_optimizer"])
def test_non_string_path_raises_package_error(tmp_path, damage, error):
    read = damage(tmp_path)
    with pytest.raises(error, match="not a path string"):
        read()


@pytest.mark.parametrize("key, value", [
    ("affordance_id", "0"), ("affordance_id", True), ("affordance_id", 1.0),
    ("cont_index", "3"), ("cont_index", None), ("cont_index", False),
])
def test_non_integer_index_raises_package_error(tmp_path, key, value):
    read = _edit_first_row(tmp_path, key, value)
    with pytest.raises(DataFormatError, match=f"{key} is not an integer"):
        read()
