"""Tests for the snapshot codec and format (repro.snap.codec)."""

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.geometry.se3 import SE3
from repro.pim.isa import OpKind
from repro.snap import (
    SNAP_SCHEMA,
    SnapshotError,
    content_hash,
    decode,
    encode,
    load_snapshot,
    make_snapshot,
    write_snapshot,
)
from repro.snap.codec import (
    canonical_bytes,
    register_dataclass,
    verify_snapshot,
)
from repro.vo.frontend import KeyframeMaps
from repro.vo.tracker import FrameResult


class TestEncodeDecode:
    def test_scalars_round_trip_exactly(self):
        for value in (None, True, False, 0, -7, 2**62, "text",
                      0.1, -1.5e-300, float("inf"), float("-inf")):
            out = decode(encode(value))
            assert out == value or (value != value and out != out)
            assert type(out) is type(value)

    def test_nan_round_trips_through_json(self):
        payload = json.loads(json.dumps(encode(float("nan")),
                                        allow_nan=True))
        assert decode(payload) != decode(payload)  # still NaN

    def test_arrays_bit_exact_across_dtypes(self):
        rng = np.random.default_rng(0)
        for dtype in ("uint8", "int16", "int32", "int64",
                      "float32", "float64", "bool"):
            arr = rng.integers(0, 2, size=(3, 5)).astype(dtype)
            out = decode(encode(arr))
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert out.tobytes() == arr.tobytes()

    def test_numpy_scalar_keeps_dtype(self):
        out = decode(encode(np.int64(41)))
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out.dtype == np.int64 and int(out) == 41

    def test_containers_round_trip(self):
        value = {"a": (1, 2, b"\x00\xff"), "b": [1.5, None],
                 "c": {"nested": np.arange(4)}}
        out = decode(encode(value))
        assert out["a"] == (1, 2, b"\x00\xff")
        assert isinstance(out["a"], tuple)
        assert out["b"] == [1.5, None]
        assert np.array_equal(out["c"]["nested"], np.arange(4))

    def test_counter_with_structured_keys(self):
        counter = Counter({OpKind.ADD: 3, (OpKind.COPY, 8): 2,
                           "host": 1})
        out = decode(encode(counter))
        assert isinstance(out, Counter)
        assert out == counter

    def test_counter_survives_dict_check_ordering(self):
        # Counter subclasses dict; the codec must tag it as a counter,
        # not flatten it into a plain mapping.
        node = encode(Counter({"a": 1}))
        assert node.get("__snap__") == "counter"

    def test_registered_dataclasses_round_trip(self):
        pose = SE3(R=np.eye(3) * 0.5, t=np.array([1.0, 2.0, 3.0]))
        out = decode(encode(pose))
        assert isinstance(out, SE3)
        assert np.array_equal(out.R, pose.R)
        assert np.array_equal(out.t, pose.t)

    def test_unregistered_type_rejected(self):
        class Mystery:
            pass
        with pytest.raises(SnapshotError, match="Mystery"):
            encode(Mystery())

    def test_frame_results_are_not_snapshotted(self):
        # Records carry a stream's state, never its per-frame history.
        result = FrameResult(pose=SE3.identity(), is_keyframe=True,
                             lm=None, num_features=0)
        with pytest.raises(SnapshotError, match="FrameResult"):
            encode(result)

    def test_keyframe_maps_are_not_snapshotted(self):
        # A keyframe travels as its edge maps; its lookup maps are
        # rebuilt from them, never encoded.
        with pytest.raises(SnapshotError, match="KeyframeMaps"):
            encode(KeyframeMaps())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(SnapshotError, match="keys must be strings"):
            encode({1: "a"})

    def test_reserved_key_rejected(self):
        with pytest.raises(SnapshotError, match="reserved"):
            encode({"__snap__": "nd"})

    def test_array_length_validated_on_decode(self):
        node = encode(np.arange(4, dtype=np.int32))
        node["shape"] = [5]
        with pytest.raises(SnapshotError, match="expected"):
            decode(node)

    def test_unknown_node_kind_rejected(self):
        with pytest.raises(SnapshotError, match="unknown node kind"):
            decode({"__snap__": "teleport"})

    def test_unknown_dataclass_field_rejected(self):
        # A field this build does not know about means the snapshot
        # came from a newer format: refuse rather than drop data.
        node = encode(SE3(R=np.eye(3), t=np.zeros(3)))
        node["fields"]["warp_factor"] = 9
        with pytest.raises(SnapshotError, match="newer format"):
            decode(node)

    def test_register_dataclass_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            register_dataclass(int)

    def test_register_dataclass_extends_whitelist(self):
        @dataclasses.dataclass
        class Probe:
            x: int = 0
        register_dataclass(Probe, name="_test_probe")
        out = decode(encode(Probe(x=3)))
        assert isinstance(out, Probe) and out.x == 3


class TestCanonicalHash:
    def test_equal_values_hash_equal(self):
        a = encode({"z": np.arange(3), "a": (1, 2)})
        b = encode({"a": (1, 2), "z": np.arange(3)})
        assert canonical_bytes(a) == canonical_bytes(b)
        assert content_hash(a) == content_hash(b)

    def test_different_values_hash_different(self):
        assert content_hash(encode(np.zeros(3))) != \
            content_hash(encode(np.ones(3)))


class TestSnapshotDocuments:
    def _snap(self):
        return make_snapshot("capture",
                             {"a": encode({"x": np.arange(3)}),
                              "b": encode([1, 2])},
                             note="test")

    def test_make_and_verify(self):
        snap = self._snap()
        assert snap["schema"] == SNAP_SCHEMA
        assert set(snap["manifest"]["sections"]) == {"a", "b"}
        assert verify_snapshot(snap, kind="capture") is snap

    def test_context_outside_the_hash(self):
        # Same state, different provenance => same content hash: the
        # hash is a state identity, not a document identity.
        a = make_snapshot("capture", {"s": encode(1)}, note="one")
        b = make_snapshot("capture", {"s": encode(1)}, note="two")
        assert a["manifest"]["content_hash"] == \
            b["manifest"]["content_hash"]

    def test_wrong_kind_rejected(self):
        with pytest.raises(SnapshotError, match="kind"):
            verify_snapshot(self._snap(), kind="service")

    def test_foreign_schema_rejected(self):
        snap = self._snap()
        snap["schema"] = "repro.snap/99"
        with pytest.raises(SnapshotError, match="schema"):
            verify_snapshot(snap)

    def test_corrupt_section_rejected(self):
        snap = self._snap()
        snap["sections"]["b"] = encode([1, 2, 3])
        with pytest.raises(SnapshotError, match="corrupt"):
            verify_snapshot(snap)

    def test_missing_section_rejected(self):
        snap = self._snap()
        del snap["sections"]["b"]
        with pytest.raises(SnapshotError, match="cover"):
            verify_snapshot(snap)

    def test_tampered_manifest_rejected(self):
        snap = self._snap()
        snap["manifest"]["sections"]["b"] = content_hash(
            snap["sections"]["b"])[::-1][:64]
        with pytest.raises(SnapshotError):
            verify_snapshot(snap)


class TestDiskFormat:
    def test_write_then_load_round_trips(self, tmp_path):
        snap = make_snapshot("capture", {"s": encode(np.arange(5))})
        path = write_snapshot(tmp_path / "snap.json", snap)
        loaded = load_snapshot(path, kind="capture")
        assert loaded["manifest"]["content_hash"] == \
            snap["manifest"]["content_hash"]
        assert np.array_equal(decode(loaded["sections"]["s"]),
                              np.arange(5))

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        write_snapshot(tmp_path / "snap.json",
                       make_snapshot("capture", {"s": encode(1)}))
        assert os.listdir(tmp_path) == ["snap.json"]

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.json")

    def test_truncated_file_rejected_no_partial_result(self, tmp_path):
        path = write_snapshot(
            tmp_path / "snap.json",
            make_snapshot("capture", {"s": encode(np.arange(64))}))
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_bitflipped_file_rejected(self, tmp_path):
        path = write_snapshot(
            tmp_path / "snap.json",
            make_snapshot("capture",
                          {"s": encode(np.zeros(32, dtype=np.uint8))}))
        snap = json.loads(path.read_text())
        data = snap["sections"]["s"]["data"]
        snap["sections"]["s"]["data"] = \
            data[:-5] + ("A" if data[-5] != "A" else "B") + data[-4:]
        path.write_text(json.dumps(snap))
        with pytest.raises(SnapshotError):
            load_snapshot(path)
