"""The versioned snapshot format: canonical encoding + content hashes.

Snapshots must satisfy three contracts the rest of the package builds
on:

* **Bit-exact round trip** -- ``decode(encode(x))`` reproduces every
  numpy array byte-for-byte (dtype, shape, contents) and every scalar
  exactly.  Floats ride through JSON via ``repr`` round-tripping
  (exact for every finite double) and non-finite values use JSON's
  ``Infinity``/``NaN`` extension, which the stdlib parser accepts.
* **Canonical bytes** -- one logical state has one serialization:
  ``canonical_bytes`` sorts keys and strips whitespace, so equal
  states hash equal and differing states hash different.  That makes
  the content hash a *state identity*, which is what lets restore
  assert bit-exactness by construction (re-snapshot, compare hashes).
* **No partial restore** -- :func:`load_snapshot` verifies the schema,
  every per-section hash, and the manifest's content hash *before*
  returning; a corrupt or truncated snapshot raises
  :class:`SnapshotError` and nothing downstream ever sees it.

The encoding is a tagged JSON dialect (``{"__snap__": kind, ...}``)
over a *whitelist* of types: numpy arrays, SE3 poses, tuples, bytes,
``Counter`` objects with OpKind-bearing keys, and the registered
dataclasses of the tracker/serving layers.  Arbitrary objects are
rejected at encode time -- an explicit format beats pickle because a
snapshot outlives the process that wrote it.

Every occurrence of an object is encoded inline, shared or not.  The
bulk of a session record is its keyframes' boolean edge maps, one
byte per pixel (``nd`` nodes of dtype ``|b1``); a keyframe's derived
lookup maps are not dataclass fields and never reach the encoding.
A decode returns one ``Keyframe`` per distinct encoding (interned by
content), so the lookup maps are rebuilt once per keyframe.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.obs.stamp import run_stamp

__all__ = [
    "SNAP_SCHEMA",
    "SnapshotError",
    "canonical_bytes",
    "content_hash",
    "decode",
    "encode",
    "load_snapshot",
    "make_snapshot",
    "register_dataclass",
    "write_snapshot",
]

#: Snapshot schema identifier (bump on incompatible change).  Policy:
#: a loader accepts exactly the schemas it names; there is no silent
#: best-effort parse of newer or older formats (see docs/snapshots.md).
SNAP_SCHEMA = "repro.snap/1"

_TAG = "__snap__"


class SnapshotError(ValueError):
    """A snapshot failed validation (corrupt, truncated, or foreign).

    Raised *before* any state is mutated: loading and restoring are
    two phases, and every integrity check lives in the first.
    """


# -- dataclass whitelist --------------------------------------------------

#: name -> class for dataclasses allowed in snapshots.  Populated by
#: :func:`register_dataclass` and by :func:`_load_builtins` on first
#: use (lazy, to keep this module import-light).
_DATACLASSES: Dict[str, type] = {}
_BUILTINS_LOADED = False
#: Dataclasses whose nodes one :func:`decode` returns as one object per
#: distinct encoding.  A keyframe is write-once and its lookup maps are
#: rebuilt on first use, so the slots holding one keyframe share it and
#: its maps are rebuilt once, not once per slot.
_INTERNED = frozenset({"Keyframe"})


def register_dataclass(cls: type, name: Optional[str] = None) -> type:
    """Whitelist a dataclass for snapshot encoding; returns ``cls``."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    _DATACLASSES[name or cls.__name__] = cls
    return cls


def _load_builtins() -> None:
    """Register the tracker/serving dataclasses (idempotent, lazy)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.geometry.camera import CameraIntrinsics
    from repro.geometry.se3 import SE3
    from repro.pim.config import PIMConfig
    from repro.pim.cost import CostLedger
    from repro.vo.config import TrackerConfig
    from repro.vo.tracker import Keyframe, TrackerState
    for cls in (CameraIntrinsics, SE3, PIMConfig, CostLedger,
                TrackerConfig, Keyframe, TrackerState):
        register_dataclass(cls)


def _dataclass_name(obj) -> Optional[str]:
    _load_builtins()
    for name, cls in _DATACLASSES.items():
        if type(obj) is cls:
            return name
    return None


# -- encode / decode ------------------------------------------------------

def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise SnapshotError(f"invalid base64 payload: {exc}") from exc


def encode(obj: Any) -> Any:
    """Encode a whitelisted object graph into JSON-safe structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, np.generic):
        # A 0-d scalar keeps its dtype through the array encoding, so
        # e.g. an np.int64 count round-trips as np.int64, not int.
        return encode(np.asarray(obj))
    if isinstance(obj, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d, so keep the original
        # shape: a scalar array must round-trip as a scalar array.
        arr = np.ascontiguousarray(obj)
        return {_TAG: "nd", "dtype": arr.dtype.str,
                "shape": list(obj.shape), "data": _b64(arr.tobytes())}
    if isinstance(obj, bytes):
        return {_TAG: "bytes", "data": _b64(obj)}
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [encode(v) for v in obj]}
    if isinstance(obj, list):
        return [encode(v) for v in obj]
    if isinstance(obj, Counter):
        # Counter keys may be OpKind enums or (OpKind, ...) tuples;
        # store as an ordered pair list so keys stay structured.
        return {_TAG: "counter",
                "items": [[encode(_encode_key(k)), int(v)]
                          for k, v in sorted(
                              obj.items(), key=lambda kv: repr(kv[0]))]}
    if isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:
            raise SnapshotError(
                f"dict keys must be strings, got {bad[:3]!r}")
        if _TAG in obj:
            raise SnapshotError(f"dict key {_TAG!r} is reserved")
        return {k: encode(v) for k, v in obj.items()}
    name = _dataclass_name(obj)
    if name is not None:
        fields = {f.name: encode(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {_TAG: "dc", "type": name, "fields": fields}
    from repro.pim.isa import OpKind
    if isinstance(obj, OpKind):
        return {_TAG: "opkind", "name": obj.name}
    raise SnapshotError(
        f"cannot snapshot object of type {type(obj).__name__}; "
        f"register it or encode it explicitly")


def _encode_key(key: Any) -> Any:
    """Counter keys: enums, strings, ints, or tuples thereof."""
    return key


def decode(obj: Any) -> Any:
    """Inverse of :func:`encode`; raises :class:`SnapshotError`.

    Nodes of an :data:`_INTERNED` dataclass with equal encodings decode
    to one object.
    """
    return _decode(obj, {})


def _node_key(node: Any) -> Any:
    """A hashable key, equal for two encoded nodes exactly when they are
    equal as JSON of the same types.  Unlike :func:`canonical_bytes` it
    copies no payload: a base64 string is hashed in place, once."""
    if isinstance(node, dict):
        return dict, tuple(sorted((k, _node_key(v))
                                  for k, v in node.items()))
    if isinstance(node, list):
        return list, tuple(_node_key(v) for v in node)
    return type(node), node


def _decode(obj: Any, interned: dict) -> Any:
    """:func:`decode`, with ``interned`` mapping the :func:`_node_key`
    of each interned node decoded so far to its object."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [_decode(v, interned) for v in obj]
    if not isinstance(obj, dict):
        raise SnapshotError(f"unexpected node {type(obj).__name__}")
    kind = obj.get(_TAG)
    if kind is None:
        return {k: _decode(v, interned) for k, v in obj.items()}
    if kind == "nd":
        try:
            dtype = np.dtype(obj["dtype"])
            shape = tuple(int(s) for s in obj["shape"])
            raw = _unb64(obj["data"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed array node: {exc}") from exc
        expect = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) \
            if shape else dtype.itemsize
        if len(raw) != expect:
            raise SnapshotError(
                f"array payload is {len(raw)} bytes, expected "
                f"{expect} for dtype {dtype} shape {shape}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if kind == "bytes":
        return _unb64(obj["data"])
    if kind == "tuple":
        return tuple(_decode(v, interned) for v in obj["items"])
    if kind == "counter":
        counter: Counter = Counter()
        for key, value in obj["items"]:
            counter[_decode(key, interned)] = int(value)
        return counter
    if kind == "opkind":
        from repro.pim.isa import OpKind
        try:
            return OpKind[obj["name"]]
        except KeyError as exc:
            raise SnapshotError(
                f"unknown OpKind {obj.get('name')!r}") from exc
    if kind == "dc":
        _load_builtins()
        cls = _DATACLASSES.get(obj.get("type"))
        if cls is None:
            raise SnapshotError(
                f"unknown dataclass {obj.get('type')!r} in snapshot")
        key = None
        if obj["type"] in _INTERNED:
            key = _node_key(obj)
            if key in interned:
                return interned[key]
        fields = {k: _decode(v, interned) for k, v in obj["fields"].items()}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise SnapshotError(
                f"{obj['type']} snapshot carries unknown fields "
                f"{sorted(unknown)}; likely a newer format")
        value = cls(**fields)
        if key is not None:
            interned[key] = value
        return value
    raise SnapshotError(f"unknown node kind {kind!r}")


# -- hashing and the manifest ---------------------------------------------

def canonical_bytes(obj: Any) -> bytes:
    """One logical value, one byte string (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True).encode("utf-8")


def content_hash(obj: Any) -> str:
    """sha256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def make_snapshot(kind: str, sections: Dict[str, Any],
                  **context) -> dict:
    """Assemble a snapshot document with its content-hash manifest.

    ``sections`` maps section names to *already encoded* JSON-safe
    values (use :func:`encode`).  The manifest hashes each section
    individually and then hashes ``{schema, kind, section_hashes}``
    into the overall ``content_hash`` -- the stamp and ``context``
    are provenance, deliberately outside the hash, so two snapshots of
    the same state taken at different times hash identically.
    """
    section_hashes = {name: content_hash(payload)
                      for name, payload in sections.items()}
    overall = content_hash({"schema": SNAP_SCHEMA, "kind": kind,
                            "sections": section_hashes})
    return {
        "schema": SNAP_SCHEMA,
        "kind": kind,
        "stamp": run_stamp(),
        "context": context,
        "manifest": {"sections": section_hashes,
                     "content_hash": overall},
        "sections": sections,
    }


def verify_snapshot(snap: Any, kind: Optional[str] = None) -> dict:
    """Validate structure + every hash; returns ``snap``.

    Raises :class:`SnapshotError` on any mismatch.  This is the whole
    corrupt/truncated-bundle defence: nothing is decoded or restored
    until the document's bytes hash to what its manifest claims.
    """
    if not isinstance(snap, dict):
        raise SnapshotError("snapshot is not a JSON object")
    if snap.get("schema") != SNAP_SCHEMA:
        raise SnapshotError(
            f"unsupported snapshot schema {snap.get('schema')!r} "
            f"(this build reads {SNAP_SCHEMA!r})")
    if kind is not None and snap.get("kind") != kind:
        raise SnapshotError(
            f"snapshot kind {snap.get('kind')!r} where {kind!r} "
            f"was required")
    manifest = snap.get("manifest")
    sections = snap.get("sections")
    if not isinstance(manifest, dict) or not isinstance(sections, dict):
        raise SnapshotError("snapshot is missing manifest or sections")
    claimed = manifest.get("sections")
    if not isinstance(claimed, dict) or \
            set(claimed) != set(sections):
        raise SnapshotError("manifest does not cover the sections")
    for name, payload in sections.items():
        actual = content_hash(payload)
        if actual != claimed[name]:
            raise SnapshotError(
                f"section {name!r} hash mismatch: snapshot is corrupt "
                f"({actual[:12]} != {str(claimed[name])[:12]})")
    overall = content_hash({"schema": snap["schema"],
                            "kind": snap.get("kind"),
                            "sections": claimed})
    if overall != manifest.get("content_hash"):
        raise SnapshotError("manifest content hash mismatch")
    return snap


def write_snapshot(path, snap: dict) -> Path:
    """Atomically serialize a snapshot document to ``path``.

    Written to a temp file in the destination directory, flushed,
    fsynced, then renamed into place -- a reader can never observe a
    half-written snapshot, and a crash mid-write leaves the previous
    file (if any) intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(snap, sort_keys=True, indent=1,
                         allow_nan=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path, kind: Optional[str] = None) -> dict:
    """Read and fully verify a snapshot file.

    Raises :class:`SnapshotError` (with the path in the message) on a
    missing, truncated, corrupt, or foreign-schema file; no partial
    result ever escapes.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") \
            from exc
    try:
        snap = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot {path} is not valid JSON (truncated?): "
            f"{exc}") from exc
    try:
        return verify_snapshot(snap, kind=kind)
    except SnapshotError as exc:
        raise SnapshotError(f"snapshot {path}: {exc}") from exc
