"""Deterministic session transfer and record/replay.

The PIM-SRAM VO pipeline is fixed-point and fully deterministic, so a
session's tracker state moves between services bit-exactly and a
captured incident replays to the exact faulting frame.  This package
turns that property into three tools:

* :mod:`repro.snap.codec` -- the versioned snapshot format
  (``repro.snap/1``): a tagged canonical encoding of numpy arrays,
  poses, and whitelisted dataclasses with a per-section content-hash
  manifest, atomic on-disk serialization, and strict integrity
  verification on load (a corrupt or truncated snapshot is rejected
  before anything is restored).
* :mod:`repro.snap.state` -- the one state-transfer primitive: a
  session record exported on the source
  (:meth:`~repro.serve.session.SessionManager.export_session`),
  encoded with each keyframe as its edge maps
  (:func:`encode_session_record`) and imported on the target
  (:func:`restore_session_record`).  Failover, drain, rebalance and
  shard checkpoints all move state this way.
* :mod:`repro.snap.capture` -- the record/replay path: a per-session
  inbound-frame + seed capture ring that dumps replayable incident
  bundles (wired into the flight recorder's breaker-open path), and
  an offline replayer that re-executes an incident to the exact
  faulting frame under the tracer.

``python -m repro.snap replay <bundle>`` is the operator entry point.
"""

from repro.snap.codec import (
    SNAP_SCHEMA,
    SnapshotError,
    content_hash,
    decode,
    encode,
    load_snapshot,
    make_snapshot,
    verify_snapshot,
    write_snapshot,
)
from repro.snap.capture import CaptureRing, ReplayReport, replay_bundle
from repro.snap.state import encode_session_record, restore_session_record

__all__ = [
    "SNAP_SCHEMA",
    "SnapshotError",
    "CaptureRing",
    "ReplayReport",
    "content_hash",
    "decode",
    "encode",
    "encode_session_record",
    "load_snapshot",
    "make_snapshot",
    "replay_bundle",
    "restore_session_record",
    "verify_snapshot",
    "write_snapshot",
]
