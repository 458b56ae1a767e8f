"""The one state-transfer primitive: the session record.

Serving state moves one session at a time.  The source quiesces the
session and exports it (:meth:`SessionManager.export_session`: tracker
state, checkpoint, generation and watermarks), encodes the record with
:func:`encode_session_record`, and the target imports it with
:func:`restore_session_record`.  Failover, shard drain and rebalance,
and the shard worker's checkpoint sweep all use this one pair.  No
device state travels: an imported session's next frame resets the
serving worker's devices, exactly like a fresh stream.

A keyframe travels as its pose and its boolean edge maps, one per
pyramid level, encoded inline in every slot that holds it.  Its DT
and gradient maps are a pure function of those edges, so they stay
behind; the importing tracker rebuilds them the first time it tracks
against the keyframe (:meth:`repro.vo.tracker.EBVOTracker.keyframe_maps`).
The slots of one keyframe decode to one object, so that happens once
per keyframe, whichever slot a restore tracks from.
"""

from __future__ import annotations

from repro.snap.codec import decode, encode

__all__ = ["encode_session_record", "restore_session_record"]


def encode_session_record(record: dict) -> dict:
    """Encode an exported session record.

    The same live state always encodes to the same bytes.
    """
    return encode(record)


def restore_session_record(manager, encoded_record):
    """Import one encoded session record into a ``SessionManager``.

    The record is decoded in full before anything is imported: a
    malformed record raises :class:`~repro.snap.codec.SnapshotError`
    and admits no session.
    """
    return manager.import_session(decode(encoded_record))
