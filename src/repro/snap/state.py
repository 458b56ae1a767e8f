"""The one state-transfer primitive: the session record.

Serving state moves one session at a time.  The source quiesces the
session and exports it (:meth:`SessionManager.export_session`: tracker
state, checkpoint, generation and watermarks), encodes the record with
:func:`encode_session_record`, and the target imports it with
:func:`restore_session_record`.  Failover, shard drain and rebalance,
and the shard worker's checkpoint sweep all use this one pair.  No
device state travels: an imported session's next frame resets the
serving worker's devices, exactly like a fresh stream.

A record's tracker state and its checkpoint share most of their
keyframes (the paper's per-keyframe DT and gradient maps, the bulk of
the record), so each distinct keyframe is encoded once, into the
record's ``keyframes`` table, and referenced from everywhere else.
"""

from __future__ import annotations

from repro.snap.codec import decode, encode

__all__ = ["encode_session_record", "restore_session_record"]

#: Key of the keyframe table in an encoded session record.
KEYFRAMES = "keyframes"


def encode_session_record(record: dict) -> dict:
    """Encode an exported session record, each keyframe exactly once.

    The keyframes of ``state`` and then ``checkpointed`` (each state's
    ``keyframe``, then its ``recent_keyframes``) are collected by
    identity in that fixed order and named ``k0``, ``k1``, ...; the
    record refers to them by name.  The same live state therefore
    always encodes to the same bytes.
    """
    refs = {}
    table = {}
    for state in (record["state"], record["checkpointed"]):
        if state is None:
            continue
        for keyframe in (state.keyframe, *state.recent_keyframes):
            if keyframe is not None and id(keyframe) not in refs:
                key = f"k{len(refs)}"
                refs[id(keyframe)] = key
                table[key] = encode(keyframe)
    encoded = encode(record, refs=refs)
    encoded[KEYFRAMES] = table
    return encoded


def restore_session_record(manager, encoded_record):
    """Import one encoded session record into a ``SessionManager``.

    Everything is decoded before anything is imported: a keyframe
    ref the table lacks raises :class:`~repro.snap.codec.SnapshotError`
    and admits no session.  A record without a keyframe table decodes
    as plain :func:`~repro.snap.codec.encode` output.
    """
    body = dict(encoded_record)
    table = body.pop(KEYFRAMES, None)
    keyframes = None if table is None else {
        key: decode(node) for key, node in table.items()}
    return manager.import_session(decode(body, refs=keyframes))
