"""The one state-transfer primitive: the session record.

Serving state moves one session at a time.  The source quiesces the
session and exports it (:meth:`SessionManager.export_session`: tracker
state, checkpoint, generation and watermarks), the record travels
through the :mod:`repro.snap.codec` encoding, and the target imports
it with :func:`restore_session_record`.  Failover, shard drain and
rebalance, and the shard worker's checkpoint sweep all use this one
pair.  No device state travels: an imported session's next frame
resets the serving worker's devices, exactly like a fresh stream.
"""

from __future__ import annotations

from repro.snap.codec import decode

__all__ = ["restore_session_record"]


def restore_session_record(manager, encoded_record):
    """Import one encoded session record into a ``SessionManager``."""
    return manager.import_session(decode(encoded_record))
