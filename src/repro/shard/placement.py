"""Pure placement policy of the shard plane: ring, backoff, replay.

Three deliberately side-effect-free pieces live here so the
property-test suite can pin them without processes or sockets:

* :class:`HashRing` -- consistent hashing of session ids onto shard
  ids.  Each shard owns ``vnodes`` points on a 64-bit ring (SHA-256
  derived, so placement is stable across processes and python runs);
  a key maps to the first point clockwise from its own hash.  The
  property that makes elastic scale-out cheap: adding a shard only
  remaps keys that now land on the *new* shard, and removing one only
  remaps keys that lived on the *removed* shard -- everything else
  stays put (~K/N of K keys move for an N-shard ring).
* :class:`RestartBackoff` -- exponential respawn delay with a hard
  cap and a restart *budget*: a crashing shard is respawned after
  ``base * factor**attempt`` seconds (never above ``cap_s``), and
  after ``budget`` respawns without a clean recovery the supervisor
  gives up and marks the shard failed instead of flapping forever.
  A shard that stays up for ``reset_after_s`` earns its budget back.
* :func:`failover_replay_plan` -- given the last checkpoint watermark
  and the captured tail (the router's
  :class:`~repro.snap.capture.CaptureRing` records plus still-pending
  requests), produce the exact ordered frame list that rebuilds the
  session bit-identically on the target shard.  Raises
  :class:`ReplayGap` when the tail cannot (ring overflow, or a frame
  that failed terminally), because replaying across either would
  silently corrupt the stream.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["HashRing", "ReplayGap", "RestartBackoff",
           "failover_replay_plan"]


def _point(material: str) -> int:
    """Stable 64-bit ring position of a string."""
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hash ring mapping string keys to shard ids."""

    def __init__(self, shards: Iterable[int] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owner: Dict[int, int] = {}
        self._shards: set = set()
        for shard in shards:
            self.add(shard)

    def add(self, shard: int) -> None:
        """Place one shard's virtual nodes on the ring (idempotent)."""
        if shard in self._shards:
            return
        self._shards.add(shard)
        for v in range(self.vnodes):
            point = _point(f"shard:{shard}:vnode:{v}")
            # SHA-256 collisions across distinct labels are not a
            # practical concern; keep the first owner if one occurs.
            if point in self._owner:
                continue
            bisect.insort(self._points, point)
            self._owner[point] = shard

    def remove(self, shard: int) -> None:
        """Take one shard's virtual nodes off the ring (idempotent)."""
        if shard not in self._shards:
            return
        self._shards.discard(shard)
        stale = [p for p, s in self._owner.items() if s == shard]
        for point in stale:
            del self._owner[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def shards(self) -> List[int]:
        return sorted(self._shards)

    def __contains__(self, shard: int) -> bool:
        return shard in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def lookup(self, key: str,
               exclude: Iterable[int] = ()) -> Optional[int]:
        """Owning shard of ``key`` (first ring point clockwise).

        ``exclude`` skips shards (the failover path excludes the dead
        one and takes the next point clockwise, so the fallback target
        is as stable as the ring itself).  Returns ``None`` when no
        eligible shard exists.
        """
        excluded = set(exclude)
        eligible = self._shards - excluded
        if not eligible or not self._points:
            return None
        start = bisect.bisect_right(self._points, _point(f"key:{key}"))
        n = len(self._points)
        for step in range(n):
            owner = self._owner[self._points[(start + step) % n]]
            if owner not in excluded:
                return owner
        return None


class RestartBackoff:
    """Exponential respawn delay with a hard cap and restart budget."""

    def __init__(self, base_s: float = 0.05, factor: float = 2.0,
                 cap_s: float = 2.0, budget: int = 5,
                 reset_after_s: float = 30.0):
        if base_s <= 0 or cap_s <= 0:
            raise ValueError("base_s and cap_s must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if budget < 1:
            raise ValueError("budget must be positive")
        self.base_s = base_s
        self.factor = factor
        self.cap_s = min(cap_s, max(base_s, cap_s))
        if self.cap_s < base_s:
            self.cap_s = base_s
        self.budget = budget
        self.reset_after_s = reset_after_s
        self.attempts = 0

    def next_delay_s(self) -> float:
        """Delay before the next respawn; consumes one budget slot."""
        delay = self.base_s * (self.factor ** self.attempts)
        self.attempts += 1
        return min(delay, self.cap_s)

    def exhausted(self) -> bool:
        """True once the restart budget is spent."""
        return self.attempts >= self.budget

    def remaining(self) -> int:
        return max(0, self.budget - self.attempts)

    def note_stable(self, uptime_s: float) -> None:
        """A shard that stayed up long enough earns its budget back."""
        if uptime_s >= self.reset_after_s:
            self.reset()

    def reset(self) -> None:
        self.attempts = 0

    def stats(self) -> dict:
        return {
            "attempts": self.attempts,
            "budget": self.budget,
            "remaining": self.remaining(),
            "cap_s": self.cap_s,
        }


class ReplayGap(RuntimeError):
    """The captured tail cannot rebuild the session bit-identically.

    Raised for a seq past the watermark that nothing explains (the
    capture ring overflowed past the last checkpoint) or that failed
    terminally (``reason`` says which): replaying across either would
    rebuild a *different* stream, so failover refuses and reports the
    session lost instead of serving silently-corrupt state.
    """

    def __init__(self, session: str, watermark: int,
                 missing: Sequence[int] = (),
                 reason: Optional[str] = None):
        self.session = session
        self.watermark = watermark
        self.missing = list(missing)
        if reason is None:
            reason = (f"frames {self.missing} missing from the capture "
                      f"tail")
        super().__init__(
            f"session {session!r}: {reason} after watermark {watermark}")


def failover_replay_plan(session: str, watermark: int,
                         tail: Sequence[Tuple[int, str, object]],
                         orphans: Sequence[Tuple[int, object]]
                         ) -> List[Tuple[int, object]]:
    """Ordered ``(seq, frame)`` list that rebuilds a session's state.

    This is the replay invariant of the shard plane.  ``watermark`` is
    the last seq whose outcome the restored checkpoint reflects -- the
    worker settles it on every frame it runs, rolled-back ones
    included.  ``tail`` holds the router's ``(seq, kind, frame)``
    capture records past it and ``orphans`` the ``(seq, request)``
    pairs whose replies never arrived.  Every seq in
    ``(watermark, last]`` must be explained exactly once:

    * an ``"ok"`` record -- the client saw it applied: replay it;
    * a ``"skipped"`` record -- shed or expired before it touched
      state: skip it;
    * an orphan -- still owed to its client: re-dispatch it.

    An ``"error"`` record past the watermark refuses the plan: the
    worker rolled the session back to its last good keyframe there,
    so the stream alone no longer determines the state.  Entries at or
    below the watermark are already in the checkpoint and ignored.
    The plan lists the replayed and re-dispatched frames in strictly
    increasing seq order -- per-session ordering across failover is
    exactly this function's output contract.

    Raises :class:`ReplayGap` on an error record or an unexplained
    seq, and ``ValueError`` on a seq explained twice.
    """
    merged: Dict[int, Tuple[str, object]] = {}
    for seq, kind, frame in list(tail) + [(seq, "orphan", req)
                                          for seq, req in orphans]:
        seq = int(seq)
        if seq <= watermark:
            continue
        if seq in merged:
            raise ValueError(
                f"session {session!r}: duplicate frame seq {seq} in "
                f"the failover tail")
        merged[seq] = (kind, frame)
    errors = [seq for seq, (kind, _) in merged.items() if kind == "error"]
    if errors:
        raise ReplayGap(session, watermark,
                        reason=f"frame {min(errors)} failed terminally")
    missing = [seq for seq in range(watermark + 1,
                                    max(merged, default=watermark) + 1)
               if seq not in merged]
    if missing:
        raise ReplayGap(session, watermark, missing)
    return [(seq, frame) for seq, (kind, frame) in sorted(merged.items())
            if kind != "skipped"]
