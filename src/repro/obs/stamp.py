"""One shared provenance stamp for every emitted artifact.

``BENCH_pim.json`` established the attribution contract: every
committed artifact carries the git revision, a timestamp, and the
toolchain versions that produced it, so the PR-over-PR trajectory
stays comparable.  ``BENCH_serve.json``, ``chaos_report.json`` and the
flight-recorder incident bundles reuse the same stamp through
:func:`run_stamp` instead of growing their own variants.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["git_sha", "run_stamp"]


#: The checkout this package runs from (``<root>/src/repro/obs``).
_ROOT = Path(__file__).resolve().parents[3]


def _git(*args: str, cwd: Path = _ROOT
         ) -> Optional[subprocess.CompletedProcess]:
    """Run one git command in a checkout; None outside one."""
    try:
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, timeout=10,
            check=True)
    except (OSError, subprocess.SubprocessError):
        return None


def git_sha() -> Optional[str]:
    """Current repository revision, or None outside a git checkout."""
    out = _git("rev-parse", "HEAD")
    sha = out.stdout.decode().strip() if out is not None else ""
    return sha or None


def _tree_state(root: Path = _ROOT) -> tuple:
    """``(git_sha, dirty, src_diff_sha256)`` of the checkout at ``root``.

    One ``git status`` names the revision and every changed path; a
    ``git diff`` runs only when ``src/`` differs from that revision.
    ``dirty`` is set by a tracked file that differs from the revision
    or by an untracked file under ``src/``.  The digest is the SHA-256
    of ``git diff HEAD -- src`` followed by the path and contents of
    each untracked file under ``src/``, so a new, uncommitted module
    changes it too; None when ``src/`` matches the revision.  All three
    are None outside a git checkout.
    """
    status = _git("status", "--porcelain=v2", "--branch", "-z",
                  "--untracked-files=all", cwd=root)
    if status is None:
        return None, None, None
    sha, dirty, src_changed, untracked = None, False, False, []
    records = iter(status.stdout.decode(errors="surrogateescape")
                   .split("\0"))
    for rec in records:
        kind, _, rest = rec.partition(" ")
        if kind == "#":
            key, _, value = rest.partition(" ")
            if key == "branch.oid" and value != "(initial)":
                sha = value
            continue
        if kind == "?":
            if rest.startswith("src/"):
                dirty = src_changed = True
                untracked.append(rest)
            continue
        if kind not in ("1", "2", "u"):
            continue
        # Changed (1), renamed (2, then its source path as the next
        # record) or unmerged (u): the path is the last field.
        paths = [rest.split(" ", {"1": 7, "2": 8, "u": 9}[kind])[-1]]
        if kind == "2":
            paths.append(next(records, ""))
        dirty = True
        src_changed |= any(p.startswith("src/") for p in paths)
    if not src_changed:
        return sha, dirty, None
    diff = _git("diff", "HEAD", "--", "src", cwd=root)
    digest = hashlib.sha256(diff.stdout if diff is not None else b"")
    for path in sorted(untracked):
        digest.update(b"\0" + path.encode(errors="surrogateescape")
                      + b"\0")
        try:
            digest.update((root / path).read_bytes())
        except OSError:
            pass
    return sha, dirty, digest.hexdigest()


def run_stamp() -> Dict[str, Optional[object]]:
    """Provenance fields in the ``BENCH_pim.json`` stamp format.

    Keys: ``timestamp`` (local ISO-8601), ``git_sha``, ``dirty``,
    ``src_diff_sha256``, ``python``, ``numpy``, ``machine``.
    ``dirty`` and ``src_diff_sha256`` (see :func:`_tree_state`) make a
    number measured on an uncommitted tree name the code it measured.
    """
    try:
        import numpy as np
        numpy_version = np.__version__
    except ImportError:                      # pragma: no cover
        numpy_version = None
    sha, dirty, src_digest = _tree_state()
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": sha,
        "dirty": dirty,
        "src_diff_sha256": src_digest,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
