"""Host speed probe: quote measured times at one fixed host speed.

On a shared 2-core host the same fixed loop runs anywhere from 0.8x to
1.5x its idle time, in stretches of tens of seconds, as neighbouring
load comes and goes.  More work per run does not average that out, so
the benchmark times a fixed reference kernel next to the work it
measures and rescales each measured time by ``NOMINAL_S / probe``: the
time the work would have taken with the probe at its nominal speed.

The kernel is the dominant pattern of the tracked frame -- 80-lane
int64 batches, product, shift, saturating clip, sum -- so it slows
down with the host the way the tracker does.  Every run record keeps
the raw probe readings next to the rescaled metrics.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds one probe takes on the reference host (x86_64, 2 cores,
#: Python 3.11, numpy 2.4) at its fastest; the speed every rescaled
#: time is quoted at.
NOMINAL_S = 0.0125

_LANES = 80
_OPERANDS = np.random.default_rng(0).integers(-1000, 1000, (6000, 6))


def probe() -> float:
    """Seconds one run of the reference kernel takes right now."""
    start = perf_counter()
    total = 0
    for _ in range(20):
        for i in range(0, len(_OPERANDS), _LANES):
            lanes = _OPERANDS[i:i + _LANES]
            total += int(np.clip((lanes[:, 0] * lanes[:, 1]) >> 1,
                                 -2 ** 31, 2 ** 31 - 1).sum())
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two probes."""
    return 2.0 * NOMINAL_S / (before + after)
