"""Full in-PIM edge detection: LPF -> HPF -> NMS (paper Fig. 1-a).

The three kernels chain *in place* inside the SRAM array: the LPF
overwrites the image, the HPF overwrites the smoothed image (one row of
lag), the NMS overwrites the response (another row of lag).  The host
reads back a 0/1 mask whose indices are offset from the original image
by the accumulated kernel alignments; :func:`mask_to_image_coords`
undoes the offset.

Coordinate bookkeeping (``img`` = original image):

* LPF output row ``r`` is centred at ``img[r + 1, c + 1]``.
* HPF output row ``i`` is centred at LPF row ``i + 1`` (columns
  centre-aligned) -> ``img[i + 2, c + 1]``.
* NMS output row ``j`` decides HPF row ``j + 1`` -> ``img[j + 3, c + 1]``.

The valid interior is ``3 <= v <= H - 4`` and ``3 <= u <= W - 5``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.kernels.common import (
    LANE_PAD,
    load_image,
    pixels_u8,
    read_image,
    zero_extend,
)
from repro.kernels.hpf import hpf_pim, hpf_pim_replay, hpf_u8
from repro.kernels.lpf import lpf_pim, lpf_u8
from repro.kernels.nms import nms_pim, nms_pim_replay, nms_u8
from repro.obs.tracer import span as obs_span
from repro.vision.edges import DEFAULT_TH1, DEFAULT_TH2

__all__ = ["EdgeDetectionResult", "detect_edges_fast", "detect_edges_pim",
           "detect_edges_replay", "mask_to_image_coords",
           "EDGE_ROW_OFFSET", "EDGE_COL_OFFSET", "VALID_MARGIN"]

#: Mask row ``j`` corresponds to image row ``j + EDGE_ROW_OFFSET``.
EDGE_ROW_OFFSET = 3
#: Mask col ``c`` corresponds to image col ``c + EDGE_COL_OFFSET``.
EDGE_COL_OFFSET = 1
#: Border width (in image pixels) outside which decisions are invalid.
VALID_MARGIN = 4


@dataclass
class EdgeDetectionResult:
    """Output of the edge-detection pipeline.

    Attributes:
        edge_map: Boolean map in original image coordinates.
        cycles: Per-stage device cycles (empty for the fast path).
    """

    edge_map: np.ndarray
    cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        """Total device cycles across stages."""
        return sum(self.cycles.values())


def mask_to_image_coords(mask: np.ndarray, height: int,
                         width: int) -> np.ndarray:
    """Re-index the kernel-aligned mask into original image coordinates.

    Only the valid interior, ``VALID_MARGIN`` pixels in from each
    border, is kept, copied out of the mask once.  The mask may be
    wider than the image (the flat lanes' trailing columns are never
    read); a non-bool mask counts its positive entries.
    """
    edge = np.zeros((height, width), dtype=bool)
    m = VALID_MARGIN
    if height > 2 * m and width > 2 * m:
        src = mask[m - EDGE_ROW_OFFSET:height - m - EDGE_ROW_OFFSET,
                   m - EDGE_COL_OFFSET:width - m - EDGE_COL_OFFSET]
        edge[m:height - m, m:width - m] = src if src.dtype == bool \
            else src > 0
    return edge


def detect_edges_fast(image: np.ndarray, th1: int = DEFAULT_TH1,
                      th2: int = DEFAULT_TH2) -> EdgeDetectionResult:
    """Edge detection with exact PIM arithmetic, vectorized.

    The three stages chain on flat uint8 lanes, as the device's 8-bit
    rows do (:func:`~repro.kernels.lpf.lpf_u8`).  The image is
    truncated to integers and refused outside ``[0, 255]`` exactly
    like :func:`load_image` refuses it.
    """
    img = pixels_u8(image)
    mask = nms_u8(hpf_u8(lpf_u8(zero_extend(img, LANE_PAD))), th1, th2)
    return EdgeDetectionResult(edge_map=mask_to_image_coords(mask,
                                                             *img.shape))


def detect_edges_pim(device, image: np.ndarray, th1: int = DEFAULT_TH1,
                     th2: int = DEFAULT_TH2,
                     base_row: int = 0) -> EdgeDetectionResult:
    """Edge detection executed on the PIM device, with per-stage cycles.

    Produces a mask bit-identical to :func:`detect_edges_fast` and
    leaves the cycle/access counts in the device ledger.
    """
    img = np.asarray(image)
    height, width = img.shape
    load_image(device, img, base_row)
    cycles = {}
    with obs_span("detect_edges", device=device, category="pipeline",
                  height=height, width=width, variant="eager"):
        snap = device.ledger.snapshot()
        lpf_pim(device, height, base_row)
        cycles["lpf"] = device.ledger.cycles - snap.cycles

        snap = device.ledger.snapshot()
        hpf_pim(device, height, base_row)
        cycles["hpf"] = device.ledger.cycles - snap.cycles

        snap = device.ledger.snapshot()
        nms_pim(device, height, th1, th2, base_row)
        cycles["nms"] = device.ledger.cycles - snap.cycles

    mask = read_image(device, height, width, base_row)
    return EdgeDetectionResult(
        edge_map=mask_to_image_coords(mask, height, width),
        cycles=cycles)


def detect_edges_replay(device, image: np.ndarray, th1: int = DEFAULT_TH1,
                        th2: int = DEFAULT_TH2, base_row: int = 0,
                        mode: str = "auto") -> EdgeDetectionResult:
    """Edge detection via compiled-program replay (row-batched).

    Each stage's per-row body is compiled once (cached in
    :data:`~repro.kernels.common.KERNEL_PROGRAM_CACHE`) and replayed
    across all rows as vectorized numpy ops, with the ledger charged
    analytically per stage.  The mask is bit-identical to
    :func:`detect_edges_fast`; the HPF/NMS cycle counts are slightly
    higher than :func:`detect_edges_pim` because the batchable bodies
    recompute the row shifts the eager ring kernels carry across
    iterations.  ``mode`` is forwarded to
    :meth:`~repro.pim.device.PIMDevice.run_program` (``"eager"``
    executes the same programs row by row -- the equivalence and
    benchmark reference).
    """
    img = np.asarray(image)
    height, width = img.shape
    load_image(device, img, base_row)
    cycles = {}
    with obs_span("detect_edges", device=device, category="pipeline",
                  height=height, width=width, variant="replay",
                  mode=mode):
        start = device.ledger.cycles
        lpf_pim(device, height, base_row, mode=mode)
        cycles["lpf"] = device.ledger.cycles - start

        start = device.ledger.cycles
        hpf_pim_replay(device, height, base_row, mode=mode)
        cycles["hpf"] = device.ledger.cycles - start

        start = device.ledger.cycles
        nms_pim_replay(device, height, th1, th2, base_row, mode=mode)
        cycles["nms"] = device.ledger.cycles - start

    mask = read_image(device, height, width, base_row)
    return EdgeDetectionResult(
        edge_map=mask_to_image_coords(mask, height, width),
        cycles=cycles)
