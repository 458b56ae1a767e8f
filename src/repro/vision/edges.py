"""Reference edge-detection pipeline (paper Fig. 1-a, Figs. 2-4).

The pipeline is LPF -> HPF -> NMS:

* the LPF smooths sensor noise (3x3 binomial),
* the HPF produces an edge-strength response; the paper replaces the
  Sobel magnitude with a saturated sum of absolute differences (SAD)
  over the four opposite-neighbour directions,
* the NMS keeps pixels that are both strong (``> th1``) and locally
  maximal along at least one direction by a margin (``> th2``).

These are the semantics the PIM kernel mappings in
:mod:`repro.kernels` must match exactly (in integer arithmetic).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.vision.filters import binomial_lpf

__all__ = ["hpf_sad_reference", "nms_reference", "detect_edges_reference",
           "DEFAULT_TH1", "DEFAULT_TH2"]

#: Default absolute edge-strength threshold (on the 8-bit HPF response).
DEFAULT_TH1 = 40
#: Default local-maximum margin.
DEFAULT_TH2 = 2


def _neighbour(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """``img`` at ``(y + dy, x + dx)`` for every interior pixel ``(y, x)``.

    The interior is ``[1:-1, 1:-1]``, where every 3x3 neighbour is in
    the image; the result is a view of that shape (empty below 3x3).
    """
    h, w = img.shape
    return img[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]


#: The largest value of an int16 lane.
_INT16_MAX = int(np.iinfo(np.int16).max)


def _lanes(values, peak: int, known_peak: Optional[int] = None
           ) -> np.ndarray:
    """``values`` as integers, in int16 lanes while that is exact.

    The bound comes first: int16 when every value truncates into
    ``[-peak, peak]`` (the caller picks ``peak`` so its arithmetic
    cannot leave int16), int64 otherwise.  Float values truncate
    toward zero either way, as ``astype`` does.  ``known_peak`` is a
    bound on ``|values|`` the caller already holds; when it is within
    ``peak`` the ``min``/``max`` pass is skipped.
    """
    values = np.asarray(values)
    if known_peak is not None and known_peak <= peak:
        return values.astype(np.int16, copy=False)
    if values.size and -peak - 1 < values.min() and \
            values.max() < peak + 1:
        return values.astype(np.int16, copy=False)
    return values.astype(np.int64, copy=False)


#: The four opposite-neighbour pairs around the centre pixel, as
#: (dy, dx) of the first neighbour (the second is its negation):
#: main diagonal, anti-diagonal, horizontal, vertical.
_PAIRS = ((-1, -1), (-1, 1), (0, -1), (-1, 0))


def hpf_sad_reference(image: np.ndarray, saturate_bits: int = 8,
                      known_peak: Optional[int] = None) -> np.ndarray:
    """Saturated 4-direction SAD high-pass filter (Fig. 3).

    ``HPF(p) = sat( |p(-1,-1) - p(1,1)| + |p(-1,1) - p(1,-1)|
    + |p(0,-1) - p(0,1)| + |p(-1,0) - p(1,0)| )``.

    Args:
        image: 2D integer-valued array (typically the LPF output).
        saturate_bits: Saturation width of the response (8 in the
            paper, matching the pixel lanes).
        known_peak: A bound on ``|image|`` the caller guarantees
            (``None``: measured here).

    Returns:
        Integer response array of the image's shape; the one-pixel
        border is zero (no full neighbourhood).
    """
    img = _lanes(image, _INT16_MAX // 8, known_peak)
    acc = np.zeros_like(img)
    inner = acc[1:-1, 1:-1]
    diff = np.empty_like(inner)
    for dy, dx in _PAIRS:
        np.subtract(_neighbour(img, dy, dx), _neighbour(img, -dy, -dx),
                    out=diff)
        inner += np.abs(diff, out=diff)
    saturate = (1 << saturate_bits) - 1
    np.minimum(inner, min(saturate, np.iinfo(acc.dtype).max), out=inner)
    return acc


def nms_reference(response: np.ndarray, th1: int = DEFAULT_TH1,
                  th2: int = DEFAULT_TH2,
                  known_peak: Optional[int] = None) -> np.ndarray:
    """The *original* branchy NMS kernel (Fig. 4, left).

    A pixel is an edge when its response exceeds ``th1`` and it beats
    *both* neighbours of at least one opposite-direction pair by more
    than ``th2``:

    ``b2 > th1 AND ( (b2-a1 > th2 AND b2-c3 > th2) OR ... )``

    over the four pairs (diagonals, horizontal, vertical).  The PIM
    kernel implements the branch-free simplification
    ``b2 > th1 AND b2 - th2 > min(max(pair) for each pair)`` and is
    tested to be exactly equivalent.  ``known_peak`` is a bound on
    ``|response|`` the caller guarantees (``None``: measured here).
    """
    r = _lanes(response, _INT16_MAX - abs(th2), known_peak)
    centre = r[1:-1, 1:-1]
    # b2 - a > th2  <=>  b2 - th2 > a: one subtraction for all pairs.
    lifted = centre - th2
    any_direction = np.zeros(centre.shape, dtype=bool)
    for dy, dx in _PAIRS:
        any_direction |= ((lifted > _neighbour(r, dy, dx)) &
                          (lifted > _neighbour(r, -dy, -dx)))
    edges = np.zeros(r.shape, dtype=bool)
    edges[1:-1, 1:-1] = (centre > th1) & any_direction
    return edges


def _binomial_floor_u8(image: np.ndarray) -> np.ndarray:
    """``floor(binomial_lpf(image))`` of a ``[0, 255]`` integer image.

    The edge-padded ``(1, 2, 1)`` row sum, then column sum, is 16 times
    the binomial LPF, at most ``16 * 255`` so in int16; ``>> 4`` floors
    it.  This is exact, not close: every tap product and partial sum of
    the float LPF is a multiple of 1/16 below 256, so none rounds and
    any tap order gives the same floor.
    """
    h, w = image.shape
    # Padded by hand: np.pad(mode="edge") takes ~38 us per QVGA frame
    # against ~13 us for these copies (2-core x86_64).
    padded = np.empty((h + 2, w + 2), dtype=np.int16)
    padded[1:-1, 1:-1] = image
    padded[0] = padded[1]
    padded[-1] = padded[-2]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    centre = padded[:, 1:-1]
    rows = padded[:, :-2] + padded[:, 2:]
    rows += centre
    rows += centre
    centre = rows[1:-1]
    out = rows[:-2] + rows[2:]
    out += centre
    out += centre
    out >>= 4
    return out


def detect_edges_reference(image: np.ndarray, th1: int = DEFAULT_TH1,
                           th2: int = DEFAULT_TH2) -> np.ndarray:
    """Full reference edge detector: LPF -> SAD HPF -> NMS.

    The LPF is the float binomial of :func:`binomial_lpf`, floored
    once.  The PIM mirror (:func:`repro.kernels.detect_edges_fast`)
    floors after each of its two 2x2 averages instead, so on the same
    integer gray the two edge maps differ on some pixels.  An integer
    image in ``[0, 255]`` takes an exact int16 LPF with the same
    floored result (:func:`_binomial_floor_u8`); any other image (float
    gray, out of range, empty) takes the float one.

    Args:
        image: 8-bit grayscale image (any numeric dtype, values 0-255).

    Returns:
        Boolean edge map of the image's shape.
    """
    image = np.asarray(image)
    if image.size and image.dtype.kind in "iu" and \
            0 <= image.min() and image.max() <= 255:
        # Both stages' inputs are int16 in [0, 255]: the LPF floor of
        # an 8-bit image, then the response saturated to 8 bits.
        response = hpf_sad_reference(_binomial_floor_u8(image),
                                     known_peak=255)
        return nms_reference(response, th1, th2, known_peak=255)
    smooth = binomial_lpf(image)
    np.floor(smooth, out=smooth)
    # The HPF casts the floored LPF straight into its lanes.
    response = hpf_sad_reference(smooth)
    return nms_reference(response, th1, th2)
