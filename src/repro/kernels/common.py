"""Shared helpers for mapping images onto the PIM array.

Layout convention: one image row per SRAM word line, one 8-bit pixel
per lane, row ``r`` of the image in SRAM row ``r``.  Kernels that need
16-bit arithmetic split the image into two vertical tiles (the word
line holds half as many 16-bit lanes), which is exactly the throughput
penalty the paper describes for wider precision.
"""

from __future__ import annotations

import numpy as np

from repro.pim.program import ProgramCache

__all__ = ["KERNEL_PROGRAM_CACHE", "load_image", "read_image",
           "shift_pixels", "pixels_u8", "zero_extend", "peak", "shr_peak"]

#: Process-wide LRU of compiled kernel programs.  Keys include the
#: device geometry digest (see :func:`repro.pim.program.program_key`),
#: so devices of different shapes never share entries.  Hits/misses
#: surface in the metrics registry under ``cache="kernels"``.
KERNEL_PROGRAM_CACHE = ProgramCache(capacity=64, name="kernels")


def load_image(device, image: np.ndarray, base_row: int = 0) -> None:
    """Host-DMA an 8-bit image into the array, one row per word line."""
    image = np.asarray(image)
    height, width = image.shape
    if width > device.lanes:
        raise ValueError(f"image width {width} exceeds {device.lanes} lanes")
    if base_row + height > device.config.num_rows:
        raise ValueError("image does not fit the array")
    if hasattr(device, "load_rows"):
        device.load_rows(range(base_row, base_row + height), image,
                         signed=False)
        return
    for r in range(height):
        device.load(base_row + r, image[r], signed=False)


def read_image(device, height: int, width: int,
               base_row: int = 0, signed: bool = False) -> np.ndarray:
    """Host-DMA an image back out of the array."""
    if hasattr(device, "store_rows"):
        block = device.store_rows(range(base_row, base_row + height),
                                  signed=signed)
        return np.asarray(block[:, :width], dtype=np.int64)
    rows = [device.store(base_row + r, signed=signed)[:width]
            for r in range(height)]
    return np.stack(rows).astype(np.int64)


def shift_pixels(array: np.ndarray, pixels: int) -> np.ndarray:
    """Numpy mirror of ``device.shift_lanes`` along the last axis.

    Positive ``pixels`` moves each lane's right neighbour in:
    ``out[..., i] = in[..., i + pixels]``, zero-filled.
    """
    out = np.zeros_like(array)
    if pixels == 0:
        out[...] = array
    elif pixels > 0:
        out[..., :-pixels or None] = array[..., pixels:]
    else:
        out[..., -pixels:] = array[..., :pixels]
    return out


def pixels_u8(image) -> np.ndarray:
    """An 8-bit image as uint8 lanes, refusing what the device refuses.

    Values are truncated to int64 first, as
    :meth:`~repro.pim.device.PIMDevice.load_rows` does, and anything
    outside ``[0, 255]`` raises the same :class:`ValueError`, so a
    mirror never computes on a frame :func:`load_image` would reject.
    """
    image = np.asarray(image)
    if image.dtype == np.uint8:
        return image
    img = np.asarray(image, dtype=np.int64)
    if img.size and (img.min() < 0 or img.max() > 255):
        raise ValueError("values exceed 8-bit range")
    return img.astype(np.uint8)


def zero_extend(array: np.ndarray, pixels: int) -> np.ndarray:
    """``array`` with ``pixels`` zero lanes appended on the right.

    Slice ``[..., k:k + width]`` of the result is then
    ``shift_pixels(array, k)`` for any ``0 <= k <= pixels``, so shifted
    operands are views instead of copies.
    """
    out = np.zeros(array.shape[:-1] + (array.shape[-1] + pixels,),
                   dtype=array.dtype)
    out[..., :array.shape[-1]] = array
    return out


def peak(x: np.ndarray) -> int:
    """``max |x|`` of a non-empty integer array, as a Python int."""
    return max(-int(x.min()), int(x.max()))


def shr_peak(m: int, f: int) -> int:
    """Peak of ``p >> f`` over ``|p| <= m``: ``-m >> f`` is
    ``-ceil(m / 2**f)``, so the bound rounds up."""
    return -((-m) >> f)
