"""2D convolution and classic filters (reference implementations)."""

from __future__ import annotations

import numpy as np

__all__ = ["conv2d", "BINOMIAL_3x3", "binomial_lpf", "sobel",
           "sobel_magnitude"]

#: The paper's LPF kernel: the 3x3 binomial with power-of-two weights,
#: separable into two 2x2 box (averaging) passes (Fig. 2).
BINOMIAL_3x3 = np.array([[1, 2, 1],
                         [2, 4, 2],
                         [1, 2, 1]], dtype=np.float64) / 16.0

SOBEL_X = np.array([[-1, 0, 1],
                    [-2, 0, 2],
                    [-1, 0, 1]], dtype=np.float64)
SOBEL_Y = SOBEL_X.T


def conv2d(image: np.ndarray, kernel: np.ndarray,
           pad: str = "zero") -> np.ndarray:
    """Same-size 2D convolution (correlation with a flipped kernel).

    Args:
        image: 2D array.
        kernel: 2D array with odd dimensions.
        pad: ``"zero"`` or ``"edge"`` boundary handling.

    Returns:
        Float64 array of the image's shape.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel dimensions must be odd")
    ph, pw = kh // 2, kw // 2
    mode = "constant" if pad == "zero" else "edge"
    padded = np.pad(image, ((ph, ph), (pw, pw)), mode=mode)
    out = np.empty_like(image)
    tap = np.empty_like(image)
    flipped = kernel[::-1, ::-1]
    for dy in range(kh):
        for dx in range(kw):
            window = padded[dy:dy + image.shape[0], dx:dx + image.shape[1]]
            if dy == dx == 0:
                # Written, not added to zeros: adding +0.0 turns a
                # -0.0 product into +0.0, as ``0.0 + tap`` did.
                np.multiply(flipped[0, 0], window, out=out)
                out += 0.0
            else:
                out += np.multiply(flipped[dy, dx], window, out=tap)
    return out


def binomial_lpf(image: np.ndarray) -> np.ndarray:
    """The paper's 3x3 binomial low-pass filter (float reference)."""
    return conv2d(image, BINOMIAL_3x3, pad="edge")


def sobel(image: np.ndarray) -> tuple:
    """Horizontal and vertical Sobel gradients ``(gx, gy)``.

    Uses correlation semantics (no kernel flip), so ``gx`` is positive
    where intensity increases with ``x``.
    """
    return (conv2d(image, SOBEL_X[::-1, ::-1], pad="edge"),
            conv2d(image, SOBEL_Y[::-1, ::-1], pad="edge"))


def sobel_magnitude(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude ``sqrt(gx^2 + gy^2)``.

    This is the costly high-pass filter the paper's sat-SAD kernel
    approximates (Fig. 3).
    """
    gx, gy = sobel(image)
    return np.hypot(gx, gy)
