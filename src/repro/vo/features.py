"""Edge-feature extraction: edge pixels with valid depth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeatureSet", "extract_features"]


@dataclass
class FeatureSet:
    """Edge features anchored in one frame.

    Attributes:
        u, v: Pixel coordinates (float64).
        depth: Depths in metres.
    """

    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray

    def __len__(self) -> int:
        return int(self.u.size)


def extract_features(edge_map: np.ndarray, depth_map: np.ndarray,
                     max_features: int, min_depth: float,
                     max_depth: float) -> FeatureSet:
    """Collect edge pixels with usable depth, capped to a budget.

    When more edges than the budget exist, a deterministic stride
    subsampling keeps the selection spatially uniform (the paper's
    feature counts of 3000~6000 at QVGA come from the scene texture,
    not from a scoring pass).

    ``depth_map`` has the shape of ``edge_map``.  The edges are found
    and gathered as flat indices, split into rows and columns only for
    the pixels kept: the row-major order and intp coordinates of a 2-D
    ``np.nonzero``, at a fraction of its cost.
    """
    edge_map = np.asarray(edge_map, dtype=bool)
    depth_map = np.asarray(depth_map, dtype=np.float64)
    flat = np.flatnonzero(edge_map)
    d = depth_map.ravel().take(flat)
    ok = np.isfinite(d) & (d > min_depth) & (d < max_depth)
    flat, d = flat[ok], d[ok]
    if flat.size > max_features:
        idx = np.linspace(0, flat.size - 1, max_features).astype(np.int64)
        flat, d = flat[idx], d[idx]
    vs, us = np.divmod(flat, edge_map.shape[1])
    return FeatureSet(u=us.astype(np.float64), v=vs.astype(np.float64),
                      depth=d)
