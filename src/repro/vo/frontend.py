"""Float and PIM-quantized EBVO frontends.

A frontend owns the arithmetic of the pipeline: edge detection,
keyframe map preparation, feature representation, and the per-iteration
linearization (residuals, Jacobians, Gauss-Newton system).  The LM
solver and the tracker are frontend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from repro.fixedpoint import Q14_2
from repro.geometry.camera import inverse_depth_coords
from repro.geometry.se3 import SE3
from repro.kernels.edge_detect import detect_edges_fast, detect_edges_replay
from repro.kernels.hessian import hessian_fast, unpack_symmetric
from repro.kernels.jacobian import jacobian_fast, jacobian_float
from repro.kernels.warp import (
    UV_FORMAT,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
)
from repro.obs.metrics import get_registry
from repro.obs.tracer import span as obs_span
from repro.pim.energy import EnergyModel
from repro.vision.distance_transform import distance_transform, dt_gradient
from repro.vision.edges import detect_edges_reference
from repro.vo.config import TrackerConfig
from repro.vo.features import FeatureSet
from repro.vo.health import CorruptFrameError

__all__ = ["KeyframeMaps", "FloatFrontend", "PIMFrontend"]

#: The float lookup maps of :class:`KeyframeMaps`.
_FLOAT_MAPS = ("dt", "grad_u", "grad_v")


def _check_frame(gray: np.ndarray) -> np.ndarray:
    """Last line of defence: no non-finite frame reaches a kernel.

    The tracker's input validation repairs or rejects corrupted frames
    long before this point; anything non-finite arriving here means a
    caller bypassed it, and failing fast beats silently loading NaN
    bit patterns into the (simulated) PIM array.

    An integer or bool frame (the int64 gray of
    :func:`~repro.vo.pyramid.build_pyramid`) cannot hold a non-finite
    value and is passed through unscanned.  On a real float array
    ``min`` and ``max`` are finite exactly when every value is: a NaN
    propagates through both, an infinity is one of them.
    """
    gray = np.asarray(gray)
    kind = gray.dtype.kind
    if kind in "biu":
        return gray
    if gray.size and kind == "f":
        finite = np.isfinite(gray.min()) and np.isfinite(gray.max())
    else:
        finite = np.isfinite(gray).all()
    if not finite:
        raise CorruptFrameError(
            "frame contains non-finite intensities; run "
            "repro.vo.health.validate_frame or enable "
            "TrackerConfig.validate_inputs")
    return gray


@dataclass
class KeyframeMaps:
    """Lookup maps of one keyframe level (paper section 2.3).

    A pure function of the level's edge map, built by
    ``prepare_keyframe`` and never encoded (see
    :meth:`repro.vo.tracker.EBVOTracker.keyframe_maps`).
    ``grad_u``/``grad_v`` are the DT gradients pre-multiplied by the
    focal lengths, matching the ``(I_u, I_v)`` of Fig. 5-c.  The float
    frontend fills the float maps, the PIM frontend only the Q14.2 raws.

    The maps are write-once: tracker checkpoints share a keyframe
    instead of copying it, so every array is marked read-only here and
    an in-place write raises.

    Each float map is the top-left ``(h, w)`` view of its
    :func:`_edge_pad` grid (:meth:`grid`), which the float lookup
    reads: the maps take no extra memory for it.  Each non-empty raw
    map's ``(min, max)`` is taken once, into :attr:`ranges`, for the
    PIM kernels' overflow bounds.
    """

    dt: Optional[np.ndarray] = None
    grad_u: Optional[np.ndarray] = None
    grad_v: Optional[np.ndarray] = None
    dt_raw: Optional[np.ndarray] = None
    gu_raw: Optional[np.ndarray] = None
    gv_raw: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self._grids = {}
        #: ``(min, max)`` of each non-empty raw map, by field name.
        self.ranges = {}
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr is None:
                continue
            if f.name in _FLOAT_MAPS:
                grid = _edge_pad(arr)
                grid.flags.writeable = False
                self._grids[f.name] = grid
                arr = grid[:-1, :-1]
                setattr(self, f.name, arr)
            elif arr.size:
                self.ranges[f.name] = (int(arr.min()), int(arr.max()))
            arr.flags.writeable = False

    def grid(self, name: str) -> np.ndarray:
        """The read-only :func:`_edge_pad` grid of float map ``name``."""
        return self._grids[name]

    def peak(self, name: str) -> int:
        """``max|.|`` of the non-empty raw map ``name``."""
        lo, hi = self.ranges[name]
        return max(-lo, hi)


def _edge_pad(grid: np.ndarray) -> np.ndarray:
    """``grid`` in float64 with its last row and column repeated once.

    A :func:`_bilinear_plan` of the ``(h, w)`` grid indexes this
    ``(h + 1, w + 1)`` one: the repeated cells are exactly the
    neighbours an edge clamp would pick.
    """
    return np.pad(np.asarray(grid, dtype=np.float64), ((0, 1), (0, 1)),
                  mode="edge")


def _bilinear_plan(shape, u: np.ndarray, v: np.ndarray,
                   inside: bool = False) -> tuple:
    """One bilinear lookup at ``(u, v)``, for any grid of ``shape``.

    Returns the flat indices of the four corners ``(v0, u0), (v0, u0 +
    1), (v0 + 1, u0), (v0 + 1, u0 + 1)`` in the grid's :func:`_edge_pad`
    grid, ``(h + 1, w + 1)``, and the blend weights ``(1 - fu, fu, 1 -
    fv, fv)``, with the coordinates clamped into the grid (edge
    clamping).  A corner past the last row or column is a repeated
    cell, so it reads the value the clamped corner would.
    :func:`_blend` applies the plan to a padded grid.  ``inside`` says
    that every coordinate already lies in the grid, so the clamp, which
    would change nothing, is skipped.
    """
    h, w = shape
    if not inside:
        u = np.clip(u, 0.0, w - 1.0)
        v = np.clip(v, 0.0, h - 1.0)
    u_floor = np.floor(u)
    v_floor = np.floor(v)
    i00 = v_floor.astype(np.intp)
    i00 *= w + 1
    i00 += u_floor.astype(np.intp)
    i01 = i00 + 1
    i10 = i00 + (w + 1)
    i11 = i00 + (w + 2)
    fu = np.subtract(u, u_floor, out=u_floor)
    fv = np.subtract(v, v_floor, out=v_floor)
    return i00, i01, i10, i11, 1 - fu, fu, 1 - fv, fv


def _blend(grid: np.ndarray, plan: tuple) -> np.ndarray:
    """Bilinear interpolation of a padded ``grid`` by a
    :func:`_bilinear_plan`."""
    i00, i01, i10, i11, wu0, wu1, wv0, wv1 = plan
    flat = grid.ravel()
    return (wv0 * (wu0 * flat.take(i00) + wu1 * flat.take(i01)) +
            wv1 * (wu0 * flat.take(i10) + wu1 * flat.take(i11)))


def _bilinear(grid: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear interpolation with edge clamping."""
    return _blend(_edge_pad(grid), _bilinear_plan(grid.shape, u, v))


def _energy_counters(ledger) -> tuple:
    """The ledger totals a detect's cycles and energy are read from."""
    return (ledger.cycles, ledger.sram_reads, ledger.sram_writes,
            ledger.tmp_accesses, ledger.logic_ops)


class FloatFrontend:
    """Double-precision pipeline (the PicoVO-class baseline)."""

    def __init__(self, config: TrackerConfig):
        self.config = config

    def detect(self, gray: np.ndarray) -> np.ndarray:
        """Boolean edge map of a frame, by the float reference detector.

        Its LPF floors the binomial once; the PIM mirror floors each of
        two 2x2 averages, so on the same gray the two frontends' edge
        maps differ on some pixels.
        """
        gray = _check_frame(gray)
        return detect_edges_reference(gray, self.config.th1,
                                      self.config.th2)

    def prepare_keyframe(self, edge_map: np.ndarray) -> KeyframeMaps:
        """Distance transform and focal-scaled gradient maps."""
        cam = self.config.camera
        dt = distance_transform(edge_map)
        gu, gv = dt_gradient(dt)
        return KeyframeMaps(dt=dt, grad_u=gu * cam.fx, grad_v=gv * cam.fy)

    def make_features(self, features: FeatureSet):
        """Frontend representation: float inverse-depth triples."""
        return inverse_depth_coords(self.config.camera, features.u,
                                    features.v, features.depth)

    def _warp_and_lookup(self, feats, pose: SE3, maps: KeyframeMaps):
        """Warp at a pose and look the residuals up: the lookup.

        Returns ``(warp, rv, valid, plan)``: ``rv`` is the clamped DT
        residual of the valid features only, in feature order, and
        ``plan`` is their :func:`_bilinear_plan`, which
        :meth:`linearize` reuses for the gradient maps.  A valid
        feature lies inside the camera's image, so on a map of the
        camera's shape the plan needs no clamp.
        """
        a, b, c = feats
        cam = self.config.camera
        res = warp_float(pose, a, b, c, cam)
        valid = res.valid
        plan = _bilinear_plan(maps.dt.shape, res.u[valid], res.v[valid],
                              inside=maps.dt.shape == (cam.height,
                                                       cam.width))
        rv = _blend(maps.grid("dt"), plan)
        np.minimum(rv, self.config.residual_clamp, out=rv)
        return res, rv, valid, plan

    def error(self, feats, pose: SE3, maps: KeyframeMaps
              ) -> Tuple[float, int, tuple]:
        """Mean squared residual, valid count and lookup at a pose.

        The lookup may be passed to :meth:`linearize` at the same pose,
        which then does not warp again.
        """
        lookup = self._warp_and_lookup(feats, pose, maps)
        rv = lookup[1]
        if rv.size == 0:
            return np.inf, 0, lookup
        return float(np.mean(rv ** 2)), rv.size, lookup

    def linearize(self, feats, pose: SE3, maps: KeyframeMaps,
                  lookup: Optional[tuple] = None):
        """Gauss-Newton system ``(H, b, err, n_valid)`` at a pose.

        ``lookup`` is :meth:`error`'s lookup at this pose; without it
        the pose is warped here.
        """
        a, b, c = feats
        if lookup is None:
            lookup = self._warp_and_lookup(feats, pose, maps)
        res, rv, valid, plan = lookup
        n = rv.size
        if n == 0:
            return np.zeros((6, 6)), np.zeros(6), np.inf, 0
        gu = _blend(maps.grid("grad_u"), plan)
        gv = _blend(maps.grid("grad_v"), plan)
        cv = np.asarray(c)[valid]
        z_real = res.z[valid] / cv
        x_real = res.rx[valid] * z_real
        y_real = res.ry[valid] * z_real
        jac = jacobian_float(x_real, y_real, z_real, gu, gv)
        if self.config.huber_delta is not None:
            # Iteratively reweighted least squares with Huber weights
            # w = min(1, delta / |r|) applied to H and b.
            delta = self.config.huber_delta
            w = np.minimum(1.0, delta / np.maximum(np.abs(rv), 1e-12))
            jw = jac * w[:, None]
            h = jw.T @ jac
            g = jw.T @ rv
        else:
            h = jac.T @ jac
            g = jac.T @ rv
        return h, g, float(np.mean(rv ** 2)), n


class PIMFrontend:
    """Fully quantized pipeline with exact PIM arithmetic."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self._clamp_raw = int(Q14_2.quantize(config.residual_clamp))
        # One simulated device per frame shape (pyramid level), reused
        # across frames; the compiled kernel programs themselves live in
        # the process-wide KERNEL_PROGRAM_CACHE, keyed by geometry, so
        # each level's LPF/HPF/NMS bodies are recorded exactly once.
        self._detect_devices: dict = {}
        #: Per-stage device cycles of the most recent detect() when
        #: ``config.pim_device_detect`` is on (empty otherwise).
        self.last_detect_cycles: dict = {}
        #: ``(pose, quantize_pose(pose))`` of the last :meth:`pose_key`:
        #: a warp of that same pose object does not quantize it again.
        self._keyed: Optional[tuple] = None

    def _detect_device(self, shape):
        device = self._detect_devices.get(shape)
        if device is None:
            from repro.pim import PIMConfig, PIMDevice
            height, width = shape
            device = PIMDevice(PIMConfig(wordline_bits=width * 8,
                                         num_rows=height + 8))
            self._detect_devices[shape] = device
        return device

    def detect(self, gray: np.ndarray) -> np.ndarray:
        """Boolean edge map via the in-PIM kernel chain.

        With ``config.pim_device_detect`` the chain runs on the
        simulated device via compiled-program replay (bit-identical
        mask, per-stage cycles in :attr:`last_detect_cycles`);
        otherwise on the vectorized numpy mirror.
        """
        gray = _check_frame(gray)
        if self.config.pim_device_detect:
            device = self._detect_device(gray.shape)
            before = _energy_counters(device.ledger)
            with obs_span("frontend_detect", device=device, category="vo",
                          shape=list(gray.shape)):
                result = detect_edges_replay(device, gray, self.config.th1,
                                             self.config.th2)
            cycles, reads, writes, tmp, logic = (
                a - b for a, b in zip(_energy_counters(device.ledger),
                                      before))
            registry = get_registry()
            registry.histogram(
                "frame_detect_cycles",
                "Device cycles per detected frame").observe(cycles)
            registry.histogram(
                "frame_detect_energy_pj",
                "Device energy (pJ) per detected frame").observe(
                    EnergyModel().report(
                        sram_accesses=reads + writes, logic_ops=logic,
                        tmp_accesses=tmp).total_pj)
            registry.histogram(
                "frame_edge_pixels",
                "Edge pixels per detected frame").observe(
                    int(np.count_nonzero(result.edge_map)))
            self.last_detect_cycles = dict(result.cycles)
            return result.edge_map
        return detect_edges_fast(gray, self.config.th1,
                                 self.config.th2).edge_map

    def prepare_keyframe(self, edge_map: np.ndarray) -> KeyframeMaps:
        """DT on the host (per the paper), lookups quantized to Q14.2."""
        cam = self.config.camera
        dt = distance_transform(edge_map)
        gu, gv = dt_gradient(dt)
        # The DT residual is squared and summed in int64 (_mean_square,
        # the bilinear blend); the gradients feed int32 Jacobian lanes.
        return KeyframeMaps(
            dt_raw=Q14_2.quantize(dt).astype(np.int64),
            gu_raw=Q14_2.quantize(gu * cam.fx).astype(np.int32),
            gv_raw=Q14_2.quantize(gv * cam.fy).astype(np.int32))

    def make_features(self, features: FeatureSet):
        """Frontend representation: Q4.12 inverse-depth raws."""
        a, b, c = inverse_depth_coords(self.config.camera, features.u,
                                       features.v, features.depth)
        return quantize_features(a, b, c)

    @staticmethod
    def _bilinear_q2(grid_raw: np.ndarray, u_raw: np.ndarray,
                     v_raw: np.ndarray) -> np.ndarray:
        """Quarter-pixel bilinear lookup from Q14.2 coordinates.

        The blend weights are the two fractional bits themselves
        (values 0..4 in quarter units), so the interpolation is pure
        integer arithmetic: ``sum(w_i * raw_i) >> 4``.
        """
        h, w = grid_raw.shape
        u0 = np.clip(u_raw >> 2, 0, w - 1)
        v0 = np.clip(v_raw >> 2, 0, h - 1)
        u1 = np.minimum(u0 + 1, w - 1)
        v1 = np.minimum(v0 + 1, h - 1)
        fu = u_raw & 3
        fv = v_raw & 3
        top = (4 - fu) * grid_raw[v0, u0] + fu * grid_raw[v0, u1]
        bot = (4 - fu) * grid_raw[v1, u0] + fu * grid_raw[v1, u1]
        return ((4 - fv) * top + fv * bot) >> 4

    def pose_key(self, pose: SE3) -> bytes:
        """The Q1.15 raws of ``pose``: poses with equal keys have equal
        :meth:`error` (see :func:`repro.vo.lm._lm_loop`).

        The next warp of this same pose object reuses the quantization.
        """
        qpose = quantize_pose(pose)
        self._keyed = (pose, qpose)
        return qpose.r.tobytes() + qpose.t.tobytes()

    def _warp_and_lookup(self, qfeats, pose: SE3, maps: KeyframeMaps):
        """Warp at a pose and look the residuals up: the lookup.

        Returns ``(warp, r_raw, idx, valid)``: the
        :func:`~repro.kernels.warp.warp_fast` result, the clamped Q14.2
        DT residual per feature (zero where invalid) and the flat intp
        index ``vi * w + ui`` of the nearest keyframe pixel, for the
        gradient lookups.  The residual clamp is quantized once, at
        construction.

        A valid lane has ``0 <= u, v <= (size - 1) * 4`` in Q14.2, so its
        rounded pixel lies in the camera's image: on a map of the
        camera's shape the index needs no clamp.  An invalid lane's
        index may fall anywhere; ``take(mode="clip")`` keeps it in the
        map and ``valid`` zeroes what it reads.  A map of another shape
        (at an odd size, a pyramid level's image can be a column
        narrower than its scaled camera) keeps the per-axis clamp.
        """
        keyed = self._keyed
        qpose = keyed[1] if keyed is not None and keyed[0] is pose \
            else quantize_pose(pose)
        cam = self.config.camera
        res = warp_fast(qpose, qfeats, cam)
        valid = res.valid
        h, w = maps.dt_raw.shape
        # Nearest integer pixel: u and v as one (2, n) pass in the
        # warp's int32 (a 16-bit lane plus ``half`` cannot overflow),
        # then the flat index in intp, which ``take`` would otherwise
        # convert on every gather.
        uvi = res.uv + np.int32(UV_FORMAT.scale // 2)
        uvi >>= 2
        if (h, w) != (cam.height, cam.width):
            np.maximum(uvi, np.int32(0), out=uvi)
            np.minimum(uvi, np.array([[w - 1], [h - 1]], dtype=np.int32),
                       out=uvi)
        idx = np.multiply(uvi[1], w, dtype=np.intp)
        idx += uvi[0]
        if self.config.pim_bilinear_residual:
            r_raw = np.zeros(len(valid), dtype=np.int64)
            r_raw[valid] = np.minimum(
                self._bilinear_q2(maps.dt_raw, res.u[valid], res.v[valid]),
                self._clamp_raw)
        else:
            r_raw = maps.dt_raw.take(idx, mode="clip")
            np.minimum(r_raw, self._clamp_raw, out=r_raw)
            r_raw *= valid
        return res, r_raw, idx, valid

    def _hessian_bound(self, maps: KeyframeMaps, j_peak: int) -> int:
        """A bound on ``max|[J | r]|`` for :func:`hessian_fast`.

        A residual is ``min(dt, clamp)`` (or zero), and the nearest or
        bilinear ``dt`` lies in the map's range, so ``|r|`` is at most
        the larger magnitude of the range's two ends after the clamp.
        """
        clamp = self._clamp_raw
        return max(j_peak, *(abs(min(end, clamp))
                             for end in maps.ranges["dt_raw"]))

    @staticmethod
    def _mean_square(r_raw: np.ndarray, n: int) -> float:
        """Mean squared residual in pixels over ``n`` valid features.

        ``r_raw`` is zero where invalid.  Equal bit for bit to
        ``np.mean(Q14_2.to_float(r_raw[valid]) ** 2)``: each term
        ``raw**2 / 16`` is a multiple of 1/16, so while the integer sum
        stays below ``2**53`` every float partial sum is exact, and the
        exact sum is divided by ``n`` once either way.
        """
        return float(np.dot(r_raw, r_raw) / 16.0 / n)

    def error(self, qfeats, pose: SE3, maps: KeyframeMaps
              ) -> Tuple[float, int, tuple]:
        """Mean squared residual (in pixels), valid count and lookup.

        The lookup may be passed to :meth:`linearize` at the same pose,
        which then does not warp again.
        """
        lookup = self._warp_and_lookup(qfeats, pose, maps)
        _, r_raw, _, valid = lookup
        n = int(np.count_nonzero(valid))
        if n == 0:
            return np.inf, 0, lookup
        return self._mean_square(r_raw, n), n, lookup

    def linearize(self, qfeats, pose: SE3, maps: KeyframeMaps,
                  lookup: Optional[tuple] = None):
        """Gauss-Newton system from the quantized kernels.

        ``lookup`` is :meth:`error`'s lookup at this pose; without it
        the pose is warped here.  Invalid features get zero gradients,
        and every Jacobian entry carries a factor ``Iu``, ``Iv`` or
        ``K = rx Iu + ry Iv``, so their rows (and residuals) are zero.
        """
        if lookup is None:
            lookup = self._warp_and_lookup(qfeats, pose, maps)
        res, r_raw, idx, valid = lookup
        n = int(np.count_nonzero(valid))
        if n == 0:
            return np.zeros((6, 6)), np.zeros(6), np.inf, 0
        iu = maps.gu_raw.take(idx, mode="clip")
        iu *= valid
        iv = maps.gv_raw.take(idx, mode="clip")
        iv *= valid
        jac, j_peak = jacobian_fast(
            res, qfeats.lanes[2], iu, iv,
            feature_frac=qfeats.fmt.fraction_bits,
            grad_peaks=(maps.peak("gu_raw"), maps.peak("gv_raw")),
            return_peak=True)
        h_raw, b_raw = hessian_fast(
            jac, r_raw, bound=self._hessian_bound(maps, j_peak))
        h = unpack_symmetric(h_raw / 8.0)
        return h, b_raw / 8.0, self._mean_square(r_raw, n), n
