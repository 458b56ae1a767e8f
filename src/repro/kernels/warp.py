"""The warp kernel: quantized feature warping (paper Fig. 5-a/b).

A feature anchored in the current frame at pixel ``(u, v)`` with depth
``d`` is stored as the inverse-depth triple ``(a, b, c)`` quantized to
Q4.12.  Warping into the keyframe applies the relative pose (rotation
``R`` and translation ``T``, entries quantized to Q1.15):

``(X, Y, Z) = R (a, b, 1)^T + T c``  (all Q4.12)

followed by the projective division ``rx = X / Z``, ``ry = Y / Z``
(restoring division, Q4.12) and the intrinsic mapping
``u' = fx rx + cx`` (fx in Q10.6, u' in Q14.2 -> quarter-pixel
resolution).  The scaled coordinates are exact up to quantization
because projection cancels the missing depth factor.

All fast functions use precisely the PIM op sequence (same saturation
points, same shift amounts) so the tracker's numerics equal the device.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.fixedpoint import Q1_15, Q4_12, Q14_2, QFormat
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.se3 import SE3
from repro.kernels.common import peak
from repro.obs.tracer import span as obs_span
from repro.pim.device import TMP, Imm, Rel
from repro.pim.program import PIMProgram, ProgramRecorder

__all__ = [
    "FEATURE_FORMAT", "POSE_FORMAT", "UV_FORMAT", "INTRINSIC_FORMAT",
    "QuantizedFeatures", "QuantizedPose", "WarpResult", "WarpRows",
    "quantize_features", "quantize_pose", "qdiv_lanes",
    "warp_float", "warp_fast", "warp_pim", "warp_program",
    "warp_pim_batched", "WARP_BLOCK_ROWS",
]


#: Inverse-depth feature coordinates (paper section 3.3).
FEATURE_FORMAT = Q4_12
#: Rotation/translation entries (paper section 3.3).
POSE_FORMAT = Q1_15
#: Warped pixel coordinates (quarter-pixel resolution).
UV_FORMAT = Q14_2
#: Camera focal lengths.
INTRINSIC_FORMAT = QFormat(10, 6)

_LANE_BITS = 16
_LANE_MIN = -(1 << (_LANE_BITS - 1))
_LANE_MAX = (1 << (_LANE_BITS - 1)) - 1


@dataclass
class QuantizedFeatures:
    """A batch of features in quantized inverse-depth coordinates.

    A feature set is written once and warped many times (every LM trial
    of a frame), so what does not depend on the pose is taken here, at
    construction: ``lanes``, the int32 ``(3, n)`` pack of ``a``, ``b``
    and ``c``, and whether they fit the 16-bit lane.  ``a``, ``b``,
    ``c`` and ``lanes`` are marked read-only, so a write through them
    raises instead of leaving the pack stale.  That guards these arrays
    only: pass arrays that nothing writes into afterwards, not views of
    a writable array (:func:`quantize_features` builds fresh ones, and
    ``lm_pipeline._batched`` slices read-only ones).  Values outside
    the lane are kept (``in_lane`` is False) and rejected by
    :func:`warp_fast`.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    fmt: QFormat = FEATURE_FORMAT
    #: ``(a, b, c)`` as one int32 ``(3, n)`` block (exact when in_lane).
    lanes: np.ndarray = field(init=False, repr=False, compare=False)
    #: Every value of ``a``, ``b`` and ``c`` fits the 16-bit lane.
    in_lane: bool = field(init=False, repr=False, compare=False)
    #: Some value is the lane minimum ``-2**15``, the one operand whose
    #: product with a ``-2**15`` pose raw leaves the lane.
    holds_lane_min: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(np.asarray(x) for x in (self.a, self.b, self.c))
        self.a, self.b, self.c = components
        lows = [int(x.min()) for x in components] if self.a.size else []
        self.in_lane = all(
            low >= _LANE_MIN and int(x.max()) <= _LANE_MAX
            for low, x in zip(lows, components))
        self.holds_lane_min = _LANE_MIN in lows
        self.lanes = np.array(components, dtype=np.int32)
        for arr in components + (self.lanes,):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return int(self.a.size)


@dataclass
class QuantizedPose:
    """Rotation and translation raws in Q1.15."""

    r: np.ndarray  # 3x3 int raws
    t: np.ndarray  # 3 int raws

    @property
    def r_float(self) -> np.ndarray:
        return POSE_FORMAT.to_float(self.r)

    @property
    def t_float(self) -> np.ndarray:
        return POSE_FORMAT.to_float(self.t)


@dataclass
class WarpResult:
    """Output of the warp kernel (raw integers unless noted)."""

    u: np.ndarray        # warped column, UV_FORMAT
    v: np.ndarray        # warped row, UV_FORMAT
    rx: np.ndarray       # X/Z, feature format
    ry: np.ndarray       # Y/Z, feature format
    z: np.ndarray        # scaled depth Z~, feature format
    valid: np.ndarray    # bool
    #: ``u`` and ``v`` as the rows of one ``(2, n)`` block, when they
    #: are (:func:`warp_fast`); None otherwise.
    uv: Optional[np.ndarray] = field(default=None, repr=False,
                                     compare=False)
    #: ``rx`` and ``ry`` likewise.
    rxy: Optional[np.ndarray] = field(default=None, repr=False,
                                      compare=False)

    def uv_float(self) -> tuple:
        """Warped coordinates in pixels (float)."""
        return UV_FORMAT.to_float(self.u), UV_FORMAT.to_float(self.v)


def quantize_features(a, b, c, fmt: QFormat = FEATURE_FORMAT
                      ) -> QuantizedFeatures:
    """Quantize float inverse-depth coordinates to raw integers."""
    return QuantizedFeatures(
        a=np.asarray(fmt.quantize(a), dtype=np.int64).reshape(-1),
        b=np.asarray(fmt.quantize(b), dtype=np.int64).reshape(-1),
        c=np.asarray(fmt.quantize(c), dtype=np.int64).reshape(-1),
        fmt=fmt)


def quantize_pose(pose: SE3) -> QuantizedPose:
    """Quantize a relative pose to Q1.15 raws.

    Entries are saturated to the (-1, 1) range; the paper relies on the
    inter-frame pose being small, which the keyframe policy enforces.
    ``r`` and ``t`` are the int64 column blocks of one ``(3, 4)`` pass
    of :meth:`~repro.fixedpoint.QFormat.quantize`'s arithmetic.
    """
    raw = np.empty((3, 4))
    raw[:, :3] = pose.R
    raw[:, 3] = pose.t
    raw *= POSE_FORMAT.scale
    np.rint(raw, out=raw)
    np.maximum(raw, POSE_FORMAT.raw_min, out=raw)
    np.minimum(raw, POSE_FORMAT.raw_max, out=raw)
    rt = raw.astype(np.int64)
    return QuantizedPose(r=rt[:, :3], t=rt[:, 3])


def warp_float(pose: SE3, a, b, c, camera: CameraIntrinsics) -> WarpResult:
    """Float reference of the warp (same output fields, float values)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    r, t = pose.R, pose.t
    # In place, in the operand order of ``r0 * a + r1 * b + r2 + t * c``
    # (IEEE products commute, sums do not): every field is bitwise equal
    # to that out-of-place expression.
    tmp = np.empty_like(a)
    x, y, z = (np.empty_like(a) for _ in range(3))
    for row, out in enumerate((x, y, z)):
        np.multiply(a, r[row, 0], out=out)
        out += np.multiply(b, r[row, 1], out=tmp)
        out += r[row, 2]
        out += np.multiply(c, t[row], out=tmp)
    tiny = np.abs(z, out=tmp) < 1e-12
    safe_z = np.where(tiny, 1e-12, z) if tiny.any() else z
    rx = np.divide(x, safe_z, out=x)
    ry = np.divide(y, safe_z, out=y)
    u = rx * camera.fx
    u += camera.cx
    v = ry * camera.fy
    v += camera.cy
    valid = (z > 1e-6) & (u >= 0) & (u <= camera.width - 1) & \
        (v >= 0) & (v <= camera.height - 1)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


@functools.lru_cache(maxsize=16)
def _intrinsic_raws(camera: CameraIntrinsics, fraction_bits: int) -> tuple:
    """``(fx, fy, cx, cy, shift)`` raws of the intrinsic mapping.

    ``fx``/``fy`` in :data:`INTRINSIC_FORMAT`, ``cx``/``cy`` in
    :data:`UV_FORMAT`; ``(f * r) >> shift`` takes a product of a focal
    length and a ``fraction_bits`` ratio to :data:`UV_FORMAT`.
    """
    shift = (INTRINSIC_FORMAT.fraction_bits + fraction_bits
             - UV_FORMAT.fraction_bits)
    return (int(INTRINSIC_FORMAT.quantize(camera.fx)),
            int(INTRINSIC_FORMAT.quantize(camera.fy)),
            int(UV_FORMAT.quantize(camera.cx)),
            int(UV_FORMAT.quantize(camera.cy)), shift)


#: The lane bounds as int32 scalars: a clip checks Python-int bounds
#: against the array's dtype first, which doubles its cost here.
_SAT16_BOUNDS = (np.int32(_LANE_MIN), np.int32(_LANE_MAX))


def _sat16(x: np.ndarray) -> np.ndarray:
    """Saturate an int32 array to the 16-bit lane, in place.

    The ``ndarray.clip`` method, not ``np.clip``, whose Python-level
    dispatch costs as much again as the clip itself at these sizes.
    """
    return x.clip(*_SAT16_BOUNDS, out=x)


@functools.lru_cache(maxsize=16)
def _intrinsic_lanes(camera: CameraIntrinsics, fraction_bits: int) -> tuple:
    """:func:`warp_fast`'s constants of the intrinsic stage, per camera.

    ``(fxy, cxy, shift, lim)``: the focal lengths and principal point
    as int32 ``(2, 1)`` columns, the product shift, and the valid
    ``u``/``v`` maximum as a uint32 ``(2, 1)`` column.
    """
    fx_q, fy_q, cx_q, cy_q, shift = _intrinsic_raws(camera, fraction_bits)
    scale = UV_FORMAT.scale
    consts = (np.array([[fx_q], [fy_q]], dtype=np.int32),
              np.array([[cx_q], [cy_q]], dtype=np.int32),
              np.array([[(camera.width - 1) * scale],
                        [(camera.height - 1) * scale]], dtype=np.uint32))
    for arr in consts:
        arr.flags.writeable = False
    fxy, cxy, lim = consts
    return fxy, cxy, shift, lim


def qdiv_lanes(a_raw, b_raw, lshift: int = 0) -> np.ndarray:
    """``(a << lshift) / b`` with exact 16-bit PIM divide semantics.

    Mirrors :meth:`repro.pim.device.PIMDevice.div`: restoring-division
    truncation toward zero, division by zero saturating toward the
    signed lane bound (``+-(2**15 - 1)``) by the numerator's sign,
    result saturated to the 16-bit lane.  ``a`` and ``b`` broadcast;
    the result is int32.

    The quotient is the float64 ``num / den`` truncated by the int32
    cast.  That is exact while ``|a << lshift| < 2**31`` and
    ``|b| <= 2**15`` (every 16-bit lane divide of the warp and the
    Jacobian): both operands are exact in float64, and a quotient below
    an integer ``k`` sits at least ``1 / |den|`` under it, a relative
    gap of at least ``2**-46``, which rounding to 53 bits cannot close.
    Operands outside that range raise :class:`ValueError`.
    """
    a = np.asarray(a_raw)
    b = np.asarray(b_raw)
    if a.size == 0 or b.size == 0:
        return np.zeros(np.broadcast_shapes(a.shape, b.shape),
                        dtype=np.int32)
    if peak(a) << lshift >= 1 << 31 or peak(b) > 1 << 15:
        raise ValueError("divide operands exceed the float-quotient range")
    return _qdiv(a.astype(np.int32, copy=False) << lshift,
                 b.astype(np.int32, copy=False))


def _qdiv(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """:func:`qdiv_lanes` of int32 ``num = a << lshift`` by ``den``,
    with no range check.

    For callers whose operands are in range by construction: ``den``
    a saturated 16-bit lane and ``num`` a 16-bit lane shifted left by
    at most 15.  The denominator is converted to float64 once, for
    every row of ``num`` it broadcasts over.
    """
    zero = den == 0
    fden = den.astype(np.float64)
    fden += zero
    q = np.divide(num, fden).astype(np.int32)
    _sat16(q)
    if zero.any():
        np.copyto(q, np.where(num >= 0, _LANE_MAX, -_LANE_MAX), where=zero)
    return q


def warp_fast(qpose: QuantizedPose, feats: QuantizedFeatures,
              camera: CameraIntrinsics) -> WarpResult:
    """Quantized warp with exact PIM arithmetic, as one int32 lane pass.

    Bit-identical to :func:`warp_pim`: every product, shift, divide and
    saturation of the device program, in the same order, with the
    nine MAC products of X, Y and Z as one ``(3, 3, n)`` pass over the
    feature set's cached int32 ``lanes``, the two divides as one
    ``(2, n)`` :func:`qdiv_lanes` call and both intrinsic products as
    one ``(2, n)`` pass.

    The lanes are 16-bit, so int32 holds every intermediate exactly: a
    16 x 16-bit product is at most ``2**30`` in magnitude, a sum of
    two saturated lanes (plus the ``r2`` immediate, clamped to
    ``+-2**16`` without changing the saturated sum) at most ``2**17``,
    and the divide's numerator ``x << f`` below ``2**30`` for any
    16-bit feature format (``f <= 15``).  The multiply operands (``a``,
    ``b``, ``c`` and the ``R[:, :2]``, ``T`` raws) are checked against
    the 16-bit lane like :func:`repro.fixedpoint.ops.multiply`, with
    the same :class:`ValueError`.

    Per call only the pose-dependent work is done: the feature pack
    and its lane check come from :class:`QuantizedFeatures`, the
    intrinsic constants from :func:`_intrinsic_lanes`.  Fields are the
    int32 rows of one ``(5, n)`` block.
    """
    f = feats.fmt.fraction_bits
    assert f <= 15, "the divide's numerator x << f must fit int32"
    r = np.asarray(qpose.r).tolist()
    t = np.asarray(qpose.t).reshape(-1).tolist()
    # Per axis, the multiplier of a, b and c: r0, r1 and t.
    coef = [(int(row[0]), int(row[1]), int(ti)) for row, ti in zip(r, t)]
    n = len(feats)
    if n and (not feats.in_lane
              or not all(_LANE_MIN <= v <= _LANE_MAX
                         for row in coef for v in row)):
        raise ValueError(f"operands exceed {_LANE_BITS}-bit lane range")
    r2 = np.array([max(-(1 << 16), min(int(row[2]) >> (15 - f), 1 << 16))
                   for row in r], dtype=np.int32).reshape(3, 1)

    # (axis, term, feature): products >> 15 lie in [-2**15 + 1, 2**15],
    # so their saturation only ever clamps from above, and only the
    # product of two lane minima -2**15 reaches 2**15.
    m = np.array(coef, dtype=np.int32)[:, :, None] * feats.lanes
    m >>= 15
    if feats.holds_lane_min and any(_LANE_MIN in row for row in coef):
        np.minimum(m, _LANE_MAX, out=m)
    xyz = _sat16(m[:, 0] + m[:, 1])
    xyz += r2
    _sat16(xyz)
    xyz += m[:, 2]
    _sat16(xyz)

    out = np.empty((5, n), dtype=np.int32)   # u, v, rx, ry, z
    den = xyz[2]
    out[4] = den
    rxy = out[2:4]
    # Saturated lanes: |x << f| < 2**31 and |den| <= 2**15, the range
    # qdiv_lanes checks.
    rxy[...] = _qdiv(xyz[:2] << f, den)

    fxy, cxy, shift, lim = _intrinsic_lanes(camera, f)
    uv = out[:2]
    np.multiply(rxy, fxy, out=uv)
    uv >>= shift
    _sat16(uv)
    uv += cxy
    _sat16(uv)

    # 0 <= uv <= lim as one unsigned compare: negative lanes wrap high.
    inside = uv.view(np.uint32) <= lim
    valid = inside[0] & inside[1]
    valid &= den > 0
    u, v, rx, ry, z = out
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid, uv=uv,
                      rxy=rxy)


@dataclass
class WarpRows:
    """Row allocation of one warp batch inside the PIM array."""

    a: int
    b: int
    c: int
    x: int
    y: int
    z: int
    rx: int
    ry: int
    u: int
    v: int


def warp_pim(device, qpose: QuantizedPose, feats: QuantizedFeatures,
             camera: CameraIntrinsics, rows: WarpRows) -> WarpResult:
    """Device program for one batch of (up to) 160 features.

    The features are DMA-loaded into ``rows.a/b/c``; the warped
    quantities are produced with the same arithmetic as
    :func:`warp_fast` and read back.  Counts 11 multiplies, 2 divides
    and the accumulating adds on the ledger.
    """
    if len(feats) > device.config.lanes(_LANE_BITS):
        raise ValueError("batch exceeds 16-bit lane count")
    device.set_precision(_LANE_BITS)
    f = feats.fmt.fraction_bits
    device.load(rows.a, feats.a)
    device.load(rows.b, feats.b)
    device.load(rows.c, feats.c)

    for axis, dst in ((0, rows.x), (1, rows.y), (2, rows.z)):
        r0, r1, r2 = (int(v) for v in qpose.r[axis])
        t_raw = int(qpose.t[axis])
        device.mul(TMP, rows.a, Imm(r0), rshift=15)
        device.copy(dst, TMP)
        device.mul(TMP, rows.b, Imm(r1), rshift=15)
        device.add(dst, dst, TMP, saturate=True)
        device.add(dst, dst, Imm(r2 >> (15 - f)), saturate=True)
        device.mul(TMP, rows.c, Imm(t_raw), rshift=15)
        device.add(dst, dst, TMP, saturate=True)

    device.div(rows.rx, rows.x, rows.z, lshift=f)
    device.div(rows.ry, rows.y, rows.z, lshift=f)

    fx_q, fy_q, cx_q, cy_q, shift = _intrinsic_raws(camera, f)
    device.mul(TMP, rows.rx, Imm(fx_q), rshift=shift)
    device.add(rows.u, TMP, Imm(cx_q), saturate=True)
    device.mul(TMP, rows.ry, Imm(fy_q), rshift=shift)
    device.add(rows.v, TMP, Imm(cy_q), saturate=True)

    n = len(feats)
    u = device.store(rows.u)[:n]
    v = device.store(rows.v)[:n]
    rx = device.store(rows.rx)[:n]
    ry = device.store(rows.ry)[:n]
    z = device.store(rows.z)[:n]
    scale = UV_FORMAT.scale
    valid = (z > 0) & (u >= 0) & (u <= (camera.width - 1) * scale) & \
        (v >= 0) & (v <= (camera.height - 1) * scale)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


#: Rows occupied by one feature block in the batched warp layout
#: (a, b, c, x, y, z, rx, ry, u, v at offsets 0..9).
WARP_BLOCK_ROWS = 10

#: Relative row offsets within one block, mirroring :class:`WarpRows`.
_W = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)


def warp_program(qpose: QuantizedPose, fraction_bits: int,
                 camera: CameraIntrinsics, config) -> PIMProgram:
    """Record the warp compute body for one feature block.

    The body is the exact op sequence of :func:`warp_pim` between the
    feature DMA-in and the result DMA-out, with every block row
    expressed relative to the block base (offsets per :data:`_W`).
    The pose and camera constants are baked in as immediates, so the
    program is recorded per pose; its win is replaying one recording
    across all blocks of a feature set.

    Block footprints are :data:`WARP_BLOCK_ROWS` rows wide, so bases
    strided that far apart batch vectorized (disjoint footprints)
    even though the body's relative op order alone is not batchable.
    """
    rec = ProgramRecorder(config, name="warp")
    rec.set_precision(_LANE_BITS)
    f = fraction_bits
    for axis, dst in ((0, _W.x), (1, _W.y), (2, _W.z)):
        r0, r1, r2 = (int(v) for v in qpose.r[axis])
        t_raw = int(qpose.t[axis])
        rec.mul(TMP, Rel(_W.a), Imm(r0), rshift=15)
        rec.copy(Rel(dst), TMP)
        rec.mul(TMP, Rel(_W.b), Imm(r1), rshift=15)
        rec.add(Rel(dst), Rel(dst), TMP, saturate=True)
        rec.add(Rel(dst), Rel(dst), Imm(r2 >> (15 - f)), saturate=True)
        rec.mul(TMP, Rel(_W.c), Imm(t_raw), rshift=15)
        rec.add(Rel(dst), Rel(dst), TMP, saturate=True)

    rec.div(Rel(_W.rx), Rel(_W.x), Rel(_W.z), lshift=f)
    rec.div(Rel(_W.ry), Rel(_W.y), Rel(_W.z), lshift=f)

    fx_q, fy_q, cx_q, cy_q, shift = _intrinsic_raws(camera, f)
    rec.mul(TMP, Rel(_W.rx), Imm(fx_q), rshift=shift)
    rec.add(Rel(_W.u), TMP, Imm(cx_q), saturate=True)
    rec.mul(TMP, Rel(_W.ry), Imm(fy_q), rshift=shift)
    rec.add(Rel(_W.v), TMP, Imm(cy_q), saturate=True)
    return rec.finish()


def warp_pim_batched(device, qpose: QuantizedPose,
                     feats: QuantizedFeatures, camera: CameraIntrinsics,
                     base_row: int = 0,
                     mode: str = "auto") -> WarpResult:
    """Warp an arbitrary-size feature set through one program replay.

    Features are split into blocks of up to 160 (the 16-bit lane
    count); each block occupies :data:`WARP_BLOCK_ROWS` consecutive
    rows starting at ``base_row + block * WARP_BLOCK_ROWS``.  The
    compute body is recorded once and replayed across all block bases,
    vectorized; outputs and ledger totals are identical to looping
    :func:`warp_pim` over the blocks.  ``mode`` (``"auto"`` or
    ``"eager"``) selects the
    :meth:`~repro.pim.device.PIMDevice.run_program` replay tier.
    """
    lanes = device.config.lanes(_LANE_BITS)
    n = len(feats)
    num_blocks = max(1, -(-n // lanes))
    if base_row + num_blocks * WARP_BLOCK_ROWS > device.config.num_rows:
        raise ValueError(
            f"{num_blocks} warp blocks do not fit the array")
    device.set_precision(_LANE_BITS)
    bases = [base_row + k * WARP_BLOCK_ROWS for k in range(num_blocks)]

    def blocks_of(vals: np.ndarray) -> np.ndarray:
        full = np.zeros((num_blocks, lanes), dtype=np.int64)
        full.reshape(-1)[:n] = np.asarray(vals, dtype=np.int64).reshape(-1)
        return full

    for offset, vals in ((_W.a, feats.a), (_W.b, feats.b),
                         (_W.c, feats.c)):
        device.load_rows([b + offset for b in bases], blocks_of(vals))

    program = warp_program(qpose, feats.fmt.fraction_bits, camera,
                           device.config)
    with obs_span("warp", device=device, category="kernel",
                  features=n, blocks=num_blocks):
        device.run_program(program, bases, mode=mode)

    def collect(offset: int) -> np.ndarray:
        block = device.store_rows([b + offset for b in bases])
        return block.reshape(-1)[:n]

    u, v = collect(_W.u), collect(_W.v)
    rx, ry, z = collect(_W.rx), collect(_W.ry), collect(_W.z)
    scale = UV_FORMAT.scale
    valid = (z > 0) & (u >= 0) & (u <= (camera.width - 1) * scale) & \
        (v >= 0) & (v <= (camera.height - 1) * scale)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)
