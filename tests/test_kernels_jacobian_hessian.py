"""Tests for the Jacobian and Hessian kernels (Fig. 5-c/d)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.fixedpoint import Q14_2, Q29_3, ops
from repro.geometry import TUM_QVGA, inverse_depth_coords, se3_exp
from repro.kernels.common import shift_pixels
from repro.kernels.hessian import (
    SYM_PAIRS,
    hessian_fast,
    hessian_float,
    hessian_pim,
    hessian_pim_naive,
    hessian_reduce_pim,
    reduction_shifts,
    unpack_symmetric,
)
from repro.kernels.jacobian import (
    JacobianRows,
    _entry_peak,
    jacobian_fast,
    jacobian_float,
    jacobian_pim,
    jacobian_pim_naive,
)
from repro.kernels.warp import (
    WarpResult,
    WarpRows,
    _qdiv,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
    warp_pim,
)
from repro.obs.metrics import get_registry
from repro.pim import PIMConfig, PIMDevice

CAM = TUM_QVGA

#: Up to three full 80-lane batches plus a partial fourth.
MAX_FEATURES = 3 * 80 + 17


def hessian_loop_reference(j_raw, r_raw, lanes, acc_bits):
    """Per-batch, per-product saturating loop: the oracle for
    ``hessian_fast`` at any lane configuration."""
    j = np.asarray(j_raw, dtype=np.int64)
    r = np.asarray(r_raw, dtype=np.int64).reshape(-1)
    n = r.size
    padded = max(1, -(-n // lanes)) * lanes
    jp = np.zeros((padded, 6), dtype=np.int64)
    rp = np.zeros(padded, dtype=np.int64)
    jp[:n] = j
    rp[:n] = r
    acc = np.zeros((27, lanes), dtype=np.int64)
    for start in range(0, padded, lanes):
        jb = jp[start:start + lanes]
        rb = rp[start:start + lanes]
        for idx, (p, q) in enumerate(SYM_PAIRS):
            prod = ops.saturate((jb[:, p] * jb[:, q]) >> 1, acc_bits)
            acc[idx] = ops.sat_add(acc[idx], prod, acc_bits)
        for i in range(6):
            prod = ops.saturate((jb[:, i] * rb) >> 1, acc_bits)
            acc[21 + i] = ops.sat_add(acc[21 + i], prod, acc_bits)
    for s in reduction_shifts(lanes):
        acc = ops.sat_add(acc, shift_pixels(acc, s), acc_bits)
    return acc[:21, 0], acc[21:, 0]


def lm_raws(n, extreme, seed):
    """Jacobian and residual raws: small, or at the int16 edges
    (+-2^15), where four batches of ``(-2^15)^2 >> 1`` overflow a
    32-bit accumulator."""
    rng = np.random.default_rng(seed)
    if extreme:
        edges = np.array([-(1 << 15), (1 << 15) - 1])
        return rng.choice(edges, (n, 6)), rng.choice(edges, n)
    return (rng.integers(-1200, 1201, (n, 6)),
            rng.integers(-120, 121, n))


def worst_raws(n, m, lanes):
    """The worst case at magnitude ``m``: every ``J = -m``; ``r = +m``
    in lane 0 and ``-m`` in the lane the reduction tree folds onto
    lane 0 first, zero elsewhere.  Lane 0 of each ``b`` accumulator
    then sums ``(-m*m) >> 1 = -ceil(m*m/2)`` once per batch, and the
    first fold adds an opposite-signed lane, so an unsaturated lane 0
    would show in the result."""
    lane = np.arange(n) % lanes
    r = np.where(lane == 0, m, 0) - np.where(
        lane == reduction_shifts(lanes)[0], m, 0)
    return np.full((n, 6), -m), r


def saturated_calls(name="kernels_hessian_saturated_total"):
    return get_registry().counter(name).total()


LANE_MIN, LANE_MAX = -(1 << 15), (1 << 15) - 1
_JROWS = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12, k=13,
                      j=(14, 15, 16, 17, 18, 19))


def jacobian_both(rx, ry, z, c, iu, iv):
    """``jacobian_fast`` and ``jacobian_pim`` on the same lanes, and
    whether the mirror ran its saturating fallback."""
    dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=40))
    dev.set_precision(16)
    for row, vals in ((_JROWS.rx, rx), (_JROWS.ry, ry), (_JROWS.z, z),
                      (_JROWS.c, c), (_JROWS.iu, iu), (_JROWS.iv, iv)):
        dev.load(row, vals)
    want = jacobian_pim(dev, _JROWS, len(rx))
    warp = WarpResult(u=np.zeros_like(rx), v=np.zeros_like(rx), rx=rx,
                      ry=ry, z=z, valid=np.ones(len(rx), dtype=bool))
    before = saturated_calls("kernels_jacobian_saturated_total")
    got = jacobian_fast(warp, c, iu, iv)
    fell_back = saturated_calls("kernels_jacobian_saturated_total") > before
    return got, want, fell_back


def hessian_device(j, r, lanes=80):
    """``hessian_pim`` over ``lanes``-wide batches, then the tree."""
    dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=64))
    dev.set_precision(32)
    acc_rows = list(range(7, 34))
    for batch in range(max(1, -(-len(r) // lanes))):
        sl = slice(batch * lanes, (batch + 1) * lanes)
        for i in range(6):
            dev.load(i, j[sl, i])
        dev.load(6, r[sl])
        hessian_pim(dev, list(range(6)), 6, acc_rows,
                    first_batch=(batch == 0))
    raws = hessian_reduce_pim(dev, acc_rows)
    return raws[:21], raws[21:]


@st.composite
def jacobian_lanes(draw):
    """Up to one 16-bit batch: LM-scale operands (the bound clears) or
    raw lanes over the whole 16-bit range (it mostly cannot)."""
    n = draw(st.integers(1, 160))
    if draw(st.booleans()):
        def lane(lo, hi):
            return draw(arrays(np.int64, n, elements=st.integers(lo, hi)))
        return (lane(-2500, 2500), lane(-2500, 2500), lane(1000, 20000),
                lane(800, 5000), lane(-1100, 1100), lane(-1100, 1100))
    return tuple(draw(arrays(np.int64, (6, n),
                             elements=st.integers(LANE_MIN, LANE_MAX))))


def setup_batch(n=160, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(30, CAM.width - 30, n)
    v = rng.uniform(30, CAM.height - 30, n)
    d = rng.uniform(1.0, 4.0, n)
    a, b, c = inverse_depth_coords(CAM, u, v, d)
    pose = se3_exp(rng.uniform(-0.02, 0.02, 6))
    grad_u = rng.uniform(-1, 1, n) * CAM.fx
    grad_v = rng.uniform(-1, 1, n) * CAM.fy
    return (a, b, c, d), pose, (grad_u, grad_v)


class TestJacobianFloat:
    def test_matches_numerical_differentiation(self):
        # Perturb the pose along each twist axis and check that the
        # predicted change in warped position, dotted with the gradient,
        # matches the analytic Jacobian.
        (a, b, c, d), pose, (gu, gv) = setup_batch(n=20, seed=1)
        base = warp_float(pose, a, b, c, CAM)
        x, y = base.rx * base.z / c, base.ry * base.z / c
        z = base.z / c
        jac = jacobian_float(x, y, z, gu, gv)
        eps = 1e-6
        for axis in range(6):
            xi = np.zeros(6)
            xi[axis] = eps
            pose2 = se3_exp(xi) @ pose
            pert = warp_float(pose2, a, b, c, CAM)
            # d(residual)/d(xi_axis) = gu/fx * du + gv/fy * dv.
            du = (pert.u - base.u) / eps
            dv = (pert.v - base.v) / eps
            numeric = gu / CAM.fx * du + gv / CAM.fy * dv
            np.testing.assert_allclose(jac[:, axis], numeric,
                                       rtol=1e-3, atol=1e-2)

    def test_zero_gradient_gives_zero_row(self):
        jac = jacobian_float([0.1], [0.2], [2.0], [0.0], [0.0])
        np.testing.assert_allclose(jac, 0.0)

    @given(st.integers(0, 50), st.integers(0, 10 ** 9),
           st.sampled_from([0.0, 1e-13, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_equals_stacked_expressions_bitwise(self, n, seed, near_zero):
        """The six columns equal the Fig. 5-d expressions stacked, bit
        for bit, including guarded depths (``|z| < 1e-12``, +-0.0) and
        negative ones; the inputs are left as they were."""
        rng = np.random.default_rng(seed)
        x, y, iu, iv = (rng.normal(0.0, s, n) for s in (1.0, 1.0, 300, 300))
        z = rng.uniform(-0.5, 5.0, n)
        z[::4] = near_zero
        z[1::7] = -near_zero
        inputs = [a.copy() for a in (x, y, z, iu, iv)]
        safe_z = np.where(np.abs(z) < 1e-12, 1e-12, z)
        k = (x * iu + y * iv) / safe_z
        w = 1.0 / safe_z
        rx, ry = x / safe_z, y / safe_z
        want = np.stack([iu * w, iv * w, -(k * w), -(ry * k + iv),
                         rx * k + iu, rx * iv - ry * iu], axis=-1)
        got = jacobian_float(x, y, z, iu, iv)
        assert got.shape == (n, 6) and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        for before, after in zip(inputs, (x, y, z, iu, iv)):
            np.testing.assert_array_equal(before.view(np.uint64),
                                          after.view(np.uint64))


class TestJacobianFast:
    def quantized_inputs(self, seed=2, n=160):
        (a, b, c, d), pose, (gu, gv) = setup_batch(n=n, seed=seed)
        qf = quantize_features(a, b, c)
        qp = quantize_pose(pose)
        warp_q = warp_fast(qp, qf, CAM)
        iu = np.asarray(Q14_2.quantize(gu), dtype=np.int64)
        iv = np.asarray(Q14_2.quantize(gv), dtype=np.int64)
        return (a, b, c, d), pose, (gu, gv), qf, qp, warp_q, iu, iv

    def test_close_to_float_reference(self):
        (a, b, c, d), pose, (gu, gv), qf, qp, warp_q, iu, iv = \
            self.quantized_inputs()
        j_raw = jacobian_fast(warp_q, qf.c, iu, iv)
        ref = warp_float(pose, a, b, c, CAM)
        x, y = ref.rx * ref.z / c, ref.ry * ref.z / c
        z = ref.z / c
        j_float = jacobian_float(x, y, z, gu, gv)
        j_q = Q14_2.to_float(j_raw)
        scale = np.maximum(np.abs(j_float), 20.0)
        rel = np.abs(j_q - j_float) / scale
        assert np.median(rel) < 0.02
        assert rel.max() < 0.25

    def test_device_matches_fast_exactly(self):
        _, pose, _, qf, qp, warp_q, iu, iv = self.quantized_inputs(3)
        cfg = PIMConfig(wordline_bits=2560, num_rows=40)
        dev = PIMDevice(cfg)
        wrows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        warp_pim(dev, qp, qf, CAM, wrows)
        dev.load(10, iu)
        dev.load(11, iv)
        jrows = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12,
                             k=13, j=(14, 15, 16, 17, 18, 19))
        j_dev = jacobian_pim(dev, jrows, 160)
        j_fast = jacobian_fast(warp_q, qf.c, iu, iv)
        np.testing.assert_array_equal(j_dev, j_fast)

    def test_naive_device_close_to_optimized(self):
        _, pose, _, qf, qp, warp_q, iu, iv = self.quantized_inputs(4)
        cfg = PIMConfig(wordline_bits=2560, num_rows=40)
        dev = PIMDevice(cfg)
        wrows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        warp_pim(dev, qp, qf, CAM, wrows)
        dev.load(10, iu)
        dev.load(11, iv)
        jrows = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12,
                             k=13, j=(14, 15, 16, 17, 18, 19))
        snap = dev.ledger.snapshot()
        j_opt = jacobian_pim(dev, jrows, 160)
        opt_cycles = dev.ledger.cycles - snap.cycles
        snap = dev.ledger.snapshot()
        j_naive = jacobian_pim_naive(dev, jrows, 160, x_row=3, y_row=4)
        naive_cycles = dev.ledger.cycles - snap.cycles
        assert naive_cycles > opt_cycles
        # Same quantity up to different rounding points.
        diff = np.abs(Q14_2.to_float(j_opt) - Q14_2.to_float(j_naive))
        scale = np.maximum(np.abs(Q14_2.to_float(j_opt)), 20.0)
        assert np.median(diff / scale) < 0.1


class TestJacobianNarrowSplit:
    """``jacobian_fast`` forms the rows in int32 only when the operand
    bound proves nothing saturates; either way it equals the device."""

    def test_fast_matches_device_on_both_paths(self):
        paths = set()

        # Raw-lane draws only mostly saturate, so each path is also
        # pinned: LM-scale lanes, and |Iu| = 2^15 - 1 over Z~ = 1.
        @settings(max_examples=40, deadline=None)
        @given(jacobian_lanes())
        @example(lanes=(np.full(8, 300), np.full(8, -200),
                        np.full(8, 4096), np.full(8, 2048),
                        np.arange(8) - 4, 4 - np.arange(8)))
        @example(lanes=(np.full(8, 2000), np.full(8, -1500),
                        np.ones(8, dtype=np.int64), np.full(8, 4096),
                        np.full(8, LANE_MAX), np.full(8, -700)))
        def check(lanes):
            got, want, fell_back = jacobian_both(*lanes)
            paths.add(fell_back)
            np.testing.assert_array_equal(got, want)

        check()
        assert paths == {False, True}

    @pytest.mark.parametrize("case", ["max_gradient_large_w", "zero_depth",
                                      "gradient_tips_j4"])
    def test_saturating_fallback_is_counted(self, case):
        n = 160
        rx = np.full(n, 2000)
        ry = np.full(n, -1500)
        c = np.full(n, 4096)
        if case == "gradient_tips_j4":
            # Every product fits the lane; only ry K + Iv does not.
            rx = np.zeros(n, dtype=np.int64)
            ry = np.full(n, 4000)
            z = np.full(n, 4096)
            c = np.ones(n, dtype=np.int64)
            iu = np.zeros(n, dtype=np.int64)
            iv = np.full(n, 32000)
        elif case == "max_gradient_large_w":
            # w = (c << 12) / 1 saturates to 2^15 - 1, and Iu * w >> 12
            # overflows the lane.
            z = np.ones(n, dtype=np.int64)
            iu = np.full(n, LANE_MAX)
            iv = np.full(n, -700)
        else:
            # Z~ = 0 on every other lane: w is the signed lane bound.
            z = np.where(np.arange(n) % 2, 0, 4096)
            iu = np.full(n, 5000)
            iv = np.full(n, 900)
        got, want, fell_back = jacobian_both(rx, ry, z, c, iu, iv)
        assert fell_back
        np.testing.assert_array_equal(got, want)

    def test_narrow_rows_are_one_int32_block(self):
        n = 100
        got, want, fell_back = jacobian_both(
            np.full(n, 300), np.full(n, -200), np.full(n, 4096),
            np.full(n, 2048), np.arange(n) - 50, 50 - np.arange(n))
        assert not fell_back
        assert got.dtype == np.int32 and got.T.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


class TestHessian:
    def test_reduction_shifts_cover_all_lanes(self):
        for lanes in (2, 5, 16, 80, 160):
            total = np.arange(1, lanes + 1, dtype=np.int64)
            acc = total.astype(np.int64).copy()
            for s in reduction_shifts(lanes):
                shifted = np.zeros_like(acc)
                shifted[:-s or None] = acc[s:]
                acc = acc + shifted
            assert acc[0] == total.sum()

    def test_unpack_symmetric(self):
        vals = np.arange(21)
        h = unpack_symmetric(vals)
        np.testing.assert_array_equal(h, h.T)
        assert h[0, 0] == 0 and h[0, 5] == 5 and h[1, 1] == 6

    def test_unpack_rejects_bad_length(self):
        with pytest.raises(ValueError):
            unpack_symmetric(np.arange(20))

    def test_fast_close_to_float(self):
        rng = np.random.default_rng(5)
        n = 300
        j = rng.uniform(-300, 300, (n, 6))
        r = rng.uniform(0, 30, n)
        j_raw = np.asarray(Q14_2.quantize(j), dtype=np.int64)
        r_raw = np.asarray(Q14_2.quantize(r), dtype=np.int64)
        h_raw, b_raw = hessian_fast(j_raw, r_raw)
        h_ref, b_ref = hessian_float(j, r)
        h_q = unpack_symmetric(Q29_3.to_float(h_raw))
        b_q = Q29_3.to_float(b_raw)
        np.testing.assert_allclose(h_q, h_ref, rtol=0.01,
                                   atol=np.abs(h_ref).max() * 0.01)
        np.testing.assert_allclose(b_q, b_ref, rtol=0.02,
                                   atol=np.abs(b_ref).max() * 0.02)

    def test_16bit_accumulation_saturates(self):
        # The paper: 16-bit H leads to solver failure. Check the raw
        # accumulator saturates far from the true value.
        rng = np.random.default_rng(6)
        n = 2000
        j = rng.uniform(-300, 300, (n, 6))
        r = rng.uniform(0, 30, n)
        j_raw = np.asarray(Q14_2.quantize(j), dtype=np.int64)
        r_raw = np.asarray(Q14_2.quantize(r), dtype=np.int64)
        h16, _ = hessian_fast(j_raw, r_raw, lanes=160, acc_bits=16)
        h32, _ = hessian_fast(j_raw, r_raw, lanes=80, acc_bits=32)
        # Diagonal entries are huge positive sums: 16-bit clips them.
        diag_idx = [SYM_PAIRS.index((i, i)) for i in range(6)]
        assert np.all(h16[diag_idx] <= (1 << 15) - 1)
        assert np.all(h32[diag_idx] > (1 << 20))

    def test_device_matches_fast_exactly(self):
        rng = np.random.default_rng(7)
        n = 240  # three 80-lane batches
        j = rng.integers(-1200, 1200, (n, 6))
        r = rng.integers(0, 120, n)
        h_fast, b_fast = hessian_fast(j, r, lanes=80)

        cfg = PIMConfig(wordline_bits=2560, num_rows=64)
        dev = PIMDevice(cfg)
        dev.set_precision(32)
        acc_rows = list(range(7, 34))
        for batch in range(3):
            sl = slice(batch * 80, (batch + 1) * 80)
            for i in range(6):
                dev.load(i, j[sl, i])
            dev.load(6, r[sl])
            hessian_pim(dev, list(range(6)), 6, acc_rows,
                        first_batch=(batch == 0))
        raws = hessian_reduce_pim(dev, acc_rows)
        np.testing.assert_array_equal(raws[:21], h_fast)
        np.testing.assert_array_equal(raws[21:], b_fast)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(0, MAX_FEATURES), extreme=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    # A lane saturates mid-accumulation and a cross term still shows
    # it after the reduction tree.
    @example(n=MAX_FEATURES, extreme=True, seed=26)
    def test_fast_matches_device_property(self, n, extreme, seed):
        j, r = lm_raws(n, extreme, seed)
        dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=64))
        dev.set_precision(32)
        acc_rows = list(range(7, 34))
        for batch in range(max(1, -(-n // 80))):
            sl = slice(batch * 80, (batch + 1) * 80)
            for i in range(6):
                dev.load(i, j[sl, i])
            dev.load(6, r[sl])
            hessian_pim(dev, list(range(6)), 6, acc_rows,
                        first_batch=(batch == 0))
        raws = hessian_reduce_pim(dev, acc_rows)
        h_fast, b_fast = hessian_fast(j, r)
        np.testing.assert_array_equal(raws[:21], h_fast)
        np.testing.assert_array_equal(raws[21:], b_fast)

    def test_fast_matches_loop_oracle_on_both_paths(self):
        paths = set()

        # The pinned worst cases sit at the bound, batches * ceil(m*m/2)
        # <= 2^(acc_bits-1) - 1, and one batch past it; equality is out
        # of reach at test sizes (2^31 - 1 is prime), so "at" is the
        # largest batch count that clears it.  m = 2^15 + 1 fails only
        # the operand limit.  m = 71 at 16 bits is where ceil matters:
        # 13 batches of floor(71*71/2) = 2520 fit, 13 of ceil = 2521
        # do not, and only the loop gets lane 0 right.
        @settings(max_examples=30, deadline=None)
        @given(config=st.sampled_from([(80, 32), (160, 16)]),
               n=st.integers(0, 2 * MAX_FEATURES), extreme=st.booleans(),
               seed=st.integers(0, 2**32 - 1), worst=st.just(0))
        @example(config=(80, 32), n=MAX_FEATURES, extreme=False, seed=0,
                 worst=0)
        @example(config=(160, 16), n=MAX_FEATURES, extreme=False, seed=0,
                 worst=0)
        @example(config=(80, 32), n=3 * 80, extreme=False, seed=0,
                 worst=1 << 15)
        @example(config=(80, 32), n=3 * 80 + 1, extreme=False, seed=0,
                 worst=1 << 15)
        @example(config=(80, 32), n=80, extreme=False, seed=0,
                 worst=(1 << 15) + 1)
        @example(config=(160, 16), n=12 * 160, extreme=False, seed=0,
                 worst=71)
        @example(config=(160, 16), n=12 * 160 + 1, extreme=False, seed=0,
                 worst=71)
        def check(config, n, extreme, seed, worst):
            lanes, acc_bits = config
            j, r = worst_raws(n, worst, lanes) if worst else \
                lm_raws(n, extreme, seed)
            before = saturated_calls()
            h_fast, b_fast = hessian_fast(j, r, lanes=lanes,
                                          acc_bits=acc_bits)
            looped = saturated_calls() > before
            paths.add(looped)
            if worst:
                batches = -(-n // lanes)
                cleared = worst <= 1 << 15 and batches * -(
                    (-worst * worst) >> 1) <= (1 << (acc_bits - 1)) - 1
                assert looped is not cleared
            h_ref, b_ref = hessian_loop_reference(j, r, lanes, acc_bits)
            np.testing.assert_array_equal(h_fast, h_ref)
            np.testing.assert_array_equal(b_fast, b_ref)

        check()
        # The bound-cleared sum and the saturating fallback both ran.
        assert paths == {False, True}

    def test_reduce_fallback_is_counted(self):
        """The batch bound clears (one batch of 20000^2 / 2 per lane)
        but 80 such lanes overflow the shift-add tree: the saturating
        tree runs, is counted, and equals the device reduction."""
        j = np.full((80, 6), 20000)
        r = np.full(80, 20000)
        before = saturated_calls()
        before_reduce = saturated_calls(
            "kernels_hessian_reduce_saturated_total")
        h_fast, b_fast = hessian_fast(j, r)
        assert saturated_calls() == before
        assert saturated_calls(
            "kernels_hessian_reduce_saturated_total") == before_reduce + 1
        h_dev, b_dev = hessian_device(j, r)
        np.testing.assert_array_equal(h_fast, h_dev)
        np.testing.assert_array_equal(b_fast, b_dev)

    def test_int32_input_equals_int64_input(self):
        j, r = lm_raws(3 * 80 + 17, False, 11)
        for got, want in zip(hessian_fast(j.astype(np.int32),
                                          r.astype(np.int32)),
                             hessian_fast(j, r)):
            np.testing.assert_array_equal(got, want)

    def test_naive_costs_more_than_optimized(self):
        rng = np.random.default_rng(8)
        j = rng.integers(-1000, 1000, (80, 6))
        r = rng.integers(0, 100, 80)
        cfg = PIMConfig(wordline_bits=2560, num_rows=64)

        dev_opt = PIMDevice(cfg)
        dev_opt.set_precision(32)
        for i in range(6):
            dev_opt.load(i, j[:, i])
        dev_opt.load(6, r)
        hessian_pim(dev_opt, list(range(6)), 6, list(range(7, 34)), True)

        dev_naive = PIMDevice(cfg)
        dev_naive.set_precision(32)
        for i in range(6):
            dev_naive.load(i, j[:, i])
        dev_naive.load(6, r)
        hessian_pim_naive(dev_naive, list(range(6)), 6,
                          list(range(7, 49)), True)
        assert dev_naive.ledger.cycles > dev_opt.ledger.cycles
        # 42 multiplies vs 27.
        ratio = dev_naive.ledger.cycles / dev_opt.ledger.cycles
        assert 1.3 < ratio < 1.8


def _lm_lanes(n, seed):
    """LM-scale Jacobian operands on which the exact bound clears."""
    rng = np.random.default_rng(seed)
    return (rng.integers(-2500, 2501, n), rng.integers(-2500, 2501, n),
            rng.integers(1000, 20001, n), rng.integers(800, 5001, n),
            rng.integers(-1100, 1101, n), rng.integers(-1100, 1101, n))


def _jacobian_with_peaks(rx, ry, z, c, iu, iv, grad_peaks):
    """``jacobian_fast`` with ``grad_peaks``: ``(jac, peak, fell_back)``."""
    warp = WarpResult(u=np.zeros_like(rx), v=np.zeros_like(rx), rx=rx,
                      ry=ry, z=z, valid=np.ones(len(rx), dtype=bool))
    before = saturated_calls("kernels_jacobian_saturated_total")
    jac, peak = jacobian_fast(warp, c, iu, iv, grad_peaks=grad_peaks,
                              return_peak=True)
    fell_back = saturated_calls("kernels_jacobian_saturated_total") > before
    return jac, peak, fell_back


class TestJacobianBoundsFromInvariants:
    """The map-peak bound is tried first and the exact per-call peaks
    only when it fails; which one clears never changes the rows."""

    def test_map_bound_fails_exact_bound_clears(self):
        rx, ry, z, c, iu, iv = _lm_lanes(160, 1)
        grad_peaks = (LANE_MAX, LANE_MAX)
        mw = int(np.abs(_qdiv(c << 12, z)).max())
        mrxy = max(np.abs(rx).max(), np.abs(ry).max())
        # The premise: the map peaks alone cannot clear the bound.
        assert _entry_peak(mrxy, mrxy, *grad_peaks, mw, 12) is None
        jac, peak, fell_back = _jacobian_with_peaks(rx, ry, z, c, iu, iv,
                                                    grad_peaks)
        assert not fell_back
        assert jac.dtype == np.int32
        got, want, _ = jacobian_both(rx, ry, z, c, iu, iv)
        np.testing.assert_array_equal(jac, want)
        np.testing.assert_array_equal(jac, got)
        assert peak >= np.abs(want).max()

    def test_both_bounds_fail(self):
        n = 160
        rx, ry = np.full(n, 2000), np.full(n, -1500)
        z, c = np.ones(n, dtype=np.int64), np.full(n, 4096)
        iu, iv = np.full(n, LANE_MAX), np.full(n, -700)
        jac, peak, fell_back = _jacobian_with_peaks(
            rx, ry, z, c, iu, iv, (LANE_MAX, 700))
        assert fell_back and peak == 1 << 15
        _, want, _ = jacobian_both(rx, ry, z, c, iu, iv)
        np.testing.assert_array_equal(jac, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 160), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 3))
    @example(n=8, seed=0, slack=0)
    def test_map_bound_equals_device(self, n, seed, slack):
        """With the map peaks at (or above) the lanes' own peaks, the
        rows equal the device and the returned peak bounds them."""
        rx, ry, z, c, iu, iv = _lm_lanes(n, seed)
        grad_peaks = (int(np.abs(iu).max()) + slack,
                      int(np.abs(iv).max()) + slack)
        jac, peak, fell_back = _jacobian_with_peaks(rx, ry, z, c, iu, iv,
                                                    grad_peaks)
        _, want, _ = jacobian_both(rx, ry, z, c, iu, iv)
        np.testing.assert_array_equal(jac, want)
        assert not fell_back
        assert peak >= np.abs(jac).max()

    @pytest.mark.parametrize("with_map_peaks", [False, True])
    def test_k_peak_at_the_lane_edge(self, with_map_peaks):
        """``w = 32767`` (Z~ = c / 8) and ``K = 4097``: ``K w >> 12``
        is 32775, which the device saturates (J3 = -32767).  The bound
        sees it only through the exact peak of ``K``: one less would
        clear every entry (``J1 = Iu w >> 12`` sits at 32767)."""
        n = 4
        zeros = np.zeros(n, dtype=np.int64)
        iu = np.full(n, 4096)
        lanes = (np.full(n, 4097), zeros, np.full(n, 4096),
                 np.full(n, LANE_MAX), iu, zeros)
        jac, peak, fell_back = _jacobian_with_peaks(
            *lanes, (4096, 0) if with_map_peaks else None)
        _, want, _ = jacobian_both(*lanes)
        assert fell_back and want[0, 2] == -LANE_MAX
        np.testing.assert_array_equal(jac, want)

    def test_returned_peak_is_tight_on_exact_products(self):
        """Every product here is a multiple of ``2**12``, so the bound
        is reached: a peak one short would not bound ``J``."""
        n = 4
        w_one = np.full(n, 4096)
        jac, peak, _ = _jacobian_with_peaks(
            np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
            w_one, w_one, np.full(n, -300), np.full(n, 100), (300, 100))
        assert peak == np.abs(jac).max() == 300


class TestHessianBound:
    """A caller's bound on ``max|[J | r]|`` decides the int32 path when
    it clears; when it does not, the measured peak decides, as before."""

    @pytest.mark.parametrize("n,worst", [(3 * 80, 1 << 15),
                                         (3 * 80 + 1, 1 << 15),
                                         (MAX_FEATURES, 0)])
    @pytest.mark.parametrize("slack", [0, 1, 1 << 16])
    def test_bound_never_changes_the_result(self, n, worst, slack):
        j, r = worst_raws(n, worst, 80) if worst else lm_raws(n, False, 3)
        exact = max(int(np.abs(j).max()), int(np.abs(r).max()))
        before = saturated_calls()
        got = hessian_fast(j, r, bound=exact + slack)
        looped = saturated_calls() > before
        want = hessian_loop_reference(j, r, 80, 32)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        before = saturated_calls()
        hessian_fast(j, r)
        assert looped is (saturated_calls() > before)

    def test_unpack_equals_the_pairwise_fill(self):
        vals = np.random.default_rng(2).normal(size=21)
        want = np.zeros((6, 6))
        for idx, (p, q) in enumerate(SYM_PAIRS):
            want[p, q] = want[q, p] = vals[idx]
        np.testing.assert_array_equal(unpack_symmetric(vals), want)
