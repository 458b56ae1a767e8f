"""Tests for the Jacobian and Hessian kernels (Fig. 5-c/d)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    jacobian_fast,
    jacobian_float,
    jacobian_pim,
    jacobian_pim_naive,
)
from repro.kernels.warp import (
    WarpRows,
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


def saturated_calls():
    return get_registry().counter("kernels_hessian_saturated_total").total()


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

        @settings(max_examples=30, deadline=None)
        @given(config=st.sampled_from([(80, 32), (160, 16)]),
               n=st.integers(0, 2 * MAX_FEATURES), extreme=st.booleans(),
               seed=st.integers(0, 2**32 - 1))
        @example(config=(80, 32), n=MAX_FEATURES, extreme=False, seed=0)
        @example(config=(160, 16), n=MAX_FEATURES, extreme=False, seed=0)
        def check(config, n, extreme, seed):
            lanes, acc_bits = config
            j, r = lm_raws(n, extreme, seed)
            before = saturated_calls()
            h_fast, b_fast = hessian_fast(j, r, lanes=lanes,
                                          acc_bits=acc_bits)
            paths.add(saturated_calls() > before)
            h_ref, b_ref = hessian_loop_reference(j, r, lanes, acc_bits)
            np.testing.assert_array_equal(h_fast, h_ref)
            np.testing.assert_array_equal(b_fast, b_ref)

        check()
        # The prefix-sum path and the saturating fallback both ran.
        assert paths == {False, True}

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
