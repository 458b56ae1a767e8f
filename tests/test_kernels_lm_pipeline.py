"""Tests for the full LM-iteration device program."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fixedpoint import Q14_2
from repro.geometry import TUM_QVGA, inverse_depth_coords, se3_exp
from repro.kernels.hessian import unpack_symmetric
from repro.kernels.lm_pipeline import lm_iteration_pim, nearest_lookup
from repro.kernels.warp import (
    quantize_features,
    quantize_pose,
    warp_pim_batched,
)
from repro.pim import PIMConfig, PIMDevice
from repro.vo import PIMFrontend, TrackerConfig
from repro.vo.frontend import KeyframeMaps

CAM = TUM_QVGA
CFG = PIMConfig(wordline_bits=2560, num_rows=64)
#: The production mirror, with the device's nearest-pixel residual.
FRONTEND = PIMFrontend(TrackerConfig(camera=CAM,
                                     pim_bilinear_residual=False,
                                     residual_clamp=32.0))
CLAMP_RAW = int(Q14_2.quantize(32.0))


def make_inputs(n=400, seed=0, twist=0.02, period=40.0, amp=10.0,
                grad_dtype=np.int64):
    """A pose, ``n`` quantized features and synthetic keyframe maps:
    smooth ramps quantized to Q14.2, like ``prepare_keyframe``'s (which
    stores the gradient raws as int32)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(10, CAM.width - 10, n)
    v = rng.uniform(10, CAM.height - 10, n)
    d = rng.uniform(0.8, 5.0, n)
    a, b, c = inverse_depth_coords(CAM, u, v, d)
    feats = quantize_features(a, b, c)
    pose = se3_exp(rng.uniform(-twist, twist, 6))
    ys, xs = np.mgrid[0:CAM.height, 0:CAM.width].astype(np.float64)
    dt = np.abs(np.sin(xs / period) * amp +
                np.cos(ys / (0.75 * period)) * 0.8 * amp) + 1
    gu = np.gradient(dt, axis=1) * CAM.fx
    gv = np.gradient(dt, axis=0) * CAM.fy
    maps = KeyframeMaps(dt=dt, grad_u=gu, grad_v=gv,
                        dt_raw=Q14_2.quantize(dt).astype(np.int64),
                        gu_raw=Q14_2.quantize(gu).astype(grad_dtype),
                        gv_raw=Q14_2.quantize(gv).astype(grad_dtype))
    return pose, feats, maps


def run_device(dev, pose, feats, maps, naive=False):
    """:func:`lm_iteration_pim` on the same inputs as the frontend."""
    return lm_iteration_pim(dev, quantize_pose(pose), feats, CAM,
                            maps.dt_raw, maps.gu_raw, maps.gv_raw,
                            CLAMP_RAW, naive=naive)


class TestNearestLookup:
    def test_rounding(self):
        grid = np.arange(12).reshape(3, 4)
        # Q14.2: 1.25 -> index 1; 1.75 -> index 2.
        u = np.array([5, 7])   # 1.25, 1.75 in Q14.2
        v = np.array([0, 0])
        np.testing.assert_array_equal(nearest_lookup(grid, u, v), [1, 2])

    def test_clipping(self):
        grid = np.arange(12).reshape(3, 4)
        u = np.array([-10, 100])
        v = np.array([-10, 100])
        np.testing.assert_array_equal(nearest_lookup(grid, u, v), [0, 11])


class TestLMIteration:
    """The production mirror of one LM iteration, ``PIMFrontend.error``
    then ``linearize`` on its lookup, equals the device program."""

    @staticmethod
    def assert_mirror_equals_device(pose, feats, maps):
        err, n_valid, lookup = FRONTEND.error(feats, pose, maps)
        h, b, lin_err, lin_valid = FRONTEND.linearize(feats, pose, maps,
                                                      lookup)
        assert (lin_err, lin_valid) == (err, n_valid)
        # The residuals as the device gathers them, after its warp.
        warp = warp_pim_batched(PIMDevice(CFG), quantize_pose(pose),
                                feats, CAM)
        r = np.minimum(nearest_lookup(maps.dt_raw, warp.u, warp.v),
                       CLAMP_RAW)[warp.valid]
        assert n_valid == r.size
        if n_valid:
            assert err == float(np.mean(Q14_2.to_float(r) ** 2))
        dev = PIMDevice(CFG)
        h_dev, b_dev, breakdown = run_device(dev, pose, feats, maps)
        np.testing.assert_array_equal(h, unpack_symmetric(h_dev / 8))
        np.testing.assert_array_equal(b, b_dev / 8)
        assert breakdown.total == dev.ledger.cycles

    def test_device_matches_fast_mirror(self):
        self.assert_mirror_equals_device(*make_inputs(400, seed=1))

    # n = 1, one 16-bit batch and either side of it, and a partial
    # sixth batch; gradient raws as prepare_keyframe's int32 and as
    # int64.
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 480), seed=st.integers(0, 2**32 - 1),
           twist=st.floats(0.0, 0.1), period=st.floats(8.0, 80.0),
           amp=st.floats(1.0, 40.0),
           grad_dtype=st.sampled_from([np.int32, np.int64]))
    @example(n=1, seed=0, twist=0.02, period=40.0, amp=10.0,
             grad_dtype=np.int32)
    @example(n=159, seed=1, twist=0.02, period=40.0, amp=10.0,
             grad_dtype=np.int64)
    @example(n=160, seed=2, twist=0.05, period=20.0, amp=30.0,
             grad_dtype=np.int32)
    @example(n=161, seed=3, twist=0.1, period=8.0, amp=40.0,
             grad_dtype=np.int64)
    @example(n=801, seed=4, twist=0.02, period=40.0, amp=10.0,
             grad_dtype=np.int32)
    def test_mirror_equals_device_property(self, n, seed, twist, period,
                                           amp, grad_dtype):
        self.assert_mirror_equals_device(
            *make_inputs(n, seed, twist=twist, period=period, amp=amp,
                         grad_dtype=grad_dtype))

    def test_breakdown_phases_all_populated(self):
        pose, feats, maps = make_inputs(200, seed=2)
        _, _, br = run_device(PIMDevice(CFG), pose, feats, maps)
        for phase in ("warp", "lookup", "jacobian", "mask", "hessian",
                      "reduce"):
            assert getattr(br, phase) > 0, phase

    def test_naive_slower_same_scale(self):
        pose, feats, maps = make_inputs(480, seed=3)
        h_opt, b_opt, br_opt = run_device(PIMDevice(CFG), pose, feats,
                                          maps)
        h_naive, b_naive, br_naive = run_device(
            PIMDevice(CFG), pose, feats, maps, naive=True)
        assert br_naive.total > br_opt.total
        ratio = br_naive.total / br_opt.total
        assert 1.1 < ratio < 2.5  # paper's Fig. 9-b shows 1.4x
        # The naive Hessian diagonal agrees with the optimized one
        # (same products, different mapping).
        diag_opt = unpack_symmetric(h_opt).diagonal()
        diag_naive = unpack_symmetric(h_naive).diagonal()
        np.testing.assert_allclose(diag_naive, diag_opt, rtol=0.2,
                                   atol=np.abs(diag_opt).max() * 0.05)

    def test_hessian_is_positive_semidefinite(self):
        pose, feats, maps = make_inputs(320, seed=4)
        h, _, _, _ = FRONTEND.linearize(feats, pose, maps)
        eig = np.linalg.eigvalsh(h)
        assert eig.min() > -1e-6 * max(eig.max(), 1.0)

    def test_cycles_scale_with_features(self):
        pose, feats_small, maps = make_inputs(160, seed=5)
        _, feats_large, _ = make_inputs(800, seed=5)
        dev_s = PIMDevice(CFG)
        run_device(dev_s, pose, feats_small, maps)
        dev_l = PIMDevice(CFG)
        run_device(dev_l, pose, feats_large, maps)
        assert dev_l.ledger.cycles > 3 * dev_s.ledger.cycles

    def test_device_too_small_rejected(self):
        pose, feats, maps = make_inputs(10, seed=6)
        dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=32))
        with pytest.raises(ValueError):
            run_device(dev, pose, feats, maps)


class TestMultiplierBitsDevice:
    def test_short_multiplier_loop_cycles(self):
        dev = PIMDevice(PIMConfig(wordline_bits=64, num_rows=8))
        dev.set_precision(32)
        dev.load(0, [100000, -5])
        dev.load(1, [1200, -300])
        from repro.pim.device import TMP
        dev.mul(TMP, 0, 1, multiplier_bits=16)
        assert dev.ledger.cycles == 18  # 16 + 2, not 34
        np.testing.assert_array_equal(dev.read_tmp()[:2],
                                      [120000000, 1500])

    def test_overwide_multiplier_rejected(self):
        dev = PIMDevice(PIMConfig(wordline_bits=64, num_rows=8))
        dev.set_precision(32)
        dev.load(0, [2])
        dev.load(1, [1 << 20])
        from repro.pim.device import TMP
        with pytest.raises(ValueError):
            dev.mul(TMP, 0, 1, multiplier_bits=16)
