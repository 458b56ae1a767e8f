"""Hypothesis property tests across the geometry/warp stack."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.evaluation import relative_pose_error
from repro.geometry import SE3, TUM_QVGA, inverse_depth_coords, se3_exp
from repro.geometry.se3 import so3_exp
from repro.kernels.warp import (
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
)

CAM = TUM_QVGA


def twists(scale=0.05):
    return st.lists(st.floats(-scale, scale), min_size=6,
                    max_size=6).map(np.array)


def feature_batches(n=30):
    return st.tuples(
        st.lists(st.floats(30, CAM.width - 30), min_size=n, max_size=n),
        st.lists(st.floats(30, CAM.height - 30), min_size=n, max_size=n),
        st.lists(st.floats(0.8, 6.0), min_size=n, max_size=n),
    ).map(lambda t: tuple(np.array(x) for x in t))


def _warp_float_expression(pose, a, b, c, camera):
    """``warp_float``'s fields as out-of-place expressions."""
    r, t = pose.R, pose.t
    x = r[0, 0] * a + r[0, 1] * b + r[0, 2] + t[0] * c
    y = r[1, 0] * a + r[1, 1] * b + r[1, 2] + t[1] * c
    z = r[2, 0] * a + r[2, 1] * b + r[2, 2] + t[2] * c
    safe_z = np.where(np.abs(z) < 1e-12, 1e-12, z)
    rx, ry = x / safe_z, y / safe_z
    u = camera.fx * rx + camera.cx
    v = camera.fy * ry + camera.cy
    valid = (z > 1e-6) & (u >= 0) & (u <= camera.width - 1) & \
        (v >= 0) & (v <= camera.height - 1)
    return dict(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


class TestWarpFloatInPlace:
    @given(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           st.tuples(st.floats(-1, 1), st.floats(-1, 1),
                     st.floats(0.05, 1) | st.floats(-1, -0.05)),
           feature_batches(),
           st.integers(0, 10), st.integers(0, 10),
           st.lists(st.floats(-1.0, 1e-6), min_size=10, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_fields_equal_the_expression(self, w, t, uvd, n_zero,
                                         n_behind, behind_z):
        """Every field is bit-equal to the out-of-place expression,
        with lanes at ``|z| < 1e-12`` and at ``z <= 1e-6``."""
        pose = SE3(so3_exp(np.array(w)), np.array(t))
        a, b, c = inverse_depth_coords(CAM, *uvd)
        r, tz = pose.R[2], pose.t[2]
        # Solve c so that z lands on ~0 or on a drawn z <= 1e-6.
        rest = r[0] * a + r[1] * b + r[2]
        c[:n_zero] = -rest[:n_zero] / tz
        lanes = slice(n_zero, n_zero + n_behind)
        c[lanes] = (np.array(behind_z[:n_behind]) - rest[lanes]) / tz
        want = _warp_float_expression(pose, a, b, c, CAM)
        assert (np.abs(want["z"][:n_zero]) < 1e-12).all()
        got = warp_float(pose, a, b, c, CAM)
        for field, value in want.items():
            assert np.array_equal(getattr(got, field), value), field


class TestWarpProperties:
    @given(twists(), feature_batches())
    @settings(max_examples=25, deadline=None)
    def test_forward_backward_roundtrip(self, xi, uvd):
        """Warping with P then with P^-1 returns the original pixels."""
        u, v, d = uvd
        pose = se3_exp(xi)
        a, b, c = inverse_depth_coords(CAM, u, v, d)
        fwd = warp_float(pose, a, b, c, CAM)
        ok = fwd.valid
        if not ok.any():
            return
        # Depth after warping: Z_real = z_scaled * d.
        d2 = fwd.z[ok] * d[ok]
        a2, b2, c2 = inverse_depth_coords(CAM, fwd.u[ok], fwd.v[ok], d2)
        back = warp_float(pose.inverse(), a2, b2, c2, CAM)
        ok2 = back.valid
        np.testing.assert_allclose(back.u[ok2], u[ok][ok2], atol=1e-6)
        np.testing.assert_allclose(back.v[ok2], v[ok][ok2], atol=1e-6)

    @given(twists(0.02), feature_batches())
    @settings(max_examples=20, deadline=None)
    def test_composition_consistency(self, xi, uvd):
        """Warping by P twice equals warping by P @ P."""
        u, v, d = uvd
        pose = se3_exp(xi)
        a, b, c = inverse_depth_coords(CAM, u, v, d)
        one = warp_float(pose, a, b, c, CAM)
        ok = one.valid
        if not ok.any():
            return
        d2 = one.z[ok] * d[ok]
        a2, b2, c2 = inverse_depth_coords(CAM, one.u[ok], one.v[ok], d2)
        two = warp_float(pose, a2, b2, c2, CAM)
        direct = warp_float(pose @ pose, a, b, c, CAM)
        both = two.valid & direct.valid[ok]
        np.testing.assert_allclose(two.u[both], direct.u[ok][both],
                                   atol=1e-6)

    @given(twists(0.03), feature_batches())
    @settings(max_examples=20, deadline=None)
    def test_quantized_warp_tracks_float(self, xi, uvd):
        """The Q4.12 warp stays within a pixel of float everywhere."""
        u, v, d = uvd
        pose = se3_exp(xi)
        a, b, c = inverse_depth_coords(CAM, u, v, d)
        ref = warp_float(pose, a, b, c, CAM)
        q = warp_fast(quantize_pose(pose), quantize_features(a, b, c),
                      CAM)
        uq, vq = q.uv_float()
        both = ref.valid & q.valid
        if both.any():
            err = np.hypot(uq[both] - ref.u[both], vq[both] - ref.v[both])
            assert err.max() < 1.0

    @given(feature_batches())
    @settings(max_examples=15, deadline=None)
    def test_identity_warp_is_fixed_point(self, uvd):
        u, v, d = uvd
        a, b, c = inverse_depth_coords(CAM, u, v, d)
        res = warp_float(SE3.identity(), a, b, c, CAM)
        np.testing.assert_allclose(res.u, u, atol=1e-9)
        np.testing.assert_allclose(res.v, v, atol=1e-9)
        assert res.valid.all()


class TestMetricProperties:
    @given(twists(1.0))
    @settings(max_examples=25, deadline=None)
    def test_rpe_invariant_to_any_rigid_offset(self, xi):
        from repro.dataset.trajectories import xyz_shake_trajectory
        gt = xyz_shake_trajectory(40)
        offset = se3_exp(xi)
        est = [offset @ p for p in gt]
        rpe = relative_pose_error(est, gt, delta=30)
        assert rpe.translation_rmse < 1e-8
        assert rpe.rotation_rmse < 1e-6

    @given(twists(0.3), twists(0.3))
    @settings(max_examples=25, deadline=None)
    def test_se3_group_axioms(self, xi1, xi2):
        a, b = se3_exp(xi1), se3_exp(xi2)
        # Associativity with the identity and inverse consistency.
        ident = SE3.identity()
        np.testing.assert_allclose((a @ ident).matrix, a.matrix,
                                   atol=1e-12)
        np.testing.assert_allclose((a @ a.inverse()).matrix,
                                   np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            ((a @ b).inverse()).matrix,
            (b.inverse() @ a.inverse()).matrix, atol=1e-12)
