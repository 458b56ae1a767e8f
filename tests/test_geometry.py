"""Tests for SE(3) and the camera model."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry import (
    SE3,
    TUM_QVGA,
    inverse_depth_coords,
    se3_exp,
    se3_log,
    so3_exp,
    so3_log,
)


def small_twists():
    return st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6).map(
        np.array)


class TestSO3:
    def test_exp_of_zero_is_identity(self):
        np.testing.assert_allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_exp_is_rotation(self):
        rot = so3_exp(np.array([0.1, -0.2, 0.3]))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_quarter_turn_about_z(self):
        rot = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_log_exp_roundtrip(self, w):
        w = np.array(w)
        if np.linalg.norm(w) > 3.0:  # stay inside the principal branch
            return
        np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-8)

    def test_log_near_pi(self):
        w = np.array([0.0, 0.0, np.pi - 1e-4])
        back = so3_log(so3_exp(w))
        np.testing.assert_allclose(np.abs(back), np.abs(w), atol=1e-5)


def _twist_scales():
    """Twists from ``1e-14`` (below the small-angle cut) up to ``pi``."""
    return st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        st.sampled_from([0.0, 1e-14, 1e-11, 1e-10, 1.2e-10, 1e-6, 1e-3,
                         0.1, 1.0, np.pi]),
        st.booleans(),
    ).map(lambda d: np.array(d[0]) * ([1.0] * 3 + [d[1]] * 3)
          if d[2] else np.array(d[0]) * d[1])


def _signed_zeros(xi, mask):
    """``xi`` with the entries picked by the bits of ``mask`` set to
    ``-0.0``."""
    xi = np.array(xi, dtype=np.float64)
    for i in range(6):
        if mask >> i & 1:
            xi[i] = -0.0
    return xi


class TestSE3:
    @given(_twist_scales(), st.integers(0, 63))
    @settings(max_examples=300)
    @example(np.zeros(6), 0b111000)
    @example(np.array([0.1, 0.2, 0.3, 0.0, 0.0, 1e-11]), 0b011000)
    @example(np.array([0.1, 0.2, 0.3, 0.5, 0.0, 0.0]), 0b110111)
    def test_exp_equals_the_two_function_formula(self, xi, mask):
        """``se3_exp`` is ``so3_exp(w)`` and ``V(w) @ v``, bit for bit
        (signed zeros included), on both sides of the ``|w| < 1e-10``
        cut and with ``-0.0`` entries."""
        from repro.geometry.se3 import _EYE3, _left_jacobian
        xi = _signed_zeros(xi, mask)
        pose = se3_exp(xi)
        bits = (lambda a: np.asarray(a, dtype=np.float64).view(np.uint64))
        np.testing.assert_array_equal(bits(pose.R), bits(so3_exp(xi[3:])))
        np.testing.assert_array_equal(
            bits(pose.t), bits(_left_jacobian(xi[3:]) @ xi[:3]))
        np.testing.assert_array_equal(_EYE3, np.eye(3))
        assert not _EYE3.flags.writeable

    @given(small_twists())
    @settings(max_examples=50)
    def test_exp_log_roundtrip(self, xi):
        np.testing.assert_allclose(se3_log(se3_exp(xi)), xi, atol=1e-8)

    def test_identity(self):
        ident = SE3.identity()
        np.testing.assert_allclose(ident.apply([[1, 2, 3]]), [[1, 2, 3]])

    @given(small_twists(), small_twists())
    @settings(max_examples=30)
    def test_compose_inverse(self, xi1, xi2):
        a, b = se3_exp(xi1), se3_exp(xi2)
        c = a @ b
        pts = np.array([[0.3, -0.2, 1.5]])
        np.testing.assert_allclose(c.apply(pts), a.apply(b.apply(pts)),
                                   atol=1e-12)
        ident = (c @ c.inverse()).matrix
        np.testing.assert_allclose(ident, np.eye(4), atol=1e-12)

    def test_matrix_roundtrip(self):
        pose = se3_exp(np.array([0.1, 0.2, -0.3, 0.05, -0.1, 0.2]))
        again = SE3.from_matrix(pose.matrix)
        np.testing.assert_allclose(again.R, pose.R)
        np.testing.assert_allclose(again.t, pose.t)

    @given(small_twists())
    @settings(max_examples=30)
    def test_quaternion_roundtrip(self, xi):
        pose = se3_exp(xi)
        again = SE3.from_quaternion(pose.t, pose.to_quaternion())
        np.testing.assert_allclose(again.R, pose.R, atol=1e-9)

    def test_distance_to(self):
        a = SE3.identity()
        translation = SE3(np.eye(3), [0.3, 0.0, 0.0])
        t_err, r_err = a.distance_to(translation)
        assert t_err == pytest.approx(0.3, abs=1e-9)
        assert r_err == pytest.approx(0.0, abs=1e-9)
        rotation = se3_exp(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.1]))
        t_err, r_err = a.distance_to(rotation)
        assert t_err == pytest.approx(0.0, abs=1e-9)
        assert r_err == pytest.approx(0.1, abs=1e-9)


class TestCamera:
    def test_project_backproject_roundtrip(self):
        cam = TUM_QVGA
        rng = np.random.default_rng(2)
        u = rng.uniform(10, 310, size=50)
        v = rng.uniform(10, 230, size=50)
        d = rng.uniform(0.5, 5.0, size=50)
        pts = cam.backproject(u, v, d)
        uv, valid = cam.project(pts)
        assert valid.all()
        np.testing.assert_allclose(uv[:, 0], u, atol=1e-9)
        np.testing.assert_allclose(uv[:, 1], v, atol=1e-9)

    def test_behind_camera_invalid(self):
        cam = TUM_QVGA
        _, valid = cam.project(np.array([[0.0, 0.0, -1.0]]))
        assert not valid.any()

    def test_out_of_image_invalid(self):
        cam = TUM_QVGA
        pts = cam.backproject(500.0, 120.0, 2.0)
        _, valid = cam.project(pts[None])
        assert not valid.any()

    def test_principal_point_projects_to_center(self):
        cam = TUM_QVGA
        uv, valid = cam.project(np.array([[0.0, 0.0, 2.0]]))
        assert valid.all()
        np.testing.assert_allclose(uv[0], [cam.cx, cam.cy])

    def test_scaled(self):
        half = TUM_QVGA.scaled(0.5)
        assert half.width == 160 and half.height == 120
        assert half.fx == pytest.approx(TUM_QVGA.fx / 2)

    def test_inverse_depth_coords(self):
        cam = TUM_QVGA
        a, b, c = inverse_depth_coords(cam, cam.cx, cam.cy, 2.0)
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(0.0)
        assert c == pytest.approx(0.5)

    def test_inverse_depth_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            inverse_depth_coords(TUM_QVGA, 10.0, 10.0, 0.0)

    def test_inverse_depth_in_q412_range(self):
        # Every pixel of the image with depth >= 0.2 m stays inside
        # the Q4.12 representable range (+-8).
        cam = TUM_QVGA
        u, v = cam.pixel_grid()
        a, b, c = inverse_depth_coords(cam, u, v, np.full_like(u, 0.2))
        assert np.abs(a).max() < 8 and np.abs(b).max() < 8
        assert np.abs(c).max() <= 5.0
