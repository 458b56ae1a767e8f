"""Unit tests for frontend internals (lookups, keyframe maps)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import make_sequence
from repro.geometry import SE3, TUM_QVGA
from repro.vo.config import TrackerConfig
from repro.vo.features import extract_features
from repro.vo.frontend import (
    FloatFrontend,
    PIMFrontend,
    _bilinear,
    _bilinear_plan,
    _blend,
)


class TestFloatBilinear:
    def test_exact_at_grid_points(self):
        grid = np.arange(12, dtype=np.float64).reshape(3, 4)
        u = np.array([0.0, 1.0, 3.0])
        v = np.array([0.0, 2.0, 1.0])
        np.testing.assert_allclose(_bilinear(grid, u, v),
                                   [0.0, 9.0, 7.0])

    def test_midpoint_average(self):
        grid = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert _bilinear(grid, np.array([0.5]),
                         np.array([0.5]))[0] == pytest.approx(3.0)

    def test_clamps_outside(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert _bilinear(grid, np.array([-5.0]),
                         np.array([-5.0]))[0] == 1.0
        assert _bilinear(grid, np.array([99.0]),
                         np.array([99.0]))[0] == 4.0


def _bilinear_2d(grid, u, v):
    """The 2-D fancy-index bilinear lookup the plan replaced."""
    h, w = grid.shape
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = u - u0
    fv = v - v0
    return ((1 - fv) * ((1 - fu) * grid[v0, u0] + fu * grid[v0, u1]) +
            fv * ((1 - fu) * grid[v1, u0] + fu * grid[v1, u1]))


class TestBilinearPlan:
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 40),
           st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_plan_blend_equals_2d_index_lookup(self, h, w, n, seed):
        """One plan serves every grid of its shape, bit for bit, with
        coordinates inside, on and outside the grid (where they clamp);
        1-row and 1-column grids included."""
        rng = np.random.default_rng(seed)
        u = rng.uniform(-2.5, w + 1.5, n)
        v = rng.uniform(-2.5, h + 1.5, n)
        # Exact grid lines and the clamp edges.
        u[::5] = np.floor(u[::5])
        v[::7] = h - 1.0
        plan = _bilinear_plan((h, w), u, v)
        for _ in range(3):
            grid = rng.normal(0.0, 50.0, (h, w))
            want = _bilinear_2d(grid, u, v)
            np.testing.assert_array_equal(_blend(grid, plan), want)
            np.testing.assert_array_equal(_bilinear(grid, u, v), want)

    def test_non_contiguous_grid(self):
        grid = np.arange(30, dtype=np.float64).reshape(5, 6).T
        u = np.array([0.25, 3.5, 4.0, 9.0])
        v = np.array([5.75, 0.5, 2.0, -1.0])
        np.testing.assert_array_equal(_bilinear(grid, u, v),
                                      _bilinear_2d(grid, u, v))


@pytest.fixture(scope="module")
def float_pair():
    """Float frontend, keyframe maps and features of a half-QVGA pair."""
    seq = make_sequence("fr1_xyz", n_frames=4, camera=TUM_QVGA.scaled(0.5))
    cfg = TrackerConfig(camera=seq.camera)
    fe = FloatFrontend(cfg)
    maps = fe.prepare_keyframe(fe.detect(seq.frames[0].gray))
    cur = seq.frames[3]
    feats = fe.make_features(extract_features(
        fe.detect(cur.gray), cur.depth, cfg.max_features, cfg.min_depth,
        cfg.max_depth))
    return fe, maps, feats


class TestFloatLookupHandoff:
    @pytest.mark.parametrize("twist", [
        np.zeros(6),
        np.array([0.01, -0.02, 0.015, 0.004, -0.003, 0.002]),
        np.array([0.3, 0.2, -0.1, 0.05, 0.08, -0.06]),  # many invalid
    ])
    def test_linearize_with_error_lookup_equals_rewarp(self, float_pair,
                                                       twist):
        fe, maps, feats = float_pair
        pose = SE3.exp(twist)
        err, n, lookup = fe.error(feats, pose, maps)
        with_lookup = fe.linearize(feats, pose, maps, lookup)
        rewarped = fe.linearize(feats, pose, maps)
        for got, want in zip(with_lookup, rewarped):
            np.testing.assert_array_equal(got, want)
        assert with_lookup[2] == err and with_lookup[3] == n
        # The residuals are the plan's blend of the DT, clamped.
        res, r, valid, _ = lookup
        want_r = np.zeros_like(res.u)
        want_r[valid] = _bilinear_2d(maps.dt, res.u[valid], res.v[valid])
        np.testing.assert_array_equal(
            r, np.minimum(want_r, fe.config.residual_clamp))


class TestQuarterPixelBilinear:
    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=30, deadline=None)
    def test_matches_float_bilinear_at_quarter_pixels(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 2000, (8, 10)).astype(np.int64)
        # Random quarter-pixel coordinates inside the grid.
        u_raw = rng.integers(0, (10 - 1) * 4, 20)
        v_raw = rng.integers(0, (8 - 1) * 4, 20)
        q = PIMFrontend._bilinear_q2(grid, u_raw, v_raw)
        ref = _bilinear(grid.astype(np.float64), u_raw / 4.0,
                        v_raw / 4.0)
        # Integer-weight blend truncates: error strictly below 1 unit.
        assert np.all(np.abs(q - ref) < 1.0)

    def test_exact_at_integer_pixels(self):
        grid = np.arange(20, dtype=np.int64).reshape(4, 5)
        u_raw = np.array([0, 4, 8])      # columns 0, 1, 2
        v_raw = np.array([4, 8, 12])     # rows 1, 2, 3
        out = PIMFrontend._bilinear_q2(grid, u_raw, v_raw)
        np.testing.assert_array_equal(out, [5, 11, 17])

    def test_int32_coordinates_match_int64_at_the_edges(self):
        """The warp hands the lookup int32 quarter-pixel coordinates;
        at and around both map edges (where the neighbour clamps) they
        blend exactly like int64 ones."""
        h, w = 8, 10
        grid = np.random.default_rng(3).integers(0, 2000, (h, w))
        u, v = np.meshgrid([0, 1, 2, 3, 4, (w - 1) * 4 - 1, (w - 1) * 4,
                            (w - 1) * 4 + 1, (w - 1) * 4 + 3],
                           [0, 1, 3, (h - 1) * 4 - 1, (h - 1) * 4,
                            (h - 1) * 4 + 2])
        want = PIMFrontend._bilinear_q2(grid, u.astype(np.int64).ravel(),
                                        v.astype(np.int64).ravel())
        got = PIMFrontend._bilinear_q2(grid, u.astype(np.int32).ravel(),
                                       v.astype(np.int32).ravel())
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestKeyframeMaps:
    def test_float_maps_have_focal_scaled_gradients(self):
        cfg = TrackerConfig(camera=TUM_QVGA.scaled(0.25))
        fe = FloatFrontend(cfg)
        edge = np.zeros((60, 80), dtype=bool)
        edge[:, 40] = True
        maps = fe.prepare_keyframe(edge)
        # Right of the edge line the u-gradient is ~ +fx.
        assert maps.grad_u[30, 60] == pytest.approx(cfg.camera.fx,
                                                    rel=0.05)
        assert maps.dt_raw is None

    def test_pim_maps_are_quantized(self):
        cfg = TrackerConfig(camera=TUM_QVGA.scaled(0.25))
        fe = PIMFrontend(cfg)
        edge = np.zeros((60, 80), dtype=bool)
        edge[30, 40] = True
        maps = fe.prepare_keyframe(edge)
        assert maps.dt_raw is not None
        assert maps.dt_raw.dtype == np.int64
        assert maps.dt_raw[30, 40] == 0
        assert maps.dt_raw[30, 44] == 16  # 4 px in Q14.2

    def test_error_at_true_pose_near_zero(self):
        # Features anchored exactly on keyframe edges: identity warp
        # must give (near-)zero residual.
        from repro.geometry import SE3
        from repro.vo.features import FeatureSet
        cfg = TrackerConfig(camera=TUM_QVGA.scaled(0.5))
        fe = PIMFrontend(cfg)
        edge = np.zeros((120, 160), dtype=bool)
        edge[40:80, 80] = True
        maps = fe.prepare_keyframe(edge)
        feats = fe.make_features(FeatureSet(
            u=np.full(40, 80.0), v=np.arange(40, 80, dtype=np.float64),
            depth=np.full(40, 2.0)))
        err, n, _ = fe.error(feats, SE3.identity(), maps)
        assert n == 40
        assert err < 0.4  # sub-pixel quantization residue only
