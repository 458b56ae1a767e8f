"""Unit tests for frontend internals (lookups, keyframe maps)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import make_sequence
from repro.geometry import SE3, TUM_QVGA, CameraIntrinsics
from repro.kernels.jacobian import jacobian_float
from repro.kernels.warp import warp_float
from repro.vo.config import TrackerConfig
from repro.vo.features import extract_features
from repro.vo.pyramid import build_pyramid
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.vo.frontend import (
    FloatFrontend,
    KeyframeMaps,
    PIMFrontend,
    _bilinear,
    _bilinear_plan,
    _blend,
    _edge_pad,
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


def _clamped_plan(shape, u, v):
    """The plan on the unpadded grid: corners clamped by compares."""
    h, w = shape
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u_floor = np.floor(u)
    v_floor = np.floor(v)
    u0 = u_floor.astype(np.intp)
    v0 = v_floor.astype(np.intp)
    du = u0 < w - 1
    dv = (v0 < h - 1) * w
    i00 = v0 * w + u0
    i01 = i00 + du
    i10 = i00 + dv
    i11 = i10 + du
    fu = u - u_floor
    fv = v - v_floor
    return i00, i01, i10, i11, 1 - fu, fu, 1 - fv, fv


def _clamped_blend(grid, plan):
    """:func:`_clamped_plan`'s blend of the unpadded grid."""
    i00, i01, i10, i11, wu0, wu1, wv0, wv1 = plan
    flat = grid.ravel()
    return (wv0 * (wu0 * flat.take(i00) + wu1 * flat.take(i01)) +
            wv1 * (wu0 * flat.take(i10) + wu1 * flat.take(i11)))


def _clamped_lookup(grid, u, v):
    return _clamped_blend(grid, _clamped_plan(grid.shape, u, v))


def _assert_bits_equal(got, want):
    """Equal bit for bit: -0.0 and +0.0 (and NaN payloads) differ."""
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64),
                                  want.view(np.uint64))


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
            np.testing.assert_array_equal(_blend(_edge_pad(grid), plan),
                                          want)
            np.testing.assert_array_equal(_bilinear(grid, u, v), want)
            _assert_bits_equal(_bilinear(grid, u, v),
                               _clamped_lookup(grid, u, v))

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 40),
           st.integers(0, 10 ** 9))
    @settings(max_examples=120, deadline=None)
    def test_padded_plan_equals_clamped_plan_bitwise(self, h, w, n, seed):
        """The padded grid's plan reads what the clamped corners read,
        bit for bit: on the last row and column exactly, past them
        (clamped), and with -0.0 and +-inf in the border cells, where a
        zero weight still decides the sign and NaN of the result."""
        rng = np.random.default_rng(seed)
        u = rng.uniform(-2.5, w + 1.5, n + 4)
        v = rng.uniform(-2.5, h + 1.5, n + 4)
        u[:2], v[:2] = w - 1.0, h - 1.0
        u[2:4] = rng.integers(0, w, 2)
        v[2:4] = rng.integers(0, h, 2)
        u[4::3] = w - 1.0
        v[5::3] = h - 1.0
        special = np.array([-0.0, 0.0, np.inf, -np.inf, 1.5, -2.0])
        plan = _bilinear_plan((h, w), u, v)
        for _ in range(3):
            grid = rng.normal(0.0, 50.0, (h, w))
            grid[-1] = rng.choice(special, w)
            grid[:, -1] = rng.choice(special, h)
            maps = KeyframeMaps(dt=grid, grad_u=-grid, grad_v=grid * 2)
            with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
                want = _clamped_lookup(grid, u, v)
                _assert_bits_equal(_blend(_edge_pad(grid), plan), want)
                _assert_bits_equal(_bilinear(grid, u, v), want)
                for name in ("dt", "grad_u", "grad_v"):
                    field = getattr(maps, name)
                    _assert_bits_equal(_blend(maps.grid(name), plan),
                                       _clamped_lookup(field, u, v))

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
        # The residuals of the valid lanes are the plan's blend of the
        # DT, clamped, in feature order.
        res, rv, valid, _ = lookup
        assert rv.size == n == np.count_nonzero(valid)
        want = _bilinear_2d(maps.dt, res.u[valid], res.v[valid])
        np.testing.assert_array_equal(
            rv, np.minimum(want, fe.config.residual_clamp))


def _full_length_reference(fe, feats, pose, maps):
    """``error()`` and ``linearize()`` of a float frontend as computed
    from a full-length residual: zero-filled, scattered into over the
    valid lanes, clamped, then gathered back; the plan always clamps."""
    a, b, c = feats
    res = warp_float(pose, a, b, c, fe.config.camera)
    valid = res.valid
    plan = _clamped_plan(maps.dt.shape, res.u[valid], res.v[valid])
    r = np.zeros_like(res.u)
    r[valid] = _clamped_blend(maps.dt, plan)
    np.minimum(r, fe.config.residual_clamp, out=r)
    n = int(valid.sum())
    if n == 0:
        return (np.inf, 0), (np.zeros((6, 6)), np.zeros(6), np.inf, 0)
    z_real = res.z[valid] / np.asarray(c)[valid]
    jac = jacobian_float(res.rx[valid] * z_real, res.ry[valid] * z_real,
                         z_real, _clamped_blend(maps.grad_u, plan),
                         _clamped_blend(maps.grad_v, plan))
    rv = r[valid]
    err = float(np.mean(r[valid] ** 2))
    return (err, n), (jac.T @ jac, jac.T @ rv, float(np.mean(rv ** 2)), n)


#: Odd on both axes, so the pyramid's floor-halved grids and the
#: round-halved level cameras part ways from level 1 on.
ODD_CAMERA = CameraIntrinsics(fx=258.6, fy=262.6, cx=161.2, cy=121.0,
                              width=323, height=243)


class TestValidLaneLookup:
    """The float lookup keeps the valid lanes only and drops the
    plan's clamp where validity already bounds them: on a map of the
    camera's shape.  Either way it equals the full-length lookup."""

    @pytest.mark.parametrize("camera", [TUM_QVGA, ODD_CAMERA],
                             ids=["qvga", "odd"])
    def test_every_pyramid_level(self, camera):
        levels = 4
        seq = make_sequence("fr1_xyz", n_frames=4, camera=camera)
        cfg = TrackerConfig(camera=camera, pyramid_levels=levels)
        key, cur = (build_pyramid(f.gray, f.depth, levels)
                    for f in (seq.frames[0], seq.frames[3]))
        rng = np.random.default_rng(camera.width)
        camera_shaped = clamped_outside = 0
        for level in range(len(key)):
            fe = FloatFrontend(cfg.scaled_for_level(level))
            cam = fe.config.camera
            maps = fe.prepare_keyframe(fe.detect(key[level][0]))
            feats = fe.make_features(extract_features(
                fe.detect(cur[level][0]), cur[level][1],
                fe.config.max_features, cfg.min_depth, cfg.max_depth))
            h, w = maps.dt.shape
            for scale in (0.0, 0.01, 0.03, 0.1, 0.3):
                pose = SE3.exp(rng.normal(0.0, scale, 6))
                err, n, lookup = fe.error(feats, pose, maps)
                res, rv, valid, _ = lookup
                u, v = res.u[valid], res.v[valid]
                inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
                if (h, w) == (cam.height, cam.width):
                    camera_shaped += 1
                    assert inside.all()
                else:
                    clamped_outside += np.count_nonzero(~inside)
                want_error, want_linearize = _full_length_reference(
                    fe, feats, pose, maps)
                assert (err, n) == want_error
                got = fe.linearize(feats, pose, maps, lookup)
                for got_part, want_part in zip(got, want_linearize):
                    np.testing.assert_array_equal(got_part, want_part)
        if camera is TUM_QVGA:
            assert camera_shaped == 5 * len(key) == 20
        else:
            # Levels 1 and 2 (121x161, 60x80) are a row and a column
            # short of their cameras (122x162, 61x81), so some valid
            # lanes fall off the grid there and are clamped; levels 0
            # and 3 (30x40) have the camera's shape.
            assert camera_shaped == 5 * 2 and clamped_outside > 0


class TestFloatLinearize:
    @pytest.mark.parametrize("huber", [None, 0.5])
    @pytest.mark.parametrize("twist", [
        np.zeros(6),
        np.array([0.01, -0.02, 0.015, 0.004, -0.003, 0.002]),
        np.array([0.3, 0.2, -0.1, 0.05, 0.08, -0.06]),
    ])
    def test_equals_reference_jacobian_normal_equations(self, float_pair,
                                                        twist, huber):
        """``H`` and ``b`` are ``jac.T @ jac`` and ``jac.T @ rv`` of the
        reference :func:`jacobian_float`, bit for bit."""
        fe, maps, feats = float_pair
        fe = FloatFrontend(TrackerConfig(camera=fe.config.camera,
                                         huber_delta=huber))
        pose = SE3.exp(twist)
        err, n, lookup = fe.error(feats, pose, maps)
        res, rv, valid, _ = lookup
        c = np.asarray(feats[2])[valid]
        z_real = res.z[valid] / c
        u, v = res.u[valid], res.v[valid]
        jac = jacobian_float(res.rx[valid] * z_real, res.ry[valid] * z_real,
                             z_real, _clamped_lookup(maps.grad_u, u, v),
                             _clamped_lookup(maps.grad_v, u, v))
        if huber is None:
            want_h, want_b = jac.T @ jac, jac.T @ rv
        else:
            weight = np.minimum(1.0, huber / np.maximum(np.abs(rv), 1e-12))
            jw = jac * weight[:, None]
            want_h, want_b = jw.T @ jac, jw.T @ rv
        h, b, got_err, got_n = fe.linearize(feats, pose, maps, lookup)
        _assert_bits_equal(h, want_h)
        _assert_bits_equal(b, want_b)
        assert (got_err, got_n) == (err, n) and n > 0


class TestKeyframeGrids:
    def test_float_maps_are_views_of_edge_replicated_grids(self, float_pair):
        _, maps, _ = float_pair
        h, w = maps.dt.shape
        for name in ("dt", "grad_u", "grad_v"):
            field, grid = getattr(maps, name), maps.grid(name)
            assert grid.shape == (h + 1, w + 1)
            assert field.base is grid
            assert not field.flags.writeable and not grid.flags.writeable
            _assert_bits_equal(grid[:h, :w], field)
            _assert_bits_equal(grid[h, :w], field[h - 1])
            _assert_bits_equal(grid[:, w], grid[:, w - 1])


class TestEdgePixelHistogram:
    def test_observes_the_edge_count(self):
        seq = make_sequence("fr3_st_ntex_far", n_frames=2,
                            camera=TUM_QVGA.scaled(0.5))
        fe = PIMFrontend(TrackerConfig(camera=seq.camera,
                                       pim_device_detect=True))
        old = get_registry()
        set_registry(MetricsRegistry())
        try:
            edges = [fe.detect(f.gray) for f in seq.frames]
            summary = get_registry().get("frame_edge_pixels").summary()
        finally:
            set_registry(old)
        counts = [int(np.count_nonzero(e)) for e in edges]
        assert summary["count"] == 2 and min(counts) > 0
        assert summary["sum"] == sum(counts)
        assert (summary["min"], summary["max"]) == (min(counts),
                                                    max(counts))


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
        # Only the raws PIM reads: gradients at int32, no float maps.
        assert maps.gu_raw.dtype == maps.gv_raw.dtype == np.int32
        assert maps.dt is maps.grad_u is maps.grad_v is None
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


def _clamped_pim_lookup(fe, maps, res):
    """The PIM lookup's gathers with the per-axis pixel clamp the
    production lookup drops: ``(r_raw, iu, iv)``, zero where invalid."""
    h, w = maps.dt_raw.shape
    ui = np.clip((res.u.astype(np.int64) + 2) >> 2, 0, w - 1)
    vi = np.clip((res.v.astype(np.int64) + 2) >> 2, 0, h - 1)
    valid = res.valid
    if fe.config.pim_bilinear_residual:
        r = np.zeros(len(valid), dtype=np.int64)
        r[valid] = np.minimum(
            fe._bilinear_q2(maps.dt_raw, res.u[valid], res.v[valid]),
            fe._clamp_raw)
    else:
        r = np.minimum(maps.dt_raw[vi, ui], fe._clamp_raw) * valid
    return r, maps.gu_raw[vi, ui] * valid, maps.gv_raw[vi, ui] * valid


def _edge_warp(camera, seed):
    """A warp whose ``uv`` sits at 0, at the valid maximum ``lim``, just
    past both, far negative and saturated to +-32767 (and -32768)."""
    from repro.kernels.warp import WarpResult
    rng = np.random.default_rng(seed)
    lim = np.array([(camera.width - 1) * 4, (camera.height - 1) * 4])
    special = [0, 1, 2, 3, -1, -2, -3, -4, 32767, -32767, -32768]
    cols = []
    for axis in range(2):
        edge = [lim[axis] + d for d in (-2, -1, 0, 1, 2, 3)]
        values = np.array(special + edge)
        cols.append(np.concatenate([
            np.repeat(values, len(values)) if axis == 0
            else np.tile(values, len(values)),
            rng.integers(0, lim[axis] + 1, 200)]))
    n = cols[0].size
    block = np.empty((5, n), dtype=np.int32)
    block[0], block[1] = cols
    block[2] = rng.integers(-2000, 2001, n)
    block[3] = rng.integers(-2000, 2001, n)
    block[4] = np.where(rng.random(n) < 0.9,
                        rng.integers(1000, 20000, n), 0)
    uv = block[:2]
    inside = uv.view(np.uint32) <= lim.astype(np.uint32)[:, None]
    valid = inside[0] & inside[1] & (block[4] > 0)
    u, v, rx, ry, z = block
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid, uv=uv,
                      rxy=block[2:4])


class TestPimLookupAtTheEdges:
    """The PIM lookup gathers without a pixel clamp on a map of the
    camera's shape (and with one on any other shape); on ``uv`` exactly
    at ``lim``, past it, negative and saturated, its residuals and its
    system equal those of the clamped gathers."""

    @pytest.mark.parametrize("map_shape", ["camera", "short", "long"])
    @pytest.mark.parametrize("bilinear", [False, True])
    def test_equals_the_clamped_lookup(self, monkeypatch, map_shape,
                                       bilinear):
        from repro.kernels.hessian import hessian_fast, unpack_symmetric
        from repro.kernels.jacobian import jacobian_fast
        from repro.kernels.warp import quantize_features
        import repro.vo.frontend as frontend_module
        camera = TUM_QVGA.scaled(0.25)
        cfg = TrackerConfig(camera=camera, pim_bilinear_residual=bilinear)
        fe = PIMFrontend(cfg)
        shape = {"camera": (camera.height, camera.width),
                 "short": (camera.height - 1, camera.width - 1),
                 "long": (camera.height + 2, camera.width + 3)}[map_shape]
        rng = np.random.default_rng(len(map_shape))
        maps = fe.prepare_keyframe(rng.random(shape) < 0.05)
        res = _edge_warp(camera, 7)
        n = res.u.size
        feats = quantize_features(np.zeros(n), np.zeros(n),
                                  rng.uniform(0.2, 1.0, n))
        monkeypatch.setattr(frontend_module, "warp_fast",
                            lambda qpose, qfeats, cam: res)
        pose = SE3.identity()
        err, count, lookup = fe.error(feats, pose, maps)
        r_ref, iu_ref, iv_ref = _clamped_pim_lookup(fe, maps, res)
        np.testing.assert_array_equal(lookup[1], r_ref)
        assert count == np.count_nonzero(res.valid) > 0
        jac = jacobian_fast(res, feats.lanes[2], iu_ref, iv_ref)
        h_raw, b_raw = hessian_fast(jac, r_ref)
        got = fe.linearize(feats, pose, maps, lookup)
        np.testing.assert_array_equal(got[0], unpack_symmetric(h_raw / 8.0))
        np.testing.assert_array_equal(got[1], b_raw / 8.0)
        assert got[2:] == (err, count)


class TestKeyframeMapRanges:
    def test_ranges_and_peaks_of_the_raw_maps(self):
        dt = np.array([[0, 3], [7, 2]])
        gu = np.array([[-9, 4], [0, 8]], dtype=np.int32)
        gv = np.array([[5, -5], [1, 2]], dtype=np.int32)
        maps = KeyframeMaps(dt_raw=dt, gu_raw=gu, gv_raw=gv)
        assert maps.ranges == {"dt_raw": (0, 7), "gu_raw": (-9, 8),
                               "gv_raw": (-5, 5)}
        assert (maps.peak("dt_raw"), maps.peak("gu_raw"),
                maps.peak("gv_raw")) == (7, 9, 5)
        empty = KeyframeMaps(dt_raw=np.zeros((0, 3), dtype=np.int64))
        assert empty.ranges == {}

    def test_prepared_maps_carry_their_peaks(self):
        cfg = TrackerConfig(camera=TUM_QVGA.scaled(0.25))
        edge = np.zeros((60, 80), dtype=bool)
        edge[20:40, 30] = True
        maps = PIMFrontend(cfg).prepare_keyframe(edge)
        for name in ("dt_raw", "gu_raw", "gv_raw"):
            arr = getattr(maps, name)
            assert maps.peak(name) == int(np.abs(arr).max()) > 0

    @pytest.mark.parametrize("dt_range,j_peak,want", [
        ((0, 7), 0, 7),            # every residual below the clamp
        ((0, 900), 0, 40),         # the clamp (10 px in Q14.2) binds
        ((-50, 900), 3, 50),       # a negative DT raw passes the clamp
        ((0, 900), 600, 600),      # the Jacobian peak dominates
    ])
    def test_hessian_bound(self, dt_range, j_peak, want):
        fe = PIMFrontend(TrackerConfig(residual_clamp=10.0))
        lo, hi = dt_range
        maps = KeyframeMaps(dt_raw=np.array([[lo, hi]]))
        assert fe._hessian_bound(maps, j_peak) == want
