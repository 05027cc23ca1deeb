import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal import maps, pipeline
from depthcal.geometry import horner
from depthcal.maps import MapError, fit_weighted_poly_batch
from oracles import (
    apply_full_correction,
    complete_dependent_corner,
    corner_wh,
    correct_depth_image,
    fit_weighted_poly,
    global_correct,
    global_eval,
    moments_of,
    surrounding,
    undistort_depth,
)
from oracles import fit_weighted_poly_batch as oracle_batch


NM = dc.KINECT1_QUANTIZATION


def identity_map(width=32, height=24, chi=4, psi=4, degree=2):
    return dc.UndistortionMap.identity(width, height, chi, psi, degree)


def uniform_map(poly, width=32, height=24, chi=4, psi=4):
    base = identity_map(width, height, chi, psi, degree=len(poly) - 1)
    coeffs = np.broadcast_to(poly, base.coefficients.shape).copy()
    return base.with_coefficients(coeffs)


# ---------------------------------------------------------------------------
# PolyFn


def test_polyfn_call_identity():
    assert horner(dc.PolyFn((0.0, 1.0)), 2.5) == 2.5


def test_polyfn_call_quadratic():
    f = dc.PolyFn((0.03, 0.97, 0.01))
    assert horner(f, 2.0) == pytest.approx(2.01, abs=1e-15)


def test_polyfn_call_constant_zero():
    # a read-only float coefficient array, constant term first
    f = dc.PolyFn((0, 0.95, 0.02), constant_zero=True)
    assert f.dtype == float and f.tolist() == [0.0, 0.95, 0.02]
    assert not f.flags.writeable
    assert horner(f, 3.0) == pytest.approx(3.03, abs=1e-15)


def test_polyfn_rejects_nonzero_constant_when_pinned():
    with pytest.raises(MapError):
        dc.PolyFn((0.1, 1.0), constant_zero=True)


def test_polyfn_rejects_degree_5():
    with pytest.raises(MapError):
        dc.PolyFn((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maps_reject_nonfinite_coefficients(bad):
    with pytest.raises(MapError, match="finite"):
        dc.PolyFn((0.0, bad))
    coeffs = dc.UndistortionMap.identity(8, 8, 4, 4).coefficients.copy()
    coeffs[1, 2, 0] = bad
    with pytest.raises(MapError, match="finite"):
        dc.UndistortionMap(8, 8, 4, 4, coeffs)
    for corners in ([[0, bad], [0, 1], [0, bad]], [[0, 1, 0], [0, bad, 0], [0, 1, 0]],
                    [[0, 1, 0], [0, 1, 0], [0, 1, bad]]):
        with pytest.raises(MapError, match="finite"):
            dc.GlobalMap(32, 24, *corners)


# ---------------------------------------------------------------------------
# FitMoments / fit_weighted_poly_batch (the moment solve)


def moment_fit(z, z_pi, degree):
    """(coeffs, ok) of the moment solve over one pixel holding the samples."""
    m = moments_of(z, z_pi, degree)
    coeffs, ok = fit_weighted_poly_batch(m.zpow.reshape(1, -1), m.zpi.reshape(1, -1),
                                         m.count.reshape(1), degree)
    return coeffs[0], bool(ok[0])


def test_fit_exact_quadratic():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    z_pi = 0.03 + 0.97 * z + 0.01 * z ** 2
    coeffs, ok = moment_fit(z, z_pi, degree=2)
    assert ok
    assert np.allclose(coeffs, (0.03, 0.97, 0.01), atol=1e-9)


def test_fit_matches_pseudo_inverse_oracle():
    # independent oracle: scale rows by 1/sigma and use the pseudo-inverse
    rng = np.random.default_rng(17)
    z = rng.uniform(0.8, 4.5, 200)
    z_pi = 0.02 + 0.96 * z + 0.012 * z ** 2 + rng.normal(0, 0.003, 200)
    coeffs, ok = moment_fit(z, z_pi, degree=2)

    sigma = horner(NM, z)
    a = np.column_stack([np.ones_like(z), z, z ** 2]) / sigma[:, None]
    expected = np.linalg.pinv(a) @ (z_pi / sigma)
    assert ok
    assert np.allclose(coeffs, expected, atol=1e-8)
    assert np.allclose(fit_weighted_poly((z, z_pi), NM, degree=2),
                       expected, atol=1e-8)


def test_fit_underdetermined():
    coeffs, ok = moment_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]), degree=2)
    assert not ok
    assert np.all(coeffs == 0.0)
    with pytest.raises(MapError):
        fit_weighted_poly((np.array([1.0, 2.0]), np.array([1.0, 2.0])), NM, degree=2)


def test_fit_singular_same_depth():
    z = np.full(10, 2.0)
    assert not moment_fit(z, z, degree=2)[1]
    with pytest.raises(MapError):
        fit_weighted_poly((z, z), NM, degree=2)


def test_fit_batch_flags_bad_sets():
    moments = dc.FitMoments((1, 2), 2)
    for z in ([1.0, 2.0], [2.0, 2.0], [3.0, 2.0], [4.0, 2.0]):
        z = np.array(z)
        moments.add(np.array([0, 1]), z, z)
    coeffs, ok = fit_weighted_poly_batch(moments.zpow.reshape(2, -1),
                                         moments.zpi.reshape(2, -1),
                                         moments.count.reshape(2), 2)
    assert ok[0] and not ok[1]
    assert np.allclose(coeffs[0], (0, 1, 0), atol=1e-9)
    assert np.all(coeffs[1] == 0.0)


def test_fit_moments_reject_nonpositive_depth():
    moments = dc.FitMoments((1, 1), 2)
    with pytest.raises(MapError):
        moments.add(np.array([0]), np.array([0.0]), np.array([1.0]))
    assert moments.count[0, 0] == 0


def test_fit_moments_track_count_and_depth_range():
    moments = dc.FitMoments((2, 3), 2)
    moments.add(np.array([4, 1]), np.array([2.0, 3.0]), np.array([2.1, 3.1]))
    moments.add(np.array([4]), np.array([1.5]), np.array([1.4]))
    assert moments.count.tolist() == [[0, 1, 0], [0, 2, 0]]
    assert (moments.zmin[1, 1], moments.zmax[1, 1]) == (1.5, 2.0)
    assert (moments.zmin[0, 1], moments.zmax[0, 1]) == (3.0, 3.0)
    assert np.all(moments.zpow[0, 0] == 0.0)
    w = 1.0 / horner(NM, np.array([2.0, 1.5])) ** 2
    assert moments.zpow[1, 1, 0] == pytest.approx(w.sum(), rel=1e-15)
    assert moments.zpi[1, 1, 1] == pytest.approx(w @ (np.array([2.0, 1.5]) * [2.1, 1.4]),
                                                 rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(0, 9), max_size=12),
       levels=st.integers(1, 10),
       gain=st.floats(0.9, 1.1),
       noise=st.lists(st.floats(-0.01, 0.01), min_size=12, max_size=12),
       degree=st.integers(1, 2))
def test_moment_fit_matches_sample_oracle(steps, levels, gain, noise, degree):
    # depths on a 0.5 m lattice over [0.5, 5] m with at most `levels`
    # distinct values: few levels give underdetermined or collinear sets
    z = 0.5 * (1 + np.array(steps, dtype=int) % levels)
    z_pi = gain * z + np.array(noise[:z.size])
    coeffs, ok = moment_fit(z, z_pi, degree)
    ref, ref_ok = oracle_batch(z[None, :], z_pi[None, :], np.ones((1, z.size), bool),
                               NM, degree)
    assert ok == bool(ref_ok[0])
    assert np.max(np.abs(coeffs - ref[0])) <= 1e-10 * np.max(np.abs(ref[0]), initial=0.0)


COND_LIMIT = 1e12
# target 2-norm condition numbers of the tuned rows, and whether each fit is ok
COND_TARGETS = {1e11: True, 0.99e12: True, 1.01e12: False, 1e13: False}


def weighted_normal(z, degree):
    powers = np.arange(degree + 1)
    w = 1.0 / horner(NM, z) ** 2
    phi = z[:, None] ** powers
    return (phi * w[:, None]).T @ phi


def depths_at_cond(target, degree):
    """Depths 2 + s * linspace(-1, 1, 9) whose weighted normal matrix has a
    condition number within 0.1% of `target`; s is found by bisection."""
    def cond(log_s):
        z = 2.0 + np.exp(log_s) * np.linspace(-1.0, 1.0, 9)
        return np.linalg.cond(weighted_normal(z, degree))

    lo, hi = np.log(1e-7), np.log(1.5)  # cond(lo) > target > cond(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cond(mid) > target else (lo, mid)
    assert cond(hi) == pytest.approx(target, rel=1e-3)
    return 2.0 + np.exp(hi) * np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_fit_batch_flags_straddle_cond_limit(monkeypatch, degree):
    k = degree + 1
    rows = {"spread": (np.linspace(0.8, 4.0, 12), True),
            "underdetermined": (np.linspace(1.0, 3.0, k - 1), False)}
    rows.update({f"cond {c:.3g}": (depths_at_cond(c, degree), ok)
                 for c, ok in COND_TARGETS.items()})
    # k - 1 distinct depths: singular in exact arithmetic
    rows["singular"] = (np.resize([1.3, 2.7, 3.1, 3.6][:k - 1], 12), False)
    # all samples at 1 m: every normal entry is the weight sum, and the
    # second LDL^T pivot comes out as exactly 0
    rows["pivot <= 0"] = (np.ones(12), False)
    names = list(rows)
    n = max(z.size for z, _ in rows.values())
    z = np.ones((len(names), n))
    mask = np.zeros((len(names), n), dtype=bool)
    for r, name in enumerate(names):
        z[r, :rows[name][0].size] = rows[name][0]
        mask[r, :rows[name][0].size] = True
    z_pi = 0.01 + 0.98 * z + 0.004 * z ** 2 + 1e-4 * np.sin(5.0 * z)
    moments = dc.FitMoments((len(names), 1), degree)
    for col in range(n):
        idx = np.nonzero(mask[:, col])[0]
        moments.add(idx, z[idx, col], z_pi[idx, col])
    zpow = moments.zpow.reshape(len(names), -1)
    powers = np.arange(k)
    normals = zpow[:, powers[:, None] + powers[None, :]]
    _, pivots = maps._ldl_inverse(np.moveaxis(normals, 0, -1))
    assert np.any(pivots[:, names.index("pivot <= 0")] <= 0.0)

    eigensolved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        eigensolved.extend(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    coeffs, ok = fit_weighted_poly_batch(zpow, moments.zpi.reshape(len(names), -1),
                                         moments.count.reshape(-1), degree)
    ref, ref_ok = oracle_batch(z, z_pi, mask, NM, degree, COND_LIMIT)

    assert ok.tolist() == ref_ok.tolist() == [rows[name][1] for name in names]
    assert np.all(coeffs[~ok] == 0.0)
    # near the limit the coefficients are only known to about cond * eps;
    # the fitted values at the samples are known to about sqrt(cond) * eps
    design = z[..., None] ** np.arange(degree + 1)
    fitted = np.einsum("rnp,rp->rn", design, coeffs)
    fitted_ref = np.einsum("rnp,rp->rn", design, ref)
    assert np.max(np.abs(fitted - fitted_ref)[mask]) <= 1e-8
    spread = names.index("spread")
    assert np.allclose(coeffs[spread], ref[spread], rtol=1e-7, atol=1e-12)

    def reached_eigensolve(name):
        return any(np.array_equal(a, normals[names.index(name)]) for a in eigensolved)

    assert not reached_eigensolve("spread")
    for c in COND_TARGETS:
        if c >= COND_LIMIT / 2:
            assert reached_eigensolve(f"cond {c:.3g}")


# ---------------------------------------------------------------------------
# surrounding / bilinear weights


def test_surrounding_midpoint():
    m = identity_map()
    got = dict(surrounding(m, 6, 6))
    assert set(got) == {(4, 4), (8, 4), (4, 8), (8, 8)}
    assert all(w == pytest.approx(0.25) for w in got.values())


def test_surrounding_on_control_pixel():
    m = identity_map()
    got = dict(surrounding(m, 4, 4))
    assert got[(4, 4)] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-15)


def test_surrounding_1d_linearity():
    m = identity_map()
    got = dict(surrounding(m, 5, 4))
    assert got[(4, 4)] == pytest.approx(0.75)
    assert got[(8, 4)] == pytest.approx(0.25)
    assert got[(4, 8)] == 0.0
    assert got[(8, 8)] == 0.0


def test_surrounding_out_of_bounds():
    with pytest.raises(MapError):
        surrounding(identity_map(), 32, 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_partition_of_unity(data):
    chi = data.draw(st.integers(1, 16))
    psi = data.draw(st.integers(1, 16))
    w = data.draw(st.integers(2, 64))
    h = data.draw(st.integers(2, 64))
    u = data.draw(st.integers(0, w - 1))
    v = data.draw(st.integers(0, h - 1))
    m = dc.UndistortionMap.identity(w, h, chi, psi)
    weights = [wt for _, wt in surrounding(m, u, v)]
    assert abs(sum(weights) - 1.0) < 1e-12
    assert all(wt >= 0 for wt in weights)


# ---------------------------------------------------------------------------
# dense_coefficients and splat: the blend and its transpose


def random_map(width, height, chi, psi, degree=2, seed=0):
    base = identity_map(width, height, chi, psi, degree)
    rng = np.random.default_rng(seed)
    return base.with_coefficients(rng.normal(size=base.coefficients.shape))


@pytest.mark.parametrize("width, height, chi, psi, degree", [
    pytest.param(320, 240, 2, 2, 2, id="320-240-2-2"),
    pytest.param(64, 48, 3, 5, 2, id="64-48-3-5"),
    pytest.param(64, 48, 64, 48, 2, id="64-48-64-48"),
    pytest.param(640, 480, 4, 4, 2, id="640-480-4-4"),
    # the cache is blended maps.BLOCK_ROWS image rows at a time
    pytest.param(64, maps.BLOCK_ROWS - 1, 3, 5, 2, id="one-short-block"),
    pytest.param(64, maps.BLOCK_ROWS + 1, 3, 5, 2, id="one-row-past-a-block"),
    pytest.param(64, 2 * maps.BLOCK_ROWS + 1, 3, 7, 2, id="one-row-past-two-blocks"),
    pytest.param(64, 48, 3, 5, 1, id="degree-1"),
    pytest.param(64, 48, 3, 5, 4, id="degree-4"),
])
def test_dense_coefficients_equal_pixel_coefficients(width, height, chi, psi, degree):
    umap = random_map(width, height, chi, psi, degree)
    vv, uu = np.mgrid[0:height, 0:width].astype(float)
    dense = umap.dense_coefficients()
    assert dense.shape == (height, width, degree + 1)
    # bit for bit: a -0.0 or a NaN payload differs from its == twin
    assert np.array_equal(dense.view(np.int64),
                          umap.pixel_coefficients(uu, vv).view(np.int64))
    assert all(dense[:, :, k].flags.c_contiguous for k in range(dense.shape[2]))


def test_dense_coefficients_peak_memory():
    """A cold 640x480, 4x4-bin build holds only the cache at full size: its
    traced peak stays within twice the cache (about 1.5 here; five
    full-size temporaries of the two-lerp form took it to 3.5)."""
    umap = random_map(640, 480, 4, 4)
    tracemalloc.start()
    try:
        dense = umap.dense_coefficients()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dense.nbytes, f"{peak / dense.nbytes:.2f} x the cache"


def splat_oracle(umap, u, v, values):
    """Per-control-pixel sums of sample times `surrounding` weight."""
    out = np.zeros(values.shape[:-1] + umap.grid_shape)
    for k, (uk, vk) in enumerate(zip(u, v)):
        for (s, t), w in surrounding(umap, int(uk), int(vk)):
            out[..., t // umap.psi, s // umap.chi] += w * values[..., k]
    return out


@pytest.mark.parametrize("width, height, chi, psi", [
    (40, 30, 4, 4), (40, 30, 40, 30)])
def test_splat_matches_surrounding_oracle(width, height, chi, psi):
    umap = identity_map(width, height, chi, psi)
    rng = np.random.default_rng(5)
    mask = rng.random((height, width)) < 0.3
    mask[::psi, ::chi] |= rng.random(mask[::psi, ::chi].shape) < 0.5
    v, u = np.nonzero(mask)
    values = rng.uniform(0.5, 4.0, size=(3, len(u)))
    got = umap.splat(mask, values)
    want = splat_oracle(umap, u, v, values)
    assert got.shape == want.shape == (3,) + umap.grid_shape
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_splat_sample_on_control_pixel_stays_there():
    umap = identity_map(32, 24, 4, 4)
    u = np.array([28, 8, 0])  # row-major
    v = np.array([0, 8, 20])
    mask = np.zeros((24, 32), dtype=bool)
    mask[v, u] = True
    got = umap.splat(mask, [np.array([5.0, 2.0, 3.0]), 1.0])
    want = np.zeros((2,) + umap.grid_shape)
    want[0, v // 4, u // 4] = (5.0, 2.0, 3.0)
    want[1, v // 4, u // 4] = 1.0
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# undistort_depth / apply_undistortion


def test_undistort_depth_identity():
    m = identity_map()
    assert undistort_depth(m, 6, 6, 2.345) == pytest.approx(2.345, abs=1e-15)


def test_undistort_depth_at_control_point():
    m = identity_map()
    coeffs = m.coefficients.copy()
    coeffs[1, 1] = (0.1, 1.05, 0.002)
    m = m.with_coefficients(coeffs)
    d = 2.0
    expected = 0.1 + 1.05 * d + 0.002 * d * d
    assert undistort_depth(m, 4, 4, d) == pytest.approx(expected, abs=1e-15)


def test_undistort_depth_midpoint_is_mean():
    m = identity_map()
    coeffs = m.coefficients.copy()
    vals = [(0.0, 1.0, 0.0), (0.1, 1.0, 0.0), (0.0, 1.1, 0.0), (0.0, 1.0, 0.01)]
    coeffs[1, 1], coeffs[1, 2], coeffs[2, 1], coeffs[2, 2] = vals
    m = m.with_coefficients(coeffs)
    d = 2.0
    expected = np.mean([a + b * d + c * d * d for a, b, c in vals])
    assert undistort_depth(m, 6, 6, d) == pytest.approx(expected, abs=1e-14)


def test_undistort_depth_invalid_returns_invalid():
    assert undistort_depth(identity_map(), 3, 3, 0.0) == 0.0


def test_continuity_across_bin_boundary():
    m = identity_map()
    coeffs = np.asarray(np.random.default_rng(3).uniform(0.9, 1.1,
                                                         m.coefficients.shape))
    m = m.with_coefficients(coeffs)
    u, v, d = 8, 5, 2.7
    at_node = undistort_depth(m, u, v, d)
    # from the control column the u-blend collapses onto the column exactly
    fv = (v - 4) / 4.0
    col = m.coefficients[1, 2] + fv * (m.coefficients[2, 2] - m.coefficients[1, 2])
    assert at_node == np.polyval(col[::-1], d)
    # left-stencil hat weights give the same value to machine precision
    blend = (1 - fv) * m.coefficients[1, 1:3] + fv * m.coefficients[2, 1:3]
    left = np.polyval(blend[1][::-1], d)
    assert at_node == pytest.approx(left, rel=1e-13)
    # approaching the column from the left is continuous
    just_left = undistort_depth(m, u - 1e-9, v, d)
    assert at_node == pytest.approx(just_left, abs=1e-7)


def test_apply_identity_map_is_identity_on_cloud():
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    rng = np.random.default_rng(0)
    data = rng.uniform(1.0, 4.0, (24, 32))
    data[0, 0] = 0.0
    img = dc.DepthImage(32, 24, data)
    out = dc.apply_undistortion(identity_map(), img)
    assert np.array_equal(out.data, img.data)
    assert dc.depth_to_cloud(out, intr) == dc.depth_to_cloud(img, intr)


def test_apply_uniform_scaling_map():
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    img = dc.DepthImage(32, 24, np.full((24, 32), 2.0))
    m = uniform_map(dc.PolyFn((0.0, 1.1, 0.0)))
    out = dc.depth_to_cloud(dc.apply_undistortion(m, img), intr)
    cloud = dc.depth_to_cloud(img, intr)
    assert np.allclose(out.points[out.valid], 1.1 * cloud.points[cloud.valid],
                       atol=1e-12)


def test_apply_line_of_sight_preserved():
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    rng = np.random.default_rng(1)
    img = dc.DepthImage(32, 24, rng.uniform(1.0, 4.0, (24, 32)))
    cloud = dc.depth_to_cloud(img, intr)
    coeffs = rng.uniform(0.95, 1.05, identity_map().coefficients.shape)
    coeffs[:, :, 0] *= 0.02
    coeffs[:, :, 2] *= 0.01
    m = identity_map().with_coefficients(coeffs)
    out = dc.depth_to_cloud(dc.apply_undistortion(m, img), intr)
    cross = np.cross(out.points.reshape(-1, 3), cloud.points.reshape(-1, 3))
    assert np.max(np.abs(cross)) < 1e-12
    # scale factors are positive
    ratio = out.points[:, :, 2] / cloud.points[:, :, 2]
    assert np.all(ratio > 0)


def test_apply_to_depth_image_matches_pointwise_eval():
    m = identity_map()
    coeffs = np.random.default_rng(2).uniform(0.95, 1.05, m.coefficients.shape)
    m = m.with_coefficients(coeffs)
    data = np.random.default_rng(3).uniform(1.0, 4.0, (24, 32))
    img = dc.DepthImage(32, 24, data)
    out = dc.apply_undistortion(m, img)
    for u, v in [(0, 0), (31, 23), (7, 13), (16, 12)]:
        assert out.data[v, u] == pytest.approx(
            undistort_depth(m, u, v, data[v, u]), abs=1e-14)


def test_apply_round_trip_with_inverse_map():
    # distort an exact plane by inverting the map's own blended field per
    # pixel, then apply the map: the result must be the plane again
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    rng = np.random.default_rng(4)
    coeffs = identity_map(degree=1).coefficients.copy()
    coeffs[:, :, 1] = rng.uniform(0.97, 1.03, coeffs.shape[:2])
    coeffs[:, :, 0] = rng.uniform(-0.02, 0.02, coeffs.shape[:2])
    m = identity_map(degree=1).with_coefficients(coeffs)

    plane_depth = 2.5
    dense = m.dense_coefficients()
    distorted_depth = (plane_depth - dense[:, :, 0]) / dense[:, :, 1]
    distorted = dc.DepthImage(32, 24, distorted_depth)
    restored = dc.depth_to_cloud(dc.apply_undistortion(m, distorted), intr)

    pts = restored.points.reshape(-1, 3)
    plane = dc.fit_plane(pts)
    rms = np.sqrt(np.mean(plane.signed_distance(pts) ** 2))
    assert rms < 1e-9
    assert np.allclose(restored.points[:, :, 2], plane_depth, atol=1e-12)


def test_apply_dimension_mismatch():
    img = dc.DepthImage(16, 16, np.ones((16, 16)))
    with pytest.raises(MapError):
        dc.apply_undistortion(identity_map(), img)


def test_maps_reject_clouds():
    # a corrected cloud is the back-projection of a corrected depth image
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    cloud = dc.depth_to_cloud(dc.DepthImage(32, 24, np.full((24, 32), 2.0)), intr)
    with pytest.raises(MapError, match="OrganizedCloud"):
        dc.apply_undistortion(identity_map(), cloud)
    with pytest.raises(MapError, match="OrganizedCloud"):
        dc.apply_global(dc.GlobalMap.identity(32, 24), cloud)


# ---------------------------------------------------------------------------
# GlobalMap


def gmap_from(rows):
    corners = [dc.PolyFn((0.0, *row), constant_zero=True) for row in rows]
    return dc.GlobalMap(32, 24, *corners)


def test_global_eval_identity():
    g = dc.GlobalMap.identity(32, 24)
    assert global_eval(g, 10, 7, 2.2) == pytest.approx(2.2, abs=1e-15)


def test_global_eval_center_is_mean():
    g = gmap_from([(1.0, 0.0), (1.02, 0.0), (0.98, 0.001)])
    d = 2.0
    corners = [*g.corners, corner_wh(g)]
    expected = np.mean([horner(c, d) for c in corners])
    assert global_eval(g, 16, 12, d) == pytest.approx(expected, abs=1e-14)


def test_global_eval_affine_ramp():
    # corners chosen so the blended surface is the ramp 1 + u/(10 W) sloped in u
    w, h = 32, 24
    g = dc.GlobalMap(w, h,
                     dc.PolyFn((0.0, 1.0), constant_zero=True),
                     dc.PolyFn((0.0, 1.1), constant_zero=True),
                     dc.PolyFn((0.0, 1.0), constant_zero=True))
    d = 2.0
    for u, v in [(0, 0), (8, 5), (16, 12), (31, 23)]:
        expected = d * (1.0 + 0.1 * u / w)
        assert global_eval(g, u, v, d) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_global_correct_matches_oracles_and_identity_is_exact(degree):
    rng = np.random.default_rng(40 + degree)
    ident = np.tile([1.0] + [0.0] * (degree - 1), 3)
    g = dc.GlobalMap.from_free_coefficients(32, 24, ident + rng.normal(0, 0.05, 3 * degree),
                                            degree)
    u, v = rng.uniform(0, 32, 300), rng.uniform(0, 24, 300)
    d = rng.uniform(-1.0, 5.0, 300)
    d[:6] = (0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300)
    got = g.correct(u, v, d)
    # the evaluator that also adds the zero constant terms: the same bits,
    # but for the sign of a zero
    ref = global_correct(g, u, v, d)
    assert np.array_equal(got, ref)
    assert got[ref != 0.0].tobytes() == ref[ref != 0.0].tobytes()
    for k in np.flatnonzero(d > 0.0):
        assert got[k] == pytest.approx(global_eval(g, u[k], v[k], d[k]), abs=1e-12)
    assert dc.GlobalMap.identity(32, 24, degree).correct(u, v, d).tobytes() == d.tobytes()


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_global_correct_image_rows_has_the_bits_of_correct(degree):
    rng = np.random.default_rng(50 + degree)
    corners = [dc.PolyFn((0.0, *rng.normal(0, 0.5, degree)), constant_zero=True)
               for _ in range(3)]
    if degree == 0:  # a G of constant corners maps every depth to 0
        with pytest.raises(MapError, match="degree 1 or more"):
            dc.GlobalMap(32, 24, *corners)
        return
    g = dc.GlobalMap(32, 24, *corners)
    d = rng.uniform(-1.0, 5.0, (24, 32))
    d[0, :4] = (0.0, -0.0, 1e-300, -1e-300)
    for v0, v1 in [(0, 24), (0, 1), (5, 17), (23, 24)]:
        want = g.correct(np.arange(32), np.arange(v0, v1)[:, None], d[v0:v1])
        got = g.correct_image_rows(d[v0:v1], v0)
        assert got.tobytes() == want.tobytes()
        out = np.empty((v1 - v0, 32))
        assert g.correct_image_rows(d[v0:v1], v0, out) is out
        assert out.tobytes() == want.tobytes()


def test_complete_dependent_corner_examples():
    ident = dc.PolyFn((0.0, 1.0), constant_zero=True)
    gw0 = dc.PolyFn((0.0, 1.01), constant_zero=True)
    g0h = dc.PolyFn((0.0, 0.99), constant_zero=True)
    out = complete_dependent_corner(ident, gw0, g0h)
    assert np.allclose(out, (0.0, 1.0))
    same = complete_dependent_corner(ident, ident, ident)
    assert np.array_equal(same, ident)


def test_complete_dependent_corner_degree_mismatch():
    with pytest.raises(MapError):
        complete_dependent_corner(dc.PolyFn((0.0, 1.0), constant_zero=True),
                                  dc.PolyFn((0.0, 1.0, 0.0), constant_zero=True),
                                  dc.PolyFn((0.0, 1.0), constant_zero=True))


def test_global_map_rejects_corners_without_a_dependent_corner():
    lin = dc.PolyFn((0.0, 1.0), constant_zero=True)
    quad = dc.PolyFn((0.0, 1.0, 0.0), constant_zero=True)
    with pytest.raises(MapError, match="degree"):
        dc.GlobalMap(32, 24, lin, quad, lin)
    with pytest.raises(MapError, match="zero constant term"):
        dc.GlobalMap(32, 24, lin, lin, dc.PolyFn((0.1, 1.0)))


@settings(max_examples=50, deadline=None)
@given(coef=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6))
def test_dependent_corner_invariant_at_sampled_depths(coef):
    rows = [(1.0 + coef[0], coef[1]), (1.0 + coef[2], coef[3]),
            (1.0 + coef[4], coef[5])]
    g = gmap_from(rows)
    d = np.linspace(0.5, 5.0, 20)
    # the map's own value at the dependent corner (W, H)
    g00, gw0, g0h = g.corners
    lhs = horner(g00, d) + g.correct(g.width, g.height, d)
    rhs = horner(gw0, d) + horner(g0h, d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_global_blend_is_affine_across_image():
    # the dependent corner kills the bilinear cross term: for any valid map
    # and any fixed depth, the corrected-depth field over the image is affine
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = gmap_from(rng.uniform(-0.05, 0.05, (3, 2)) + [[1.0, 0.0]] * 3)
        u = np.arange(32, dtype=float)[None, :]
        v = np.arange(24, dtype=float)[:, None]
        field = np.empty((24, 32))
        for vv in range(24):
            for uu in range(32):
                field[vv, uu] = global_eval(g, uu, vv, 3.0)
        # second differences vanish for an affine field
        assert np.max(np.abs(np.diff(field, n=2, axis=0))) < 1e-12
        assert np.max(np.abs(np.diff(field, n=2, axis=1))) < 1e-12
        del u, v


def test_global_corrected_plane_depth_field_stays_planar():
    # a fronto-parallel plane has a constant depth field; after correction the
    # field is affine over (u, v), i.e. still an exact plane as a height field
    rng = np.random.default_rng(6)
    g = gmap_from(rng.uniform(-0.03, 0.03, (3, 2)) + [[1.0, 0.0]] * 3)
    img = dc.DepthImage(32, 24, np.full((24, 32), 2.0))
    out = dc.apply_global(g, img)
    uu, vv = np.meshgrid(np.arange(32.0), np.arange(24.0))
    height_field = np.column_stack([uu.ravel(), vv.ravel(), out.data.ravel()])
    pl = dc.fit_plane(height_field)
    rms = np.sqrt(np.mean(pl.signed_distance(height_field) ** 2))
    assert rms < 1e-9


# ---------------------------------------------------------------------------
# full correction


def small_camera():
    return dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)


def test_full_correction_identity_maps():
    intr = small_camera()
    rng = np.random.default_rng(7)
    img = dc.DepthImage(32, 24, rng.uniform(1.0, 4.0, (24, 32)))
    out = apply_full_correction(identity_map(), dc.GlobalMap.identity(32, 24),
                                   img, intr)
    ref = dc.depth_to_cloud(img, intr)
    assert np.array_equal(out.points, ref.points)


def test_full_correction_composition_cancels():
    intr = small_camera()
    img = dc.DepthImage(32, 24, np.full((24, 32), 2.0))
    u_map = uniform_map(dc.PolyFn((0.0, 1.1)))
    g_map = dc.GlobalMap(32, 24, *[dc.PolyFn((0.0, 1 / 1.1), constant_zero=True)] * 3)
    out = apply_full_correction(u_map, g_map, img, intr)
    ref = dc.depth_to_cloud(img, intr)
    assert np.allclose(out.points, ref.points, atol=1e-12)


def test_full_correction_order_is_u_then_g():
    intr = small_camera()
    img = dc.DepthImage(32, 24, np.full((24, 32), 2.0))
    u_map = uniform_map(dc.PolyFn((0.05, 1.0)))
    g_map = dc.GlobalMap(32, 24, *[dc.PolyFn((0.0, 1.0, 0.01), constant_zero=True)] * 3)
    out = apply_full_correction(u_map, g_map, img, intr)
    d_hat = 2.05
    expected = d_hat + 0.01 * d_hat ** 2
    assert np.allclose(out.points[:, :, 2], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# apply_calibration: one banded kernel for every thread count

ROWS = maps.BLOCK_ROWS


def random_maps(width, height, seed):
    rng = np.random.default_rng(seed)
    base = identity_map(width, height)
    umap = base.with_coefficients(base.coefficients
                                  + rng.normal(0, 0.01, base.coefficients.shape))
    gmap = dc.GlobalMap.from_free_coefficients(
        width, height, rng.normal(0, 0.01, 6) + [1, 0, 1, 0, 1, 0])
    return umap, gmap


def random_frame(width, height, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.5, 4.5, (height, width))
    data[rng.uniform(size=data.shape) < 0.1] = 0.0
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=width / 2, cy=height / 2,
                               width=width, height=height)
    return dc.DepthImage(width, height, data), intr


@pytest.mark.parametrize("height, threads", [(2 * ROWS + 5, 2), (3 * ROWS + 1, 3),
                                             (5 * ROWS - 1, 5), (6, 8)])
def test_apply_calibration_same_bytes_for_any_band_split(height, threads, monkeypatch):
    # every multi-thread case has a block per thread at least; 6 rows are
    # one block, whatever the thread count
    umap, gmap = random_maps(32, height, 13)
    img, intr = random_frame(32, height, 14)
    single = dc.apply_calibration(umap, gmap, img, intr, 1)
    # the calling thread waits at its first block, if it gets one, until
    # the pool has done every other block: pool threads take blocks however
    # fast the calling thread is
    blocks = -(-height // ROWS)
    caller = threading.get_ident()
    by_pool = []
    pool_done = threading.Event()
    kernel = pipeline.correct_rows

    def correct_rows(*args):
        if threading.get_ident() == caller:
            assert blocks == 1 or pool_done.wait(timeout=10), "the pool lost a block"
            return kernel(*args)
        out = kernel(*args)
        by_pool.append(args[3])
        if len(by_pool) == blocks - 1:
            pool_done.set()
        return out

    monkeypatch.setattr(pipeline, "correct_rows", correct_rows)
    multi = dc.apply_calibration(umap, gmap, img, intr, threads)
    assert len(by_pool) >= blocks - 1
    assert np.array_equal(single.points, multi.points)
    assert np.array_equal(single.valid, multi.valid)


def test_apply_calibration_with_identity_g_is_undistorted_cloud():
    # the cloud stages one and two use is apply_calibration's with G = identity
    umap, _ = random_maps(32, 24, 17)
    img, intr = random_frame(32, 24, 18)
    coeffs = umap.coefficients.copy()
    coeffs[0, 0] = (-4.0, 1.0, 0.0)  # sends the top-left depths below 4 m to <= 0
    umap = umap.with_coefficients(coeffs)
    undistorted = dc.apply_undistortion(umap, img)
    assert np.count_nonzero(img.valid & ~undistorted.valid) > 0
    got = dc.apply_calibration(umap, dc.GlobalMap.identity(32, 24), img, intr, 1)
    want = dc.depth_to_cloud(undistorted, intr)
    assert np.array_equal(got.valid, want.valid)
    assert np.array_equal(got.points, want.points)


def test_apply_calibration_matches_pixel_oracles():
    umap, gmap = random_maps(32, 24, 15)
    img, intr = random_frame(32, 24, 16)
    cloud = dc.apply_calibration(umap, gmap, img, intr, 1)
    for v in range(24):
        for u in range(32):
            z = global_eval(gmap, u, v, undistort_depth(umap, u, v, img.data[v, u]))
            z = max(z, 0.0)
            expected = (z * (u - intr.cx) / intr.fx, z * (v - intr.cy) / intr.fy, z)
            assert cloud.valid[v, u] == (z > 0.0)
            assert np.max(np.abs(cloud.points[v, u] - expected)) <= 1e-12


def edge_case_frame(width, height, seed):
    """Maps and a frame with zero depths, u(d) <= 0 on the top-left block
    of control functions and d* < 0 beyond about 3.3 m."""
    umap, _ = random_maps(width, height, seed)
    coeffs = umap.coefficients.copy()
    coeffs[0, :2] = (-4.0, 1.0, 0.0)
    umap = umap.with_coefficients(coeffs)
    gmap = dc.GlobalMap.from_free_coefficients(width, height,
                                               [1.0, -0.3, 1.01, -0.29, 0.99, -0.31])
    img, intr = random_frame(width, height, seed + 1)
    return umap, gmap, img, intr


@pytest.mark.parametrize("height", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 5])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_apply_calibration_has_the_bits_of_the_whole_frame_kernel(height, threads):
    umap, gmap, img, intr = edge_case_frame(16, height, 21)
    want = apply_full_correction(umap, gmap, img, intr)
    got = dc.apply_calibration(umap, gmap, img, intr, threads)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.valid.tobytes() == want.valid.tobytes()
    d = img.data
    dhat = dc.apply_undistortion(umap, img).data
    dstar = gmap.correct(np.arange(16), np.arange(height)[:, None], dhat)
    assert np.any(d == 0.0) and np.any((d > 0.0) & (dhat <= 0.0))
    if height > 1:
        assert np.any(dstar < 0.0)
    # an invalid pixel's depth is +0.0, never -0.0
    assert not np.any(np.signbit(got.points[~got.valid, 2]))


class InlinePool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

    sizes = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)

    def map(self, fn, *args):
        return list(map(fn, *args))

    def shutdown(self, wait=True):
        pass


@pytest.mark.parametrize("height, threads, workers", [
    (2 * ROWS + 5, 64, [2]), (2 * ROWS + 5, 2, [1]), (ROWS, 64, []), (1, 8, []),
    (2 * ROWS + 5, 1, [])])
def test_apply_calibration_starts_a_thread_per_block_at_most(height, threads, workers,
                                                            monkeypatch):
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    umap, gmap = random_maps(16, height, 13)
    img, intr = random_frame(16, height, 14)
    cloud = dc.apply_calibration(umap, gmap, img, intr, threads)
    assert InlinePool.sizes == workers
    want = apply_full_correction(umap, gmap, img, intr)
    assert cloud.points.tobytes() == want.points.tobytes()


def test_threads_share_the_blocks_of_a_frame_without_losing_one():
    # more threads than cores, switching as often as the interpreter allows:
    # a block taken twice or never would change the cloud's bytes
    umap, gmap, img, intr = edge_case_frame(16, 12 * ROWS + 7, 23)
    want = dc.apply_calibration(umap, gmap, img, intr, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 5, 8):
            got = dc.apply_calibration(umap, gmap, img, intr, threads)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.valid.tobytes() == want.valid.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_pool_threads_run_off_the_calling_threads_cpu():
    others = pipeline._other_cpus()
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        assert others is None
        return
    mask = os.sched_getaffinity(0)
    assert others < mask and len(others) == len(mask) - 1


@pytest.mark.parametrize("threads", [1, 2])
def test_apply_calibration_checks_sizes_for_any_thread_count(threads):
    umap, gmap = random_maps(64, 48, 17)
    img, intr = random_frame(64, 48, 18)
    short, _ = random_frame(64, 24, 18)
    with pytest.raises(MapError):
        dc.apply_calibration(umap, gmap, short, intr, threads)
    _, narrow = random_frame(32, 48, 18)
    with pytest.raises(dc.GeometryError):
        dc.apply_calibration(umap, gmap, img, narrow, threads)


def test_concurrent_application_on_shared_map():
    # maps are immutable after estimation: many threads may apply the same
    # instance with no synchronization and identical results
    from concurrent.futures import ThreadPoolExecutor

    intr = small_camera()
    rng = np.random.default_rng(11)
    img = dc.DepthImage(32, 24, rng.uniform(1.0, 4.0, (24, 32)))
    coeffs = identity_map().coefficients + rng.normal(0, 0.005,
                                                      identity_map().coefficients.shape)
    m = identity_map().with_coefficients(coeffs)

    def undistorted_cloud(_):
        return dc.depth_to_cloud(dc.apply_undistortion(m, img), intr)

    reference = undistorted_cloud(None)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(undistorted_cloud, range(16)))
    for out in results:
        assert np.array_equal(out.points, reference.points)


def test_correct_depth_image_invalid_passthrough():
    img_data = np.full((24, 32), 2.0)
    img_data[3, 4] = 0.0
    img = dc.DepthImage(32, 24, img_data)
    out = correct_depth_image(identity_map(), dc.GlobalMap.identity(32, 24), img)
    assert out.data[3, 4] == 0.0
    assert out.valid.sum() == img.valid.sum()
