import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthcal as dc
from depthcal.geometry import (
    GeometryError,
    IndexSet,
    axis_angle_to_quat,
    back_project,
    fit_planes,
    forward_steps,
    horner,
    lm_jacobian,
    plane_through,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)
from oracles import fit_planes_with_mean, horner_steps, los_project, orth_project


def ideal_camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0):
    return dc.CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=640, height=480)


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(unit_floats, unit_floats, unit_floats)


def random_transform(rng):
    return dc.RigidTransform(axis_angle_to_quat(rng.normal(size=3)),
                             rng.normal(size=3))


# ---------------------------------------------------------------------------
# Plane / RigidTransform invariants


def test_plane_is_canonical():
    pl = dc.Plane((0, 0, -2.0), -4.0)
    assert np.allclose(pl.normal, (0, 0, 1))
    assert pl.offset == pytest.approx(2.0)
    assert np.linalg.norm(pl.normal) == pytest.approx(1.0, abs=1e-12)


def test_plane_rejects_zero_normal():
    with pytest.raises(GeometryError):
        dc.Plane((0, 0, 0), 1.0)


def test_transform_round_trip_on_points():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_transform(rng)
        x = rng.normal(size=(20, 3))
        assert np.linalg.norm(t.inverse().apply(t.apply(x)) - x) < 1e-10


def test_transform_composition_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_transform(rng) for _ in range(3))
    x = rng.normal(size=(5, 3))
    left = a.compose(b).compose(c).apply(x)
    right = a.compose(b.compose(c)).apply(x)
    assert np.allclose(left, right, atol=1e-12)


def test_quaternion_stays_unit():
    rng = np.random.default_rng(11)
    t = random_transform(rng)
    assert abs(np.linalg.norm(t.quaternion) - 1.0) < 1e-12


def test_quaternion_helpers_accept_stacks():
    # row k of a stacked call has the bits of the call on row k alone
    rng = np.random.default_rng(12)
    rvecs = rng.normal(size=(7, 3)) * np.logspace(-14, 0.5, 7)[:, None]
    rvecs[3] = 0.0
    q = rng.normal(size=(7, 4))
    b = rng.normal(size=(7, 4))
    for fn, args in ((axis_angle_to_quat, (rvecs,)), (quat_normalize, (q,)),
                     (quat_multiply, (q, b)), (quat_to_matrix, (q,))):
        rows = np.array([fn(*(a[k] for a in args)) for k in range(7)])
        assert np.array_equal(fn(*args), rows), fn.__name__
    rows = np.array([quat_to_matrix(row) for row in q])
    assert np.array_equal(quat_to_matrix(q.reshape(7, 1, 4))[:, 0], rows)
    # row-major like before: the layout picks the BLAS path of `apply`
    assert quat_to_matrix(q[0]).flags["C_CONTIGUOUS"]
    assert np.array_equal(quat_multiply(q.reshape(7, 1, 4), b[0])[:, 0],
                          np.array([quat_multiply(row, b[0]) for row in q]))
    grid = quat_multiply(q[:, None], b[:3])  # (7, 1, 4) by (3, 4)
    assert np.array_equal(grid[2, 1], quat_multiply(q[2], b[1]))


def test_quat_normalize_keeps_bits_of_finite_input():
    rng = np.random.default_rng(13)
    scale = 10.0 ** rng.uniform(-100, 100, (200, 1))
    for q in rng.normal(size=(200, 4)) * scale:
        expected = q / np.linalg.norm(q)
        if expected[0] < 0:
            expected = -expected
        assert np.array_equal(quat_normalize(q), expected)


def test_quat_normalize_is_idempotent():
    # so a RigidTransform rebuilt from its own quaternion, as a calibration
    # file reader does, has the same bits
    rng = np.random.default_rng(14)
    once = quat_normalize(rng.normal(size=(20_000, 4)))
    assert np.array_equal(quat_normalize(once), once)
    t = dc.RigidTransform(rng.normal(size=4), (0.1, 0.2, 0.3))
    assert dc.RigidTransform(t.quaternion, t.translation) == t


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [(1e200, 0, 0, 0), (np.inf, 0, 0, 0),
                               (np.nan, 1, 0, 0), (1e200,) * 4])
def test_rigid_transform_rejects_nonfinite_quaternion_norm(q):
    # the squared norm of (1e200, 0, 0, 0) overflows; it used to normalize
    # to the zero quaternion. The rejection raises no numpy warning.
    with pytest.raises(GeometryError, match="not finite"):
        quat_normalize(q)
    with pytest.raises(GeometryError, match="not finite"):
        dc.RigidTransform(q, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# depth_to_cloud


def test_depth_to_cloud_principal_point():
    intr = ideal_camera()
    data = np.zeros((480, 640))
    data[240, 320] = 2.0
    cloud = dc.depth_to_cloud(dc.DepthImage(640, 480, data), intr)
    assert np.allclose(cloud.points[240, 320], (0.0, 0.0, 2.0))


def test_depth_to_cloud_one_focal_length_offset():
    intr = ideal_camera()
    data = np.zeros((480, 640))
    # pixel cx + fx does not exist at fx=500; use a camera where it does
    intr = dc.CameraIntrinsics(fx=200, fy=200, cx=300, cy=240, width=640, height=480)
    data[240, 500] = 3.0
    cloud = dc.depth_to_cloud(dc.DepthImage(640, 480, data), intr)
    assert np.allclose(cloud.points[240, 500], (3.0, 0.0, 3.0))


def test_depth_to_cloud_invalid_depth_absent():
    intr = ideal_camera()
    img = dc.DepthImage(640, 480, np.zeros((480, 640)))
    cloud = dc.depth_to_cloud(img, intr)
    assert not cloud.valid.any()


def test_depth_to_cloud_z_reproduces_depth_exactly():
    intr = ideal_camera()
    rng = np.random.default_rng(0)
    data = rng.uniform(0.5, 4.0, size=(480, 640))
    data[rng.uniform(size=(480, 640)) < 0.1] = 0.0
    img = dc.DepthImage(640, 480, data)
    cloud = dc.depth_to_cloud(img, intr)
    assert np.array_equal(cloud.points[:, :, 2], img.data)
    assert np.array_equal(cloud.valid, img.valid)


def test_points_at_gathers_the_pixels():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(5, 7, 3))
    valid = np.ones((5, 7), dtype=bool)
    valid[1, 5] = False
    cloud = dc.OrganizedCloud(7, 5, pts, valid)
    mask = np.zeros((5, 7), dtype=bool)
    for u, v in [(6, 0), (0, 4), (3, 2), (6, 4)]:
        mask[v, u] = True
    # row-major: (6, 0), (3, 2), (0, 4), (6, 4)
    got = cloud.points_at(mask)
    assert np.array_equal(got, pts[[0, 2, 4, 4], [6, 3, 0, 6]])
    # a mask from a frame of another size must not wrap into the next row
    for shape in [(5, 8), (6, 7), (35,)]:
        with pytest.raises(GeometryError, match="size"):
            cloud.points_at(np.ones(shape, dtype=bool))
    # an invalid pixel carries no point
    mask[1, 5] = True
    with pytest.raises(GeometryError, match="invalid"):
        cloud.points_at(mask)
    # only a bool mask: an int array would select whole rows, not pixels
    for other in (mask.astype(int), mask.astype(float), mask.tolist(), np.array([0, 2])):
        with pytest.raises(GeometryError, match="bool mask"):
            cloud.points_at(other)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_horner_has_the_bits_of_copy_then_scale(degree):
    # the first step multiplies c_top by z in one pass; a copy of c_top
    # scaled in place gives the same bits, at every shape horner takes
    rng = np.random.default_rng(degree)
    c = rng.normal(0, 1, (6, 7, degree + 1))
    z = rng.uniform(-2, 5, (6, 7))
    z[0, :3] = (0.0, -0.0, np.inf)
    with np.errstate(invalid="ignore"):
        got = horner(c, z)
        assert got.tobytes() == horner_steps(c, z, np.empty(z.shape)).tobytes()
        row = c[0, 0]
        assert horner(row, z).tobytes() == horner_steps(row, z, np.empty(z.shape)).tobytes()
    assert horner(row, 1.5) == horner_steps(row, 1.5, np.empty(()))[()]


def test_back_project_at_pixels_matches_the_whole_frame():
    intr = dc.CameraIntrinsics(fx=61.0, fy=63.0, cx=19.3, cy=14.6, width=40,
                               height=30)
    rng = np.random.default_rng(8)
    img = dc.DepthImage(40, 30, rng.uniform(0.5, 4.0, (30, 40)))
    cloud = dc.depth_to_cloud(img, intr)
    u, v = rng.integers(0, 40, 50), rng.integers(0, 30, 50)
    got = back_project(img.data[v, u], u, v, intr)
    assert got.tobytes() == cloud.points[v, u].tobytes()
    # the pinhole model, one value at a time
    x = img.data[v, u] * ((u - intr.cx) / intr.fx)
    y = img.data[v, u] * ((v - intr.cy) / intr.fy)
    assert np.array_equal(got, np.column_stack([x, y, img.data[v, u]]))
    # in place, with z already in the output's last column
    out = np.empty((5, 40, 3))
    out[:, :, 2] = img.data[10:15]
    back_project(out[:, :, 2], np.arange(40), np.arange(10, 15)[:, None], intr,
                 out=out)
    assert out.tobytes() == cloud.points[10:15].tobytes()


def test_depth_to_cloud_dimension_mismatch():
    intr = ideal_camera()
    with pytest.raises(GeometryError):
        dc.depth_to_cloud(dc.DepthImage(320, 240, np.zeros((240, 320))), intr)


# ---------------------------------------------------------------------------
# project_point


def test_project_optical_axis():
    intr = ideal_camera()
    assert np.allclose(dc.project_point(intr, (0, 0, 1.0)), (320, 240))


def test_project_one_focal_length():
    intr = ideal_camera()
    assert np.allclose(dc.project_point(intr, (1.0, 0, 1.0)), (320 + 500, 240))


def test_project_with_radial_distortion_oracle():
    # oracle: x'=0.25, y'=-0.125, r2=0.078125, radial=1-0.1*r2=0.9921875
    # u = 320 + 500*0.25*0.9921875, v = 240 - 500*0.125*0.9921875
    intr = dc.CameraIntrinsics(fx=500, fy=500, cx=320, cy=240,
                               width=640, height=480, radial_dist=(-0.1,))
    uv = dc.project_point(intr, (0.5, -0.25, 2.0))
    assert uv[0] == pytest.approx(444.0234375, abs=1e-12)
    assert uv[1] == pytest.approx(177.98828125, abs=1e-12)


def test_project_rejects_nonpositive_z():
    with pytest.raises(GeometryError):
        dc.project_point(ideal_camera(), (0.0, 0.0, -1.0))


def test_undistort_pixel_inverts_projection():
    intr = dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5, width=640,
                               height=480, radial_dist=(-0.12, 0.03),
                               tangential_dist=(0.001, -0.0005))
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-0.4, 0.4, 30), rng.uniform(-0.3, 0.3, 30),
                           np.ones(30)])
    uv = dc.project_point(intr, pts)
    norm = dc.geometry.undistort_pixel(intr, uv)
    assert np.allclose(norm, pts[:, :2], atol=1e-9)


def test_undistort_pixel_without_distortion_is_the_pinhole_inverse():
    # with all-zero coefficients every fixed-point step keeps (uv - c) / f:
    # the radial factor is exactly 1 and the tangential terms exactly 0
    intr = dc.CameraIntrinsics(fx=525.3, fy=519.7, cx=319.5, cy=239.5,
                               width=640, height=480)
    rng = np.random.default_rng(8)
    uv = rng.uniform((-200.0, -150.0), (840.0, 630.0), size=(5000, 2))
    norm = dc.geometry.undistort_pixel(intr, uv)
    assert norm.tobytes() == np.column_stack([(uv[:, 0] - intr.cx) / intr.fx,
                                              (uv[:, 1] - intr.cy) / intr.fy]).tobytes()
    assert np.array_equal(dc.geometry.undistort_pixel(intr, uv[0]), norm[0])


def undistort_pixel_all_steps(intr, uv):
    """`undistort_pixel` running every one of its fixed-point steps; also
    returns the first step that left the bits of x and y unchanged (None if
    none did)."""
    xd = (uv[:, 0] - intr.cx) / intr.fx
    yd = (uv[:, 1] - intr.cy) / intr.fy
    k1, k2, k3 = intr.radial_dist
    p1, p2 = intr.tangential_dist
    x, y = xd.copy(), yd.copy()
    settled = None
    for step in range(dc.geometry.UNDISTORT_ITERATIONS):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x_prev, y_prev = x, y
        x = (xd - dx) / radial
        y = (yd - dy) / radial
        if settled is None and (x.tobytes(), y.tobytes()) == (x_prev.tobytes(),
                                                              y_prev.tobytes()):
            settled = step
    return np.column_stack([x, y]), settled


@pytest.mark.parametrize("radial, tangential, settles", [
    ((-0.12, 0.03), (0.001, -0.0005), False),
    ((0.05, -0.02, 0.01), (0.0, 0.0), False),
    ((0.0,), (-0.002, 0.003), True),
    ((-0.005,), (0.0005, 0.0), True),
])
def test_undistort_pixel_stopping_early_keeps_the_bits_of_every_step(
        radial, tangential, settles):
    intr = dc.CameraIntrinsics(fx=525.3, fy=519.7, cx=319.5, cy=239.5, width=640,
                               height=480, radial_dist=radial,
                               tangential_dist=tangential)
    rng = np.random.default_rng(9)
    # 35 corners, and one at the principal point
    uv = np.vstack([rng.uniform((100.0, 80.0), (540.0, 400.0), size=(35, 2)),
                    [intr.cx, intr.cy]])
    expect, settled = undistort_pixel_all_steps(intr, uv)
    # weak distortion reaches its fixed point before the last step, so the
    # loop stops early; strong distortion runs every step
    last = dc.geometry.UNDISTORT_ITERATIONS - 1
    assert (settled is not None and settled < last) == settles
    norm = dc.geometry.undistort_pixel(intr, uv)
    assert norm.tobytes() == expect.tobytes()
    assert np.array_equal(dc.geometry.undistort_pixel(intr, uv[3]), norm[3])


# ---------------------------------------------------------------------------
# fit_plane


def test_fit_plane_horizontal():
    pl = dc.fit_plane([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert np.allclose(pl.normal, (0, 0, 1))
    assert pl.offset == pytest.approx(1.0)


def test_fit_plane_diagonal():
    rng = np.random.default_rng(1)
    y = rng.uniform(-1, 1, 200)
    z = rng.uniform(-1, 1, 200)
    pts = np.column_stack([2.0 - z, y, z])
    pl = dc.fit_plane(pts)
    assert np.allclose(pl.normal, (1 / np.sqrt(2), 0, 1 / np.sqrt(2)), atol=1e-9)
    assert pl.offset == pytest.approx(np.sqrt(2), abs=1e-9)


def test_fit_plane_noisy_monte_carlo():
    # Monte-Carlo oracle: offset estimate should land within 3*sigma/sqrt(n)
    rng = np.random.default_rng(42)
    n, sigma = 500, 0.005
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                           2.0 + rng.normal(0, sigma, n)])
    pl = dc.fit_plane(pts)
    assert abs(pl.offset - 2.0) < 3 * sigma / np.sqrt(n)


def test_fit_plane_too_few_points():
    with pytest.raises(GeometryError):
        dc.fit_plane([(0, 0, 0), (1, 1, 1)])


def test_fit_plane_collinear():
    pts = np.outer(np.linspace(0, 1, 10), (1.0, 2.0, 3.0))
    with pytest.raises(GeometryError):
        dc.fit_plane(pts)


def test_fit_plane_near_collinear_threshold():
    # a line with a sideways wobble of width eps, turned off the axes: the
    # scatter eigenvalue ratio lambda_1 / lambda_2 is eps^2 sum(c^2) / sum(t^2)
    t = np.linspace(-1.0, 1.0, 10)
    c = t * t - np.mean(t * t)  # orthogonal to 1 and t
    rot = quat_to_matrix(axis_angle_to_quat((0.3, -0.5, 0.2)))
    for ratio, accepted in ((4e-12, True), (2.5e-13, False)):
        eps = np.sqrt(ratio * np.sum(t * t) / np.sum(c * c))
        pts = np.column_stack([t, eps * c, np.ones_like(t)]) @ rot.T
        if accepted:
            pl = dc.fit_plane(pts)
            assert abs(pl.normal @ rot[:, 2]) == pytest.approx(1.0, abs=1e-6)
            assert pl.offset == pytest.approx(1.0, abs=1e-6)
        else:
            with pytest.raises(GeometryError, match="collinear"):
                dc.fit_plane(pts)


def test_plane_through_matches_fit_plane():
    rng = np.random.default_rng(4)
    for _ in range(200):
        pts = rng.uniform(-2.0, 2.0, (3, 3)) + (0.0, 0.0, 3.0)
        got, expected = plane_through(pts), dc.fit_plane(pts)
        assert np.max(np.abs(got.normal - expected.normal)) <= 1e-12
        assert got.offset == pytest.approx(expected.offset, abs=1e-12)


@pytest.mark.parametrize("pts", [
    pytest.param([(0.1, 0.2, 1.0), (0.1, 0.2, 1.0), (0.5, 0.0, 2.0)], id="repeated"),
    pytest.param([(0.1, 0.2, 1.0), (0.5, 0.0, 2.0), (0.5, 0.0, 2.0)], id="repeated-last"),
    pytest.param([(0.0, 0.0, 1.0), (1.0, 2.0, 3.0), (-2.0, -4.0, -3.0)], id="collinear"),
    # edges 1 km long at an angle of 1e-13 rad: |n| = 1e-7 is not small
    pytest.param([(0.0, 0.0, 1.0), (1e3, 0.0, 1.0), (1e3, 1e-10, 1.0)],
                 id="nearly-collinear"),
])
def test_plane_through_rejects_degenerate_triples(pts):
    with pytest.raises(GeometryError):
        plane_through(pts)


@pytest.mark.parametrize("n", [3, 4, 9, 1000, 76800])
@pytest.mark.parametrize("offset", [0.0, 2.5, 1e4, -1e6])
def test_fit_planes_running_sum_centroid_gives_the_mean_bits(n, offset):
    # each column's running sum over n is what mean(axis=0) computes on
    # row-major rows, far from the origin too
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 3)) * (1.0, 0.5, 0.01) + offset
    for got, want in zip(fit_planes(pts), fit_planes_with_mean(pts)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_fit_plane_rigid_equivariance():
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                           0.3 * rng.uniform(-1, 1, 50) + 2.0])
    pl = dc.fit_plane(pts)
    for _ in range(10):
        t = random_transform(rng)
        moved = dc.fit_plane(t.apply(pts))
        expected = dc.transform_plane(t, pl)
        assert np.allclose(moved.normal, expected.normal, atol=1e-9)
        assert moved.offset == pytest.approx(expected.offset, abs=1e-9)


# ---------------------------------------------------------------------------
# projections onto planes


def test_los_project_axis_aligned():
    pl = dc.Plane((0, 0, 1), 2.0)
    assert np.allclose(los_project((1, -1, 4), pl), (0.5, -0.5, 2.0))


def test_los_project_fixed_point():
    pl = dc.Plane((0, 0, 1), 2.0)
    p = (0.7, -0.3, 2.0)
    assert np.allclose(los_project(p, pl), p)


def test_los_project_residual_identity():
    pl = dc.Plane((0.6, 0, 0.8), 2.0)
    out = los_project((1.0, 0, 1.0), pl)
    assert np.allclose(out, np.array([1.0, 0, 1.0]) * (2.0 / 1.4))
    assert abs(pl.normal @ out - pl.offset) < 1e-12


def test_los_project_parallel_ray():
    pl = dc.Plane((0, 0, 1), 2.0)
    with pytest.raises(GeometryError):
        los_project((1.0, 1.0, 0.0), pl)


def test_orth_project_axis_aligned():
    pl = dc.Plane((0, 0, 1), 2.0)
    assert np.allclose(orth_project((3, 3, 5), pl), (3, 3, 2))


@settings(max_examples=50, deadline=None)
@given(p=vec3, n=vec3, d=st.floats(0, 3))
def test_orth_project_properties(p, n, d):
    n = np.asarray(n)
    if np.linalg.norm(n) < 1e-3:
        return
    pl = dc.Plane(n, d)
    out = orth_project(np.asarray(p, dtype=float), pl)
    assert abs(pl.normal @ out - pl.offset) < 1e-12
    residual = np.asarray(p) - out
    assert np.linalg.norm(np.cross(residual, pl.normal)) < 1e-9


def test_both_projections_land_on_plane():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pl = dc.Plane(rng.normal(size=3), rng.uniform(0.1, 3))
        p = rng.normal(size=3) + pl.normal * 2
        if abs(p @ pl.normal) < 1e-6:
            continue
        assert abs(pl.normal @ los_project(p, pl) - pl.offset) < 1e-12
        assert abs(pl.normal @ orth_project(p, pl) - pl.offset) < 1e-12


# ---------------------------------------------------------------------------
# transform_plane


def test_transform_plane_identity():
    pl = dc.Plane((0.6, 0, 0.8), 1.5)
    out = dc.transform_plane(dc.RigidTransform.identity(), pl)
    assert np.allclose(out.normal, pl.normal)
    assert out.offset == pytest.approx(pl.offset)


def test_transform_plane_pure_translation():
    pl = dc.Plane((1, 0, 0), 2.0)
    t = dc.RigidTransform((1, 0, 0, 0), (0.025, 0, 0))
    assert dc.transform_plane(t, pl).offset == pytest.approx(2.025)


def test_transform_plane_point_consistency():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pl = dc.Plane(rng.normal(size=3), rng.uniform(0, 3))
        t = random_transform(rng)
        moved = dc.transform_plane(t, pl)
        # a point on the plane must land on the transformed plane
        base = pl.normal * pl.offset
        span = np.linalg.svd(np.outer(pl.normal, pl.normal) - np.eye(3))[0][:, :2]
        pts = base + rng.normal(size=(20, 2)) @ span.T
        assert np.max(np.abs(moved.signed_distance(t.apply(pts)))) < 1e-12


# ---------------------------------------------------------------------------
# estimate_transform_from_planes


def make_plane_set(rng, count=5):
    planes = []
    for _ in range(count):
        planes.append(dc.Plane(rng.normal(size=3), rng.uniform(0.5, 3.0)))
    return planes


def test_estimate_transform_identity():
    rng = np.random.default_rng(2)
    planes = make_plane_set(rng)
    t = dc.estimate_transform_from_planes(planes, planes)
    assert np.linalg.norm(t.translation) < 1e-10
    assert t.rotation_angle() < 1e-10


def test_estimate_transform_known_motion():
    # translation magnitudes on the scale of a real camera-depth offset
    rng = np.random.default_rng(4)
    t_true = dc.RigidTransform(axis_angle_to_quat((0, np.deg2rad(1.0), 0)),
                               (0.025, 0.004, -0.006))
    planes_a = make_plane_set(rng, 6)
    planes_b = [dc.transform_plane(t_true, p) for p in planes_a]
    est = dc.estimate_transform_from_planes(planes_a, planes_b)
    assert np.linalg.norm(est.translation - t_true.translation) < 1e-9
    assert est.compose(t_true.inverse()).rotation_angle() < 1e-9
    for pa, pb in zip(planes_a, planes_b):
        moved = dc.transform_plane(est, pa)
        assert np.allclose(moved.normal, pb.normal, atol=1e-9)


def test_estimate_transform_parallel_normals_degenerate():
    planes = [dc.Plane((0, 0, 1), d) for d in (1.0, 2.0, 3.0)]
    with pytest.raises(GeometryError):
        dc.estimate_transform_from_planes(planes, planes)


def test_estimate_transform_too_few_pairs():
    planes = make_plane_set(np.random.default_rng(0), 2)
    with pytest.raises(GeometryError):
        dc.estimate_transform_from_planes(planes, planes)


# ---------------------------------------------------------------------------
# solve_pnp


def board_grid(rows=6, cols=8, square=0.1):
    return np.array([[c * square, r * square, 0.0]
                     for r in range(rows) for c in range(cols)])


def test_solve_pnp_noiseless_recovery():
    intr = dc.CameraIntrinsics(fx=525, fy=525, cx=319.5, cy=239.5,
                               width=640, height=480, radial_dist=(-0.05,))
    board = board_grid()
    true = dc.RigidTransform(axis_angle_to_quat((0.15, -0.2, 0.1)),
                             (0.05, -0.1, 1.8))
    img_pts = dc.project_point(intr, true.apply(board))
    pose, rms = dc.solve_pnp(board, img_pts, intr)
    assert rms < 1e-8
    assert np.linalg.norm(pose.translation - true.translation) < 1e-8
    assert pose.compose(true.inverse()).rotation_angle() < 1e-6


def test_solve_pnp_frontal_board():
    intr = ideal_camera()
    board = board_grid()
    true = dc.RigidTransform.identity()
    true = dc.RigidTransform(true.quaternion, (-0.35, -0.25, 1.0))
    img_pts = dc.project_point(intr, true.apply(board))
    pose, rms = dc.solve_pnp(board, img_pts, intr)
    assert rms < 1e-9
    assert np.linalg.norm(pose.translation - true.translation) < 1e-9


def test_solve_pnp_too_few_points():
    intr = ideal_camera()
    with pytest.raises(GeometryError):
        dc.solve_pnp(board_grid()[:3], np.zeros((3, 2)), intr)


# ---------------------------------------------------------------------------
# lm_minimize


def test_lm_linear_residual():
    res = dc.lm_minimize(lambda x: x - 3.0, np.zeros(1))
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)
    assert res.converged


def test_lm_quadratic_bowl_fast():
    res = dc.lm_minimize(lambda x: x - np.array([3.0, -1.0]), np.zeros(2))
    assert res.iterations <= 3
    assert res.converged


def test_lm_rosenbrock():
    def rosen(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    res = dc.lm_minimize(rosen, np.array([-1.2, 1.0]))
    assert np.allclose(res.x, (1.0, 1.0), atol=1e-6)


def test_lm_cost_trace_non_increasing():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(20, 4))
    b = rng.normal(size=20)

    def residual(x):
        return a @ x - b + 0.1 * np.sin(x).sum()

    res = dc.lm_minimize(residual, rng.normal(size=4))
    trace = np.asarray(res.cost_trace)
    assert np.all(np.diff(trace) <= 0)


def test_lm_rejects_nonfinite_start():
    with pytest.raises(GeometryError):
        dc.lm_minimize(lambda x: np.array([np.nan]), np.zeros(1))


def test_lm_reason_ftol():
    res = dc.lm_minimize(lambda x: x - 3.0, np.zeros(1))
    assert (res.reason, res.converged) == ("ftol", True)


def test_lm_reason_xtol():
    # ftol = 0 never fires, so only the step length can stop the solver
    res = dc.lm_minimize(lambda x: x - np.array([3.0, -1.0]), np.zeros(2),
                         ftol=0.0, xtol=1e-6)
    assert (res.reason, res.converged) == ("xtol", True)


def test_lm_reason_max_iter():
    def rosen(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    res = dc.lm_minimize(rosen, np.array([-1.2, 1.0]), max_iter=2)
    assert (res.reason, res.converged, res.iterations) == ("max_iter", False, 2)


def test_lm_reason_damping_exhausted():
    # a Jacobian of the wrong sign makes every damped step go uphill
    res = dc.lm_minimize(lambda x: x.copy(), np.ones(1),
                         normal_fn=lambda fn, x, r: (np.eye(1), -r))
    assert (res.reason, res.converged) == ("damping_exhausted", True)
    assert res.x[0] == 1.0
    assert res.cost_trace == [1.0]


def test_forward_steps_are_the_old_scalar_rule_and_lm_jacobians_steps():
    x = np.array([0.0, -0.3, 1.0, -2.5e3, 7e-7, 1e300])
    steps = forward_steps(x)
    assert steps.tolist() == [max(1e-6, 1e-6 * abs(xi)) for xi in x.tolist()]

    def residual(p):
        return np.array([np.sin(p[0]) * p[1], p[1] ** 2 + p[2]])

    x = np.array([0.4, -1.7e3, 2e-3])
    r = residual(x)
    jac = lm_jacobian(residual, x, r)
    for i in range(x.size):
        h = max(1e-6, 1e-6 * abs(float(x[i])))
        xp = x.copy()
        xp[i] += h
        assert jac[:, i].tobytes() == ((residual(xp) - r) / h).tobytes()


def test_lm_jacobian_matches_analytic():
    a = np.array([[2.0, 1.0], [0.5, -1.0], [1.0, 3.0]])

    def residual(x):
        return a @ x - np.array([1.0, 2.0, 3.0])

    jac = lm_jacobian(residual, np.array([0.3, -0.7]))
    assert np.allclose(jac, a, atol=1e-5)


# ---------------------------------------------------------------------------
# KINECT1_QUANTIZATION (values evaluated from the sensor noise polynomial)


@pytest.mark.parametrize("z,expected", [(1.0, 0.001445), (2.0, 0.00591),
                                        (4.0, 0.02303)])
def test_sigma_quantization_reference_values(z, expected):
    assert horner(dc.KINECT1_QUANTIZATION, z) == pytest.approx(expected, abs=1e-9)


def test_noise_model_positive_on_working_range():
    z = np.linspace(0.5, 5.0, 100)
    assert np.all(horner(dc.KINECT1_QUANTIZATION, z) > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["fx", "fy"])
def test_intrinsics_reject_nonfinite_focal_length(axis, bad):
    values = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    values[axis] = bad
    with pytest.raises(GeometryError):
        dc.CameraIntrinsics(**values)


# ---------------------------------------------------------------------------
# IndexSet.from_mask, the constructor benchmark/workloads.py calls


def test_index_set_from_mask():
    rng = np.random.default_rng(3)
    mask = rng.random((12, 17)) < 0.4
    s = IndexSet.from_mask(mask)
    assert type(s) is np.ndarray and s.dtype == bool and np.array_equal(s, mask)
    assert not s.flags.writeable
    # a copy: changing the caller's mask leaves the set as it was
    mask[~mask] = True
    assert np.count_nonzero(s) < mask.size
    assert np.count_nonzero(IndexSet.from_mask(np.zeros((3, 4), dtype=bool))) == 0
    assert np.array_equal(IndexSet.from_mask([[2, 0], [0, -1]]), [[True, False], [False, True]])
    assert not hasattr(dc, "IndexSet")
