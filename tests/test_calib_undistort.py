import re

import numpy as np
import pytest

import depthcal as dc
from depthcal import synthbench as sb
from depthcal.calib_undistort import SCORE_CHUNK, _chunk_bounds, undistorted_points
from depthcal.geometry import horner, plane_through, solve_pnp
from depthcal.maps import MAX_DEGREE
from oracles import estimate_undistortion_map as whole_frame_stage_one
from oracles import fit_reference_plane_scanned, update_map_gathered
from oracles import select_wall_points as one_by_one_wall_points


T0 = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))


def small_scene(noise=False, seed=3, n_train=12, n_test=3, peak=0.022, floor=None):
    return sb.standard_scene(
        n_train=n_train, n_test=n_test, seed=seed, noise=noise,
        width=160, height=120, floor_y=floor,
        distortion=sb.bowl_distortion(160, 120, peak=peak, grid_bin=(2, 2)))


def small_cfg(**kw):
    base = dict(chi=2, psi=2, degree=2, seed=1, min_inliers=50, fit_radius=24)
    base.update(kw)
    return dc.UndistortConfig(**base)


def board_pose(scene, frame):
    pose, _ = dc.solve_pnp(scene.board.corners_3d(), frame.corner_points,
                           scene.intr_rgb)
    return pose


@pytest.fixture(scope="module")
def clean_scene():
    scene = small_scene()
    frames = [sb.render_frame(scene, k) for k in range(scene.n_frames)]
    return scene, frames


# ---------------------------------------------------------------------------
# board / frame types


def test_board_corner_layout():
    board = dc.BoardSpec(rows=3, cols=4, square_size=0.05)
    pts = board.corners_3d()
    assert pts.shape == (12, 3)
    assert np.allclose(pts[0], (0, 0, 0))
    assert np.allclose(pts[1], (0.05, 0, 0))  # corner (0, 1) -> (c*s, r*s, 0)
    assert np.allclose(pts[4], (0, 0.05, 0))
    assert np.all(pts[:, 2] == 0)


def test_board_rejects_small_grid():
    with pytest.raises(dc.CalibrationError):
        dc.BoardSpec(rows=2, cols=8, square_size=0.1)


@pytest.mark.parametrize("rows, cols, name", [
    pytest.param(np.nan, 3, "rows", id="nan"),
    pytest.param(3.5, 3, "rows", id="fractional"),
    pytest.param(6.0, 3, "rows", id="float"),
    pytest.param("6", 3, "rows", id="text"),
    pytest.param(3, 4.0, "cols", id="float-cols"),
])
def test_board_rejects_a_grid_that_is_not_integer(rows, cols, name):
    # rejected here, not by corners_3d with a numpy error
    with pytest.raises(dc.CalibrationError, match=f"{name} must be an integer"):
        dc.BoardSpec(rows, cols, 0.1)
    assert dc.BoardSpec(np.int64(4), 3, 0.1).corners_3d().shape == (12, 3)


@pytest.mark.parametrize("square", [np.nan, np.inf, 0.0, -0.1])
def test_board_rejects_a_square_size_that_is_not_positive_and_finite(square):
    with pytest.raises(dc.CalibrationError, match="square size"):
        dc.BoardSpec(3, 3, square)


@pytest.mark.parametrize("square", ["0.1", None])
def test_board_rejects_a_square_size_that_is_not_a_number(square):
    # rejected by name, not by a comparison's bare TypeError
    with pytest.raises(dc.CalibrationError,
                       match=re.escape(f"square_size must be a number, got {square!r}")):
        dc.BoardSpec(6, 8, square)


def test_frame_rejects_incomplete_corners():
    depth = dc.DepthImage(4, 4, np.ones((4, 4)))
    corners = np.full((3, 4, 2), np.nan)
    with pytest.raises(dc.CalibrationError):
        dc.Frame("x", depth, corners)


@pytest.mark.parametrize("name", ["chi", "psi", "degree", "min_inliers", "fit_radius"])
def test_config_rejects_nan(name):
    # NaN fails every comparison, so a `<= 0` check lets it through
    with pytest.raises(dc.CalibrationError, match=f"{name} must be positive, got nan"):
        small_cfg(**{name: float("nan")})


@pytest.mark.parametrize("name, value", [
    ("chi", 2.5), ("psi", 4.0), ("degree", 2.5), ("min_inliers", 50.5), ("seed", 1.5),
])
def test_config_rejects_a_count_that_is_not_integer(name, value):
    # rejected here, not by UndistortionMap.identity or default_rng
    with pytest.raises(dc.CalibrationError, match=f"{name} must be an integer, got {value}"):
        small_cfg(**{name: value})
    small_cfg(**{name: np.int64(2)})


@pytest.mark.parametrize("name, value", [
    ("chi", "4"), ("fit_radius", "1"), ("seed", None), ("degree", [2]),
])
def test_config_rejects_a_setting_that_is_not_a_number(name, value):
    # rejected by name, not by a comparison's bare TypeError
    with pytest.raises(dc.CalibrationError,
                       match=re.escape(f"{name} must be a number, got {value!r}")):
        small_cfg(**{name: value})


@pytest.mark.parametrize("seed", [-1, float("nan")])
def test_config_rejects_a_negative_seed(seed):
    with pytest.raises(dc.CalibrationError, match=f"seed must not be negative, got {seed}"):
        small_cfg(seed=seed)


def test_config_rejects_a_degree_the_maps_cannot_hold():
    # rejected here, not by the map after every frame's PnP
    small_cfg(degree=MAX_DEGREE)
    with pytest.raises(dc.CalibrationError, match="degree must be at most 4, got 9"):
        small_cfg(degree=9)


# ---------------------------------------------------------------------------
# sort_frames_by_distance


def test_sort_orders_by_board_distance(clean_scene):
    scene, frames = clean_scene
    train = [f for f in frames if not f.is_test]
    ordered = dc.sort_frames_by_distance([f.frame for f in train],
                                         scene.intr_rgb, scene.board)
    dists = {f.frame.frame_id: f.wall_distance for f in train}
    got = [dists[f.frame_id] for f, _ in ordered]
    assert got == sorted(got)
    for frame, pose in ordered:
        assert pose == board_pose(scene, frame)


def test_sort_is_stable_for_equal_distances(clean_scene):
    scene, frames = clean_scene
    f = frames[0].frame
    twins = [dc.Frame("a", f.depth, f.corners), dc.Frame("b", f.depth, f.corners),
             dc.Frame("c", f.depth, f.corners)]
    ordered = dc.sort_frames_by_distance(twins, scene.intr_rgb, scene.board)
    assert [fr.frame_id for fr, _ in ordered] == ["a", "b", "c"]


def test_sort_drops_frames_with_garbage_corners(clean_scene):
    scene, frames = clean_scene
    good = frames[0].frame
    corners = good.corners.copy()
    corners[:] = 1.0  # all corners collapsed: homography is degenerate
    bad = dc.Frame("bad", good.depth, corners)
    ordered = dc.sort_frames_by_distance([good, bad], scene.intr_rgb,
                                         scene.board)
    assert [f.frame_id for f, _ in ordered] == [good.frame_id]


# ---------------------------------------------------------------------------
# undistorted_points


def test_undistorted_points_are_the_undistorted_cloud_at_its_valid_pixels():
    intr = dc.CameraIntrinsics(fx=61.0, fy=63.0, cx=19.3, cy=14.6, width=40,
                               height=30)
    rng = np.random.default_rng(5)
    umap = dc.UndistortionMap.identity(40, 30, 4, 4, 2)
    coeffs = umap.coefficients.copy()
    coeffs[:, :, 0] = rng.normal(0.0, 0.01, coeffs.shape[:2])
    coeffs[:, :, 2] = rng.normal(0.0, 2e-3, coeffs.shape[:2])
    coeffs[2:5, 3:7] = (1.5, -0.5, 0.0)  # u(d) = 1.5 - d / 2: <= 0 beyond 3 m
    umap = umap.with_coefficients(coeffs)
    data = rng.uniform(0.8, 4.0, (30, 40))
    data[rng.random((30, 40)) < 0.1] = 0.0
    img = dc.DepthImage(40, 30, data)
    undistorted = dc.apply_undistortion(umap, img)
    dropped = img.valid & ~undistorted.valid
    assert dropped.sum() > 5 and (~img.valid).sum() > 50
    # a wall subset that holds invalid pixels and pixels where u(d) <= 0
    wall = rng.random((30, 40)) < 0.6
    assert (wall & dropped).sum() > 2 and (wall & ~img.valid).sum() > 20
    corrected = dc.apply_calibration(umap, dc.GlobalMap.identity(40, 30), img, intr)

    for pixels in (img.valid, wall):
        kept, points = undistorted_points(umap, img, pixels, intr)
        # exactly the pixels apply_undistortion invalidates are dropped
        assert np.array_equal(kept, pixels & undistorted.valid)
        expect = dc.depth_to_cloud(undistorted, intr).points_at(kept)
        assert points.shape == expect.shape
        assert points.tobytes() == expect.tobytes()
        # the correction kernel's points under an identity G
        assert points.tobytes() == corrected.points_at(kept).tobytes()
    wide = dc.CameraIntrinsics(fx=61.0, fy=63.0, cx=19.3, cy=14.6, width=41,
                               height=30)
    with pytest.raises(dc.GeometryError, match="does not match intrinsics"):
        undistorted_points(umap, img, img.valid, wide)
    short = dc.UndistortionMap.identity(40, 29, 4, 4, 2)
    with pytest.raises(dc.MapError, match="does not match the map"):
        undistorted_points(short, img, img.valid, intr)


# ---------------------------------------------------------------------------
# select_wall_points


def test_select_wall_points_takes_whole_wall_when_undistorted(clean_scene):
    scene, frames = clean_scene
    lf = frames[0]
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    # undo the distortion with the oracle, then selection must keep every wall pixel
    uu, vv = np.meshgrid(np.arange(160.0), np.arange(120.0))
    fixed = scene.distortion.correct_exact(uu, vv, lf.frame.depth.data)
    fixed_cloud = dc.depth_to_cloud(
        dc.DepthImage(160, 120, np.where(lf.frame.depth.valid, fixed, 0.0)),
        scene.intr_depth)
    wall = dc.select_wall_points(fixed_cloud.points[fixed_cloud.valid],
                                 fixed_cloud.valid, board_pose(scene, lf.frame), T0,
                                 scene.board, small_cfg(), np.random.default_rng(0))
    assert len(wall) == int((lf.labels == sb.LABEL_WALL).sum())


def test_select_wall_points_excludes_floor():
    scene = small_scene(floor=0.8, n_train=4, n_test=3, seed=9, peak=0.0)
    # far fronto-parallel view shows plenty of floor
    lf = sb.render_frame(scene, scene.n_frames - 1)
    assert (lf.labels == sb.LABEL_FLOOR).any()
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    wall = dc.select_wall_points(cloud.points[cloud.valid], cloud.valid,
                                 board_pose(scene, lf.frame), scene.true_extrinsic,
                                 scene.board, small_cfg(), np.random.default_rng(0))
    assert wall.size > 0
    assert np.all(lf.labels.reshape(-1)[wall] == sb.LABEL_WALL)


def test_select_wall_points_empty_image_errors(clean_scene):
    scene, frames = clean_scene
    empty = dc.DepthImage(160, 120, np.zeros((120, 160)))
    pixels, points = undistorted_points(
        dc.UndistortionMap.identity(160, 120, 2, 2, 2), empty, empty.valid,
        scene.intr_depth)
    assert points.shape == (0, 3) and not pixels.any()
    with pytest.raises(dc.CalibrationError, match="not enough"):
        dc.select_wall_points(points, pixels, board_pose(scene, frames[0].frame), T0,
                              scene.board, small_cfg(), np.random.default_rng(0))


def test_select_wall_points_needs_one_point_per_pixel(clean_scene):
    scene, frames = clean_scene
    cloud = dc.depth_to_cloud(frames[0].frame.depth, scene.intr_depth)
    with pytest.raises(dc.CalibrationError, match="one point per pixel"):
        dc.select_wall_points(cloud.points[cloud.valid][1:], cloud.valid,
                              board_pose(scene, frames[0].frame), T0, scene.board,
                              small_cfg(), np.random.default_rng(0))


def ransac_frame(case):
    """(points, pixels, pose, t0, board) of one frame: `clean` sees only the
    undistorted wall, `noisy` a noisy distorted wall, `floor` a wall above
    a floor."""
    if case == "clean":
        scene = small_scene(peak=0.0, seed=4, n_train=4)
    elif case == "noisy":
        scene = small_scene(noise=True, seed=6, n_train=4)
    else:
        scene = small_scene(floor=0.8, n_train=4, n_test=3, seed=9, peak=0.0)
    lf = sb.render_frame(scene, scene.n_train - 1)  # the farthest training pose
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    return (cloud.points[cloud.valid], cloud.valid, board_pose(scene, lf.frame),
            scene.true_extrinsic, scene.board)


@pytest.mark.parametrize("case", ["clean", "noisy", "floor"])
def test_select_wall_points_matches_scoring_every_candidate(case):
    points, pixels, pose, t0, board = ransac_frame(case)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        wall = dc.select_wall_points(points, pixels, pose, t0, board, small_cfg(), rng)
        want = one_by_one_wall_points(points, pixels, pose, t0, board, small_cfg(),
                                      ref_rng)
        assert np.array_equal(wall, want)
        # one draw of every sample leaves the generator where 50 draws of 3 do
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if case == "clean":  # the best candidate counts every point
            assert len(wall) == points.shape[0]
        else:  # candidates lose part-way
            assert len(wall) < points.shape[0]


def test_a_tied_candidate_does_not_take_the_win():
    # two fronto-parallel planes 0.1 m apart, 600 pixels each: a sample from
    # one half counts that half exactly, so later samples of the other tie
    intr = dc.CameraIntrinsics(fx=40.0, fy=40.0, cx=19.5, cy=14.5, width=40, height=30)
    data = np.full((30, 40), 2.0)
    data[15:] = 2.1
    cloud = dc.depth_to_cloud(dc.DepthImage(40, 30, data), intr)
    points = cloud.points.reshape(-1, 3)
    pixels = np.ones((30, 40), dtype=bool)
    pose = dc.RigidTransform((1, 0, 0, 0), (0.0, 0.0, 2.05))  # seed between them
    t0 = dc.RigidTransform.identity()
    board = dc.BoardSpec(3, 3, 0.1)
    cfg = small_cfg()

    def halves(seed):
        """The half of each draw of 3 points that lie in one half, in order."""
        draws = np.random.default_rng(seed).integers(0, 1200, size=(50, 3))
        return [int(d[0] >= 600) for d in draws if len(set(d // 600)) == 1]

    seed = next(k for k in range(100) if len(set(halves(k))) == 2)
    first = halves(seed)[0]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    wall = dc.select_wall_points(points, pixels, pose, t0, board, cfg, rng)
    assert np.array_equal(wall, np.arange(600) + 600 * first)
    assert np.array_equal(wall, one_by_one_wall_points(points, pixels, pose, t0, board,
                                                       cfg, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_no_candidate_is_formed_once_the_seed_counts_every_point(monkeypatch):
    # one fronto-parallel plane at the board's depth: the seed plane counts
    # every point, so no candidate can win
    intr = dc.CameraIntrinsics(fx=40.0, fy=40.0, cx=19.5, cy=14.5, width=40, height=30)
    cloud = dc.depth_to_cloud(dc.DepthImage(40, 30, np.full((30, 40), 2.0)), intr)
    points = cloud.points.reshape(-1, 3)
    pixels = np.ones((30, 40), dtype=bool)
    pose = dc.RigidTransform((1, 0, 0, 0), (0.0, 0.0, 2.0))
    args = (points, pixels, pose, dc.RigidTransform.identity(), dc.BoardSpec(3, 3, 0.1),
            small_cfg())
    calls = []

    def counting_plane_through(pts):
        calls.append(pts)
        return plane_through(pts)

    monkeypatch.setattr(dc.calib_undistort, "plane_through", counting_plane_through)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    wall = dc.select_wall_points(*args, rng)
    assert calls == []
    assert np.array_equal(wall, np.arange(1200))
    assert np.array_equal(wall, one_by_one_wall_points(*args, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 1000, SCORE_CHUNK, SCORE_CHUNK + 1, SCORE_CHUNK + 2,
                               2 * SCORE_CHUNK + 1, 76800, 76801])
def test_chunked_signed_distance_gives_the_whole_array_bits(n):
    # a 1-row product is a dot product whose bits can differ, so no chunk
    # holds one row
    chunks = _chunk_bounds(n)
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert all(stop - start >= 2 for start, stop in chunks)
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 3)) * (0.5, 0.4, 1.0) + (0.0, 0.0, 2.5)
    for _ in range(5):
        plane = dc.Plane(rng.normal(size=3), rng.uniform(0.5, 4.0))
        whole = plane.signed_distance(points)
        out = np.empty(n)
        for start, stop in chunks:
            d = out[start:stop]
            np.matmul(points[start:stop], plane.normal, out=d)
            d -= plane.offset
        assert out.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# fit_reference_plane


def test_fit_reference_plane_matches_restricted_fit(clean_scene):
    # the mean of the integer pixel coordinates has the bits of the float mean
    scene, frames = clean_scene
    lf = frames[0]
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    for wall in (lf.labels == sb.LABEL_WALL,
                 (lf.labels == sb.LABEL_WALL) & (rng.random((120, 160)) < 0.7)):
        plane = dc.fit_reference_plane(cloud.points[wall], wall, cfg)
        v, u = np.nonzero(wall)
        uv = np.column_stack([u, v]).astype(float)
        centroid = uv.mean(axis=0)
        keep = np.hypot(*(uv - centroid).T) <= cfg.fit_radius
        assert 3 <= np.count_nonzero(keep) < len(uv)
        assert plane == dc.fit_plane(cloud.points[v[keep], u[keep]])


def test_fit_reference_plane_box_matches_full_scan(clean_scene):
    # the box around the centroid holds every pixel the full scan keeps
    scene, frames = clean_scene
    cloud = dc.depth_to_cloud(frames[0].frame.depth, scene.intr_depth)
    rng = np.random.default_rng(5)
    u, v = np.meshgrid(np.arange(160), np.arange(120))
    walls = [rng.random((120, 160)) < 0.3,
             (u < 30) & (v > 80),  # a corner: the box is cut by the image edge
             (u >= 150) | (v < 4),
             ((u == 20) | (u == 60)) & (v >= 30) & (v < 90)]  # pixels at exactly r
    for wall in walls:
        for radius in (1.0, 7.5, 20.0, 40.0, 1e6, np.inf):
            cfg = small_cfg(fit_radius=radius)
            points = cloud.points[wall]
            try:
                expected = fit_reference_plane_scanned(points, wall, cfg)
            except dc.CalibrationError as exc:
                with pytest.raises(dc.CalibrationError, match=str(exc)):
                    dc.fit_reference_plane(points, wall, cfg)
                continue
            plane = dc.fit_reference_plane(points, wall, cfg)
            assert plane.normal.tobytes() == expected.normal.tobytes()
            assert plane.offset == expected.offset


def test_fit_reference_plane_needs_one_point_per_wall_pixel(clean_scene):
    scene, frames = clean_scene
    lf = frames[0]
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    wall = lf.labels == sb.LABEL_WALL
    with pytest.raises(dc.CalibrationError, match="one point per wall pixel"):
        dc.fit_reference_plane(cloud.points[wall][:-1], wall, small_cfg())


def test_fit_reference_plane_huge_radius_is_unrestricted(clean_scene):
    scene, frames = clean_scene
    lf = frames[0]
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    wall = lf.labels == sb.LABEL_WALL
    plane = dc.fit_reference_plane(cloud.points[wall], wall,
                                   small_cfg(fit_radius=10000))
    expected = dc.fit_plane(cloud.points[wall])
    assert np.allclose(plane.normal, expected.normal, atol=1e-12)


def test_fit_reference_plane_depth_within_distorted_bounds(clean_scene):
    scene, frames = clean_scene
    # farthest training frame has the strongest bowl
    far = max((f for f in frames if not f.is_test), key=lambda f: f.wall_distance)
    cloud = dc.depth_to_cloud(far.frame.depth, scene.intr_depth)
    wall = far.labels == sb.LABEL_WALL
    plane = dc.fit_reference_plane(cloud.points[wall], wall, small_cfg())
    depth_at_axis = plane.offset / plane.normal[2]
    z = cloud.points[wall][:, 2]
    assert z.min() <= depth_at_axis <= z.max()


def test_fit_reference_plane_empty_inliers(clean_scene):
    scene, frames = clean_scene
    with pytest.raises(dc.CalibrationError):
        dc.fit_reference_plane(np.empty((0, 3)), np.zeros((120, 160), dtype=bool),
                               small_cfg())


# ---------------------------------------------------------------------------
# update_map


def frame_pieces(scene, lf):
    cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
    return cloud, lf.labels == sb.LABEL_WALL


def test_update_map_identity_when_points_on_plane():
    # an exact plane cloud: every sample pair has z_pi == z
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    scene_plane = dc.Plane((0, 0, 1.0), 2.0)
    img = dc.DepthImage(32, 24, np.full((24, 32), 2.0))
    cloud = dc.depth_to_cloud(img, intr)
    wall = cloud.valid
    umap = dc.UndistortionMap.identity(32, 24, 4, 4, 2)
    moments = dc.FitMoments(umap.grid_shape, 2)
    for plane_depth in (2.0, 2.5, 3.5):
        img = dc.DepthImage(32, 24, np.full((24, 32), plane_depth))
        cloud = dc.depth_to_cloud(img, intr)
        umap = dc.update_map(umap, moments, cloud.points[wall], wall,
                             dc.Plane((0, 0, 1.0), plane_depth))
    del scene_plane
    z = np.linspace(2.0, 3.5, 7)
    for (i, j) in [(0, 0), (4, 3), (8, 6)]:
        assert np.allclose(horner(umap.coefficients[j, i], z), z, atol=1e-9)


def test_update_map_weighted_mean_matches_oracle(clean_scene):
    scene, frames = clean_scene
    lf = frames[0]
    cloud, wall = frame_pieces(scene, lf)
    cfg = small_cfg()
    plane = dc.fit_reference_plane(cloud.points[wall], wall, cfg)
    umap = dc.UndistortionMap.identity(160, 120, cfg.chi, cfg.psi, cfg.degree)
    moments = dc.FitMoments(umap.grid_shape, cfg.degree)
    dc.update_map(umap, moments, cloud.points[wall], wall, plane)

    # independent recomputation of the aggregated sample of one control pixel
    target = (20, 15)  # grid column, row -> pixel (40, 30)
    w_sum = z_sum = zpi_sum = 0.0
    for v, u in zip(*np.nonzero(wall)):
        i0, j0 = u // cfg.chi, v // cfg.psi
        for dj in (0, 1):
            for di in (0, 1):
                if (i0 + di, j0 + dj) != target:
                    continue
                s, t = (i0 + di) * cfg.chi, (j0 + dj) * cfg.psi
                w = (1 - abs(u - s) / cfg.chi) * (1 - abs(v - t) / cfg.psi)
                p = cloud.points[v, u]
                z_pi = plane.offset * p[2] / (p @ plane.normal)
                w_sum += w
                z_sum += w * p[2]
                zpi_sum += w * z_pi
    # the frame's one sample is the weighted mean, held as its moments
    i, j = target
    z_bar, z_pi_bar = z_sum / w_sum, zpi_sum / w_sum
    w = 1.0 / horner(dc.KINECT1_QUANTIZATION, z_bar) ** 2
    assert moments.count[j, i] == 1
    assert moments.zmin[j, i] == pytest.approx(z_bar, abs=1e-12)
    assert moments.zmax[j, i] == moments.zmin[j, i]
    assert np.allclose(moments.zpow[j, i], w * z_bar ** np.arange(5), rtol=1e-12)
    assert np.allclose(moments.zpi[j, i], w * z_pi_bar * z_bar ** np.arange(3),
                       rtol=1e-12)


def test_update_map_single_inlier_weight_structure():
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    img_data = np.zeros((24, 32))
    img_data[8, 8] = 2.0  # exactly on control pixel (2, 2) for 4x4 bins
    cloud = dc.depth_to_cloud(dc.DepthImage(32, 24, img_data), intr)
    wall = np.zeros((24, 32), dtype=bool)
    wall[8, 8] = True
    umap = dc.UndistortionMap.identity(32, 24, 4, 4, 2)
    moments = dc.FitMoments(umap.grid_shape, 2)
    dc.update_map(umap, moments, cloud.points[wall], wall,
                  dc.Plane((0, 0, 1.0), 2.0))
    assert moments.count[2, 2] == 1  # weight-1 sample at its own control pixel
    assert moments.zmin[2, 2] == moments.zmax[2, 2] == 2.0
    # stencil mates got only zero-weight contributions: no sample added
    assert moments.count[2, 3] == 0
    assert moments.count[3, 2] == 0
    assert moments.count.sum() == 1
    untouched = np.ones(moments.count.shape, dtype=bool)
    untouched[2, 2] = False
    assert np.all(moments.zpow[untouched] == 0.0)
    assert np.all(moments.zpi[untouched] == 0.0)


def test_update_map_leaves_unsampled_controls_alone(clean_scene):
    scene, frames = clean_scene
    lf = frames[0]
    cloud, _ = frame_pieces(scene, lf)
    # restrict inliers to the top-left quadrant
    mask = np.zeros((120, 160), dtype=bool)
    mask[:40, :40] = lf.labels[:40, :40] == sb.LABEL_WALL
    cfg = small_cfg()
    plane = dc.fit_reference_plane(cloud.points[mask], mask,
                                   small_cfg(fit_radius=10000))
    rng = np.random.default_rng(2)
    start = dc.UndistortionMap.identity(160, 120, cfg.chi, cfg.psi, cfg.degree)
    noisy_coeffs = start.coefficients + rng.normal(0, 0.01, start.coefficients.shape)
    start = start.with_coefficients(noisy_coeffs)
    moments = dc.FitMoments(start.grid_shape, cfg.degree)
    updated = dc.update_map(start, moments, cloud.points[mask], mask, plane)
    untouched = updated.coefficients[:, 30:]  # far right columns saw no inlier
    assert np.array_equal(untouched, start.coefficients[:, 30:])
    assert np.all(moments.count[:, 30:] == 0)
    assert np.all(moments.zpow[:, 30:] == 0.0)


def test_update_map_partial_wall_matches_gathered_form():
    # walls over parts of the grid, nearest last: at the last frame some
    # control pixels have no sample, some have too narrow a spread for
    # degree 2 and fall back to a line, some hold one sample and stay
    # deferred, and the rest fit degree 2
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    u, v = np.meshgrid(np.arange(32.0), np.arange(24.0))
    normal = np.array([0.05, -0.03, 1.0]) / np.linalg.norm([0.05, -0.03, 1.0])
    rays = normal[0] * (u - 16) / 40 + normal[1] * (v - 12) / 40 + normal[2]
    umap = dc.UndistortionMap.identity(32, 24, 4, 4, 2)
    ref_map = umap
    moments = dc.FitMoments(umap.grid_shape, 2)
    ref_moments = dc.FitMoments(umap.grid_shape, 2)
    for offset, wall in ((2.6, u < 12), (1.9, (u < 12) & (v < 12)), (1.0, u < 20),
                         (1.2, u < 28)):
        plane = dc.Plane(normal, offset)
        bowl = 1.0 + 0.01 * ((u - 16) / 16) ** 2 + 0.004 * offset * ((v - 12) / 12) ** 2
        img = dc.DepthImage(32, 24, offset / rays * bowl)
        points = dc.depth_to_cloud(img, intr).points[wall]
        umap = dc.update_map(umap, moments, points, wall, plane)
        ref_map = update_map_gathered(ref_map, ref_moments, points, wall, plane)
        assert umap.coefficients.tobytes() == ref_map.coefficients.tobytes()
        for name in ("zpow", "zpi", "count", "zmin", "zmax"):
            assert getattr(moments, name).tobytes() == getattr(ref_moments, name).tobytes()
    count = moments.count
    spread = moments.zmax - moments.zmin
    assert np.any(count == 0)
    assert np.any(count == 1)
    line = (count >= 2) & (spread >= dc.calib_undistort.MIN_SPREAD_LINEAR) \
        & (spread < dc.calib_undistort.MIN_SPREAD_SUPERLINEAR)
    assert np.any(line) and np.all(umap.coefficients[line][:, 2] == 0.0)
    quadratic = (count >= 3) & (spread >= dc.calib_undistort.MIN_SPREAD_SUPERLINEAR)
    assert np.any(quadratic) and np.all(umap.coefficients[quadratic][:, 2] != 0.0)
    identity = dc.UndistortionMap.identity(32, 24, 4, 4, 2).coefficients
    assert np.array_equal(umap.coefficients[count <= 1], identity[count <= 1])


# ---------------------------------------------------------------------------
# estimate_undistortion_map


def test_estimate_identity_for_undistorted_data():
    scene = small_scene(peak=0.0, seed=4)
    frames = [sb.render_frame(scene, k) for k in range(scene.n_frames)]
    umap, inliers, poses = dc.estimate_undistortion_map(
        [f.frame for f in frames if not f.is_test], T0, scene.intr_rgb,
        scene.intr_depth, scene.board, small_cfg())
    assert len(inliers) == scene.n_train
    assert poses.keys() == inliers.keys()
    z = np.linspace(1.0, 4.0, 13)
    gh, gw = umap.grid_shape
    for j in range(0, gh, 7):
        for i in range(0, gw, 9):
            assert np.max(np.abs(horner(umap.coefficients[j, i], z) - z)) < 1e-4


def test_estimate_recovers_injected_field(clean_scene):
    scene, frames = clean_scene
    umap, _, _ = dc.estimate_undistortion_map(
        [f.frame for f in frames if not f.is_test], T0, scene.intr_rgb,
        scene.intr_depth, scene.board, small_cfg())
    # compare as functions at probe depths; the common depth-dependent shift
    # (reference-plane bias) is stage two's job, so remove the mean per depth
    inj = scene.distortion.undistortion_field
    uu, vv = np.meshgrid(np.arange(0.0, 160.0, 8), np.arange(0.0, 120.0, 8))
    for z in (1.5, 2.5, 3.5):
        rec = np.zeros_like(uu)
        tru = np.zeros_like(uu)
        rc = umap.pixel_coefficients(uu, vv)
        tc = inj.pixel_coefficients(uu, vv)
        for k in range(3):
            rec += rc[:, :, k] * z ** k
            tru += tc[:, :, k] * z ** k
        diff = rec - tru
        diff -= diff.mean()
        assert np.max(np.abs(diff)) < 1.5e-3


def test_estimate_matches_the_whole_frame_oracle():
    scene = small_scene(noise=True, seed=6)
    train = [sb.render_frame(scene, k).frame for k in range(scene.n_train)]
    args = (train, T0, scene.intr_rgb, scene.intr_depth, scene.board,
            small_cfg(seed=5))
    umap, walls, poses = dc.estimate_undistortion_map(*args)
    ref_umap, ref_walls, ref_poses = whole_frame_stage_one(*args)
    assert umap.coefficients[:, :, 2].any()  # U is not the identity
    assert umap.coefficients.tobytes() == ref_umap.coefficients.tobytes()
    assert list(walls) == list(ref_walls) and len(walls) == scene.n_train
    for fid, wall in walls.items():
        assert np.array_equal(wall, ref_walls[fid])
        assert poses[fid] == ref_poses[fid]
    assert list(poses) == list(ref_poses)


def test_estimate_requires_enough_frames(clean_scene):
    scene, frames = clean_scene
    with pytest.raises(dc.CalibrationError):
        dc.estimate_undistortion_map([frames[0].frame], T0, scene.intr_rgb,
                                     scene.intr_depth, scene.board, small_cfg())


@pytest.mark.parametrize("entry", ["estimate_undistortion_map", "calibrate"])
def test_a_frame_id_given_twice_is_rejected_before_pnp(clean_scene, monkeypatch, entry):
    # stage one keys walls and board poses by id, so a repeated id would
    # read one frame with the other's wall and pose
    scene, frames = clean_scene
    train = [f.frame for f in frames if not f.is_test]
    twin = dc.Frame(train[2].frame_id, train[3].depth, train[3].corners)
    train = train[:3] + [twin] + train[4:]
    pnp_calls = []

    def counted_pnp(*args):
        pnp_calls.append(args)
        return solve_pnp(*args)

    monkeypatch.setattr("depthcal.calib_undistort.solve_pnp", counted_pnp)
    with pytest.raises(dc.CalibrationError, match=repr(train[2].frame_id)):
        getattr(dc, entry)(train, T0, scene.intr_rgb, scene.intr_depth,
                           scene.board, small_cfg())
    assert not pnp_calls


def test_estimate_single_distance_leaves_identity():
    # all frames at one distance: curvature is never determined, the identity
    # fallback stays in place per the update policy
    scene = small_scene(peak=0.0, seed=8)
    base = sb.render_frame(scene, 0)
    frames = [dc.Frame(f"f{k}", base.frame.depth, base.frame.corners)
              for k in range(4)]
    umap, _, _ = dc.estimate_undistortion_map(frames, T0, scene.intr_rgb,
                                              scene.intr_depth, scene.board,
                                              small_cfg())
    gh, gw = umap.grid_shape
    ident = dc.UndistortionMap.identity(160, 120, 2, 2, 2)
    # quadratic terms were never unlocked
    assert np.array_equal(umap.coefficients[:, :, 2],
                          ident.coefficients[:, :, 2])


def test_estimate_is_deterministic(clean_scene):
    scene, frames = clean_scene
    train = [f.frame for f in frames if not f.is_test]
    a, _, _ = dc.estimate_undistortion_map(train, T0, scene.intr_rgb,
                                           scene.intr_depth, scene.board,
                                           small_cfg(seed=77))
    b, _, _ = dc.estimate_undistortion_map(train, T0, scene.intr_rgb,
                                           scene.intr_depth, scene.board,
                                           small_cfg(seed=77))
    assert np.array_equal(a.coefficients, b.coefficients)
