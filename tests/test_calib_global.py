import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import depthcal as dc
from depthcal import synthbench as sb
import depthcal.calib_global as cg
import depthcal.pipeline as pl
from depthcal.calib_global import (
    SIGMA_C,
    _BEHIND_PENALTY,
    FrameObservations,
    _RefineProblem,
    _board_planes_depth,
)
from depthcal.calib_undistort import undistorted_points
from depthcal.geometry import (
    axis_angle_to_quat,
    horner,
    lm_jacobian,
    quat_multiply,
    quat_to_matrix,
)
from depthcal.maps import PolyFn
from oracles import (
    board_plane_depth,
    global_correct,
    global_eval,
    normal_equations_by_residual,
    orth_project,
    residual_pos,
    residual_repr,
)


T0 = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))


def stage_two_inputs(scene, frames):
    """Ground-truth-undistorted wall points and the (u, v) of the wall
    inliers, row-major, per training frame."""
    walls, inliers, corners, ids = [], [], [], []
    uu, vv = np.meshgrid(np.arange(float(scene.intr_depth.width)),
                         np.arange(float(scene.intr_depth.height)))
    for lf in frames:
        if lf.is_test:
            continue
        fixed = scene.distortion.undistortion_field.pixel_coefficients(uu, vv)
        d = lf.frame.depth.data
        dhat = fixed[:, :, 0] + fixed[:, :, 1] * d + fixed[:, :, 2] * d * d
        img = dc.DepthImage(scene.intr_depth.width, scene.intr_depth.height,
                            np.where(lf.frame.depth.valid, dhat, 0.0))
        wall = lf.labels == sb.LABEL_WALL
        walls.append(dc.depth_to_cloud(img, scene.intr_depth).points_at(wall))
        v, u = np.nonzero(wall)
        inliers.append(np.column_stack([u, v]))
        corners.append(lf.frame.corner_points)
        ids.append(lf.frame.frame_id)
    return walls, inliers, corners, ids


def pnp_poses(scene, corners):
    return [dc.solve_pnp(scene.board.corners_3d(), c, scene.intr_rgb)[0]
            for c in corners]


def observations_from(walls, inliers, corners, ids, cap=150):
    obs = []
    for points, uv, crn, fid in zip(walls, inliers, corners, ids):
        take = np.unique(np.linspace(0, len(uv) - 1, cap).astype(int))
        obs.append(FrameObservations(fid, np.asarray(crn), uv[take],
                                     points[take, 2]))
    return obs


def init_global_on_truth(scene, frames, n_frames=None):
    """init_global on the first `n_frames` training frames, with their
    labelled wall masks, PnP poses and the injected U."""
    train = [lf for lf in frames if not lf.is_test][:n_frames]
    poses = pnp_poses(scene, [lf.frame.corner_points for lf in train])
    return dc.init_global(
        [lf.frame for lf in train],
        {lf.frame.frame_id: lf.labels == sb.LABEL_WALL for lf in train},
        {lf.frame.frame_id: pose for lf, pose in zip(train, poses)},
        scene.distortion.undistortion_field, scene.intr_depth, scene.board, 150)


def stage_one_walls(scene, train):
    """Stage one on every training frame: (umap, wall masks, board poses),
    the two dicts keyed by frame id."""
    ucfg = dc.UndistortConfig(chi=2, psi=2, degree=2, seed=1, min_inliers=50,
                              fit_radius=24)
    umap, walls, poses = dc.estimate_undistortion_map(
        train, T0, scene.intr_rgb, scene.intr_depth, scene.board, ucfg)
    assert len(walls) == len(train)
    return umap, walls, poses


def scene_no_bias(**kw):
    params = dict(n_train=8, n_test=2, seed=13, noise=False, width=80, height=60,
                  tilt_deg=15.0,
                  distortion=sb.bowl_distortion(80, 60, peak=0.015, grid_bin=(2, 2)))
    params.update(kw)
    return sb.standard_scene(**params)


@pytest.fixture(scope="module")
def clean_setup():
    scene = scene_no_bias()
    frames = [sb.render_frame(scene, k) for k in range(scene.n_frames)]
    return scene, frames, stage_two_inputs(scene, frames)


# ---------------------------------------------------------------------------
# init_global


def test_init_global_zero_error_recovers_extrinsic(clean_setup):
    scene, frames, _ = clean_setup
    extr, _ = init_global_on_truth(scene, frames)
    te = scene.true_extrinsic
    assert np.linalg.norm(extr.translation - te.translation) < 1e-3
    assert np.degrees(extr.compose(te.inverse()).rotation_angle()) < 0.05


def test_init_global_needs_three_frames(clean_setup):
    scene, frames, _ = clean_setup
    with pytest.raises(dc.CalibrationError):
        init_global_on_truth(scene, frames, n_frames=2)


@pytest.mark.parametrize("failing_call", [0, 1, 4, 5])
def test_init_global_raises_on_failed_plane_fit(clean_setup, monkeypatch,
                                                failing_call):
    # fit_plane runs once per frame, on its wall: call k fits frame k's wall
    # plane (the board planes come from the poses)
    scene, frames, _ = clean_setup
    calls = []

    def failing_fit(points):
        calls.append(1)
        if len(calls) == failing_call + 1:
            raise dc.GeometryError("injected")
        return dc.fit_plane(points)

    monkeypatch.setattr(cg, "fit_plane", failing_fit)
    with pytest.raises(dc.CalibrationError, match=f"frame {failing_call}:"):
        init_global_on_truth(scene, frames)


def test_init_global_fits_one_plane_per_frame(clean_setup, monkeypatch):
    scene, frames, _ = clean_setup
    fitted = []

    def counting_fit(points):
        fitted.append(len(points))
        return dc.fit_plane(points)

    monkeypatch.setattr(cg, "fit_plane", counting_fit)
    init_global_on_truth(scene, frames)
    walls = [np.count_nonzero(lf.labels == sb.LABEL_WALL)
             for lf in frames if not lf.is_test]
    assert fitted == walls


def test_init_global_reads_each_frame_once(clean_setup, monkeypatch):
    # one undistorted_points call per frame, in frame order
    scene, frames, _ = clean_setup
    read = []

    def counting_read(umap, depth, wall, intr):
        read.append(depth)
        return undistorted_points(umap, depth, wall, intr)

    monkeypatch.setattr(cg, "undistorted_points", counting_read)
    obs = init_global_on_truth(scene, frames)[-1]
    train = [lf.frame for lf in frames if not lf.is_test]
    assert len(read) == len(obs) == len(train)
    assert all(d is f.depth for d, f in zip(read, train))


def test_stage_one_and_init_solve_one_pnp_per_frame(clean_setup, monkeypatch):
    import depthcal.calib_global as cg
    import depthcal.calib_undistort as cu

    scene, frames, _ = clean_setup
    calls = []

    def counting_pnp(board_points, image_points, intr):
        calls.append(1)
        return dc.solve_pnp(board_points, image_points, intr)

    for module in (cu, cg):
        if hasattr(module, "solve_pnp"):
            monkeypatch.setattr(module, "solve_pnp", counting_pnp)
    train = [lf.frame for lf in frames if not lf.is_test]
    umap, walls, poses = stage_one_walls(scene, train)
    dc.init_global(train, walls, poses, umap, scene.intr_depth, scene.board, 150)
    assert len(calls) == len(train)


def test_init_global_dhat_is_undistorted_depth(clean_setup):
    # the wall points' z column is the undistorted depth image at the inliers
    scene, frames, _ = clean_setup
    train = [lf.frame for lf in frames if not lf.is_test]
    umap, walls, poses = stage_one_walls(scene, train)
    _, obs = dc.init_global(train, walls, poses, umap, scene.intr_depth,
                            scene.board, max_points=70)
    assert umap.coefficients[:, :, 2].any()  # U is not the identity
    for frame, o in zip(train, obs):
        depth = dc.apply_undistortion(umap, frame.depth).data
        assert 0 < o.uv.shape[0] <= 70
        assert np.array_equal(o.dhat, depth[o.uv[:, 1], o.uv[:, 0]])


def test_wall_points_are_the_undistorted_cloud_at_the_mask():
    # stage two reads a frame at its wall mask with stage one's reader
    intr = dc.CameraIntrinsics(fx=61.0, fy=63.0, cx=19.3, cy=14.6, width=40,
                               height=30)
    rng = np.random.default_rng(17)
    umap = dc.UndistortionMap.identity(40, 30, 4, 4, 2)
    coeffs = umap.coefficients.copy()
    coeffs[:, :, 0] = rng.normal(0.0, 0.01, coeffs.shape[:2])
    coeffs[:, :, 1] += rng.normal(0.0, 0.02, coeffs.shape[:2])
    coeffs[:, :, 2] = rng.normal(0.0, 2e-3, coeffs.shape[:2])
    coeffs[0, 0] = (-5.0, 1.0, 0.0)  # u(d) = d - 5 at pixel (0, 0)
    umap = umap.with_coefficients(coeffs)
    data = rng.uniform(0.8, 4.0, (30, 40))
    data[7, 11] = 0.0
    depth = dc.DepthImage(40, 30, data)
    wall = rng.random((30, 40)) < 0.6
    wall[0, 0] = wall[7, 11] = True
    undistorted = dc.apply_undistortion(umap, depth)
    assert undistorted.data[0, 0] == 0.0  # the final u(d) is <= 0 there

    kept, points = undistorted_points(umap, depth, wall, intr)
    assert np.array_equal(kept, wall & undistorted.valid)
    assert not kept[0, 0] and not kept[7, 11]
    expect = dc.depth_to_cloud(undistorted, intr).points_at(kept)
    assert points.shape == expect.shape
    assert points.tobytes() == expect.tobytes()
    with pytest.raises(dc.GeometryError, match="pixel mask size"):
        undistorted_points(umap, depth, wall[:, :-1], intr)


def test_init_global_drops_wall_pixels_whose_final_depth_is_not_positive(clean_setup):
    # such a pixel would enter the wall-plane fit at (0, 0, 0) and the
    # refinement with dhat = 0, where the noise model's sigma is negative
    scene, frames, _ = clean_setup
    train = [lf.frame for lf in frames if not lf.is_test]
    umap, walls, poses = stage_one_walls(scene, train)
    coeffs = umap.coefficients.copy()
    coeffs[1, 1] = (0.0, -1.0, 0.0)  # u(d) = -d at one control pixel
    umap = umap.with_coefficients(coeffs)
    _, obs = dc.init_global(train, walls, poses, umap, scene.intr_depth,
                            scene.board, max_points=scene.intr_depth.width
                            * scene.intr_depth.height)
    dropped = 0
    for frame, o in zip(train, obs):
        positive = dc.apply_undistortion(umap, frame.depth).valid
        wall = walls[frame.frame_id]
        dropped += np.count_nonzero(wall & ~positive)
        v, u = np.nonzero(wall & positive)
        assert np.array_equal(o.uv, np.column_stack([u, v]))
        assert np.all(o.dhat > 0.0)
    assert dropped > 0


def test_calibrate_starts_the_refinement_at_the_identity_g(clean_setup, monkeypatch):
    scene, frames, _ = clean_setup
    train = [lf.frame for lf in frames if not lf.is_test]
    started = []

    def stop_at_refine(state0, *args):
        started.append(state0)
        raise RuntimeError("stop")

    monkeypatch.setattr(pl, "refine", stop_at_refine)
    with pytest.raises(RuntimeError, match="stop"):
        dc.calibrate(train, T0, scene.intr_rgb, scene.intr_depth, scene.board,
                     dc.UndistortConfig(chi=2, psi=2, degree=2, seed=1,
                                        min_inliers=50, fit_radius=24))
    w, h = scene.intr_depth.width, scene.intr_depth.height
    assert started[0].gmap == dc.GlobalMap.identity(w, h, cg.GMAP_DEGREE)


@pytest.mark.parametrize("count", [0, -1, 0.5, float("nan")])
def test_global_config_needs_a_point_per_frame(count):
    # 0 points would leave stage two with no plane residual
    with pytest.raises(dc.CalibrationError, match="max_points_per_frame must be at least 1"):
        dc.GlobalConfig(max_points_per_frame=count)


@pytest.mark.parametrize("count", [2.5, 1e9 + 0.5])
def test_global_config_needs_an_integer_point_count(count):
    with pytest.raises(dc.CalibrationError, match="max_points_per_frame must be an integer"):
        dc.GlobalConfig(max_points_per_frame=count)
    assert dc.GlobalConfig(max_points_per_frame=np.int64(3)).max_points_per_frame == 3


@pytest.mark.parametrize("count", ["400", None])
def test_global_config_rejects_a_count_that_is_not_a_number(count):
    # rejected by name, not by a comparison's bare TypeError
    with pytest.raises(dc.CalibrationError,
                       match=re.escape(f"max_points_per_frame must be a number, got {count!r}")):
        dc.GlobalConfig(max_points_per_frame=count)


def test_stage_two_peak_stays_below_the_wall_points(monkeypatch):
    # stage two holds one frame's wall points at a time, never every frame's
    scene = scene_no_bias(n_train=16)
    train = [sb.render_frame(scene, k).frame for k in range(scene.n_train)]
    ucfg = dc.UndistortConfig(chi=2, psi=2, degree=2, seed=1, min_inliers=50,
                              fit_radius=24)
    gcfg = dc.GlobalConfig(max_points_per_frame=100)
    # a first run loads the modules numpy imports lazily, whose allocations
    # the traced run would otherwise count
    dc.calibrate(train, T0, scene.intr_rgb, scene.intr_depth, scene.board,
                 ucfg, gcfg)
    stage_one = pl.estimate_undistortion_map
    walls = {}

    def stage_one_then_reset_peak(*args):
        out = stage_one(*args)
        walls.update(out[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(pl, "estimate_undistortion_map", stage_one_then_reset_peak)
    tracemalloc.start()
    try:
        dc.calibrate(train, T0, scene.intr_rgb, scene.intr_depth, scene.board,
                     ucfg, gcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wall_bytes = 24 * sum(np.count_nonzero(w) for w in walls.values())
    assert len(walls) == len(train)
    assert peak < wall_bytes


# ---------------------------------------------------------------------------
# residual_repr


def test_residual_repr_zero_at_truth(clean_setup):
    scene, frames, _ = clean_setup
    lf = frames[0]
    r = residual_repr(lf.true_board_pose, lf.frame.corner_points,
                         scene.intr_rgb, scene.board)
    assert np.max(np.abs(r)) < 1e-9


def test_residual_repr_one_pixel_displacement(clean_setup):
    scene, frames, _ = clean_setup
    lf = frames[0]
    corners = lf.frame.corner_points.copy()
    corners[5, 0] += 1.0
    r = residual_repr(lf.true_board_pose, corners, scene.intr_rgb,
                         scene.board, sigma_c=0.2)
    r = r.reshape(-1, 2)
    assert np.sum(r[5] ** 2) == pytest.approx(25.0, abs=1e-6)


def test_residual_repr_matches_formula_oracle(clean_setup):
    scene, frames, _ = clean_setup
    lf = frames[0]
    rng = np.random.default_rng(3)
    pose = dc.RigidTransform(
        quat_multiply(axis_angle_to_quat(rng.normal(0, 0.01, 3)),
                      lf.true_board_pose.quaternion),
        lf.true_board_pose.translation + rng.normal(0, 0.01, 3))
    r = residual_repr(pose, lf.frame.corner_points, scene.intr_rgb,
                         scene.board, sigma_c=0.2)
    # direct evaluation of the weighted squared reprojection error
    total = 0.0
    for corner3d, measured in zip(scene.board.corners_3d(),
                                  lf.frame.corner_points):
        proj = dc.project_point(scene.intr_rgb, pose.apply(corner3d))
        total += np.sum((proj - measured) ** 2) / 0.2 ** 2
    assert np.sum(r ** 2) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# residual_pos


def test_residual_pos_zero_on_plane(clean_setup):
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids)[0]
    lf = frames[0]
    gmap = dc.GlobalMap.identity(80, 60)
    r = residual_pos(scene.true_extrinsic, lf.true_board_pose, gmap,
                        scene.intr_depth, obs, scene.board)
    # ground-truth state on noiseless data: squared residuals at the noise
    # floor of the arithmetic
    assert np.max(r ** 2) < 1e-16


def test_residual_pos_unit_normalization():
    # one point 1 cm off the plane, sigma_u = 0.01, |I| = 1 -> squared norm 1
    intr = dc.CameraIntrinsics(fx=40, fy=40, cx=16, cy=12, width=32, height=24)
    board = dc.BoardSpec(3, 3, 0.1)
    pose = dc.RigidTransform((1, 0, 0, 0), (-0.1, -0.1, 2.0))
    extr = dc.RigidTransform.identity()
    obs = FrameObservations("x", np.zeros((9, 2)),
                            np.array([[16, 12]]), np.array([2.01]))
    r = residual_pos(extr, pose, dc.GlobalMap.identity(32, 24), intr, obs,
                        board, sigma_u=np.array([0.01]))
    assert np.sum(r ** 2) == pytest.approx(1.0, rel=1e-9)


def test_residual_pos_matches_formula_oracle(clean_setup):
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids)[2]
    lf = frames[2]
    rng = np.random.default_rng(4)
    gmap = dc.GlobalMap(80, 60, *[PolyFn((0.0, 1.0 + e, c), constant_zero=True)
                                  for e, c in rng.normal(0, 0.01, (3, 2))])
    r = residual_pos(scene.true_extrinsic, lf.true_board_pose, gmap,
                        scene.intr_depth, obs, scene.board)
    plane = board_plane_depth(scene.true_extrinsic, lf.true_board_pose,
                               scene.board)
    total = 0.0
    n = obs.uv.shape[0]
    for (u, v), dhat in zip(obs.uv, obs.dhat):
        p = np.array([(u - scene.intr_depth.cx) / scene.intr_depth.fx * dhat,
                      (v - scene.intr_depth.cy) / scene.intr_depth.fy * dhat,
                      dhat])
        corrected = p * global_eval(gmap, u, v, dhat) / dhat
        dist2 = np.sum((orth_project(corrected, plane) - corrected) ** 2)
        total += dist2 / (n * horner(dc.KINECT1_QUANTIZATION, dhat) ** 2)
    assert np.sum(r ** 2) == pytest.approx(total, rel=1e-10)


def test_residual_pos_empty_inliers(clean_setup):
    scene, frames, _ = clean_setup
    obs = FrameObservations("x", np.zeros((4, 2)), np.empty((0, 2), dtype=int),
                            np.empty(0))
    with pytest.raises(dc.CalibrationError):
        residual_pos(scene.true_extrinsic, frames[0].true_board_pose,
                        dc.GlobalMap.identity(80, 60), scene.intr_depth, obs,
                        scene.board)


# ---------------------------------------------------------------------------
# vectorized problem vs reference residuals


def truth_state(scene, frames, ids):
    poses = {lf.frame.frame_id: lf.true_board_pose for lf in frames}
    return dc.RefinementState(
        extrinsic=scene.true_extrinsic,
        board_poses=tuple(poses[i] for i in ids),
        intr_depth=scene.intr_depth,
        gmap=dc.GlobalMap.identity(scene.intr_depth.width,
                                   scene.intr_depth.height))


def test_vectorized_residual_matches_reference(clean_setup):
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids, cap=40)
    state = truth_state(scene, frames, ids)
    problem = _RefineProblem(state, obs, scene.intr_rgb, scene.board)
    x = problem.pack_initial()
    rng = np.random.default_rng(8)
    x = x + rng.normal(0, 1e-3, x.size)
    full = problem.residual(x)
    state_x = problem.unpack(x)
    ref = []  # frame-major: frame k's reprojection rows, then its plane rows
    for k, o in enumerate(obs):
        ref.append(residual_repr(state_x.board_poses[k], o.corners,
                                    scene.intr_rgb, scene.board, SIGMA_C))
        ref.append(residual_pos(state_x.extrinsic, state_x.board_poses[k],
                                   state_x.gmap, state_x.intr_depth, o,
                                   scene.board, dc.KINECT1_QUANTIZATION))
    ref = np.concatenate(ref)
    assert full.shape == ref.shape
    assert np.allclose(full, ref, rtol=1e-9, atol=1e-9)


def test_residual_keeps_its_bits_without_the_zero_constant_step(clean_setup, monkeypatch):
    # GlobalMap.correct skips adding the corners' zero constant terms; the
    # refine residual must read the bits of the evaluator that adds them
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids, cap=40)
    problem = _RefineProblem(truth_state(scene, frames, ids), obs, scene.intr_rgb,
                             scene.board)
    x = problem.pack_initial()
    x = x + np.random.default_rng(9).normal(0, 1e-3, x.size)
    got = problem.residual(x)
    monkeypatch.setattr(dc.GlobalMap, "correct", global_correct)
    assert problem.residual(x).tobytes() == got.tobytes()


def test_board_planes_from_poses_match_fitted_planes():
    # the refinement moves the board's z = 0 plane by pose and extrinsic; the
    # oracle fits a plane to the moved corners. Each pose also appears turned
    # half a turn about the board's x axis, so that one normal of each pair
    # points toward the camera.
    board = dc.BoardSpec(6, 8, 0.04)
    half_turn = dc.RigidTransform((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    rng = np.random.default_rng(23)
    for _ in range(10):
        extr = dc.RigidTransform(axis_angle_to_quat(rng.normal(0, 0.3, 3)),
                                 rng.normal(0, 0.05, 3))
        poses = []
        for _ in range(4):
            pose = dc.RigidTransform(axis_angle_to_quat(rng.normal(0, 1.0, 3)),
                                     rng.uniform([-0.5, -0.5, 1.0], [0.5, 0.5, 4.0]))
            poses += [pose, pose.compose(half_turn)]
        toward = [p.rotation_matrix[:, 2] @ p.translation < 0 for p in poses]
        assert toward[0::2] == [not t for t in toward[1::2]]
        normals, offsets = _board_planes_depth(
            extr.rotation_matrix, extr.translation,
            quat_to_matrix(np.array([p.quaternion for p in poses])),
            np.array([p.translation for p in poses]))
        for n, o, pose in zip(normals, offsets, poses):
            plane = board_plane_depth(extr, pose, board)
            assert np.max(np.abs(n - plane.normal)) < 1e-12
            assert abs(o - plane.offset) < 1e-12


def test_parameter_vector_length(clean_setup):
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids, cap=20)
    state = truth_state(scene, frames, ids)
    problem = _RefineProblem(state, obs, scene.intr_rgb, scene.board)
    assert problem.pack_initial().size == 16 + 6 * len(obs)


# ---------------------------------------------------------------------------
# refine


def run_refine(scene, frames, setup, state0):
    walls, inliers, corners, ids = setup
    obs = observations_from(walls, inliers, corners, ids)
    return dc.refine(state0, obs, scene.intr_rgb, scene.board)


def test_refine_at_ground_truth_is_fixed_point(clean_setup):
    scene, frames, setup = clean_setup
    state0 = truth_state(scene, frames, setup[3])
    state, result = run_refine(scene, frames, setup, state0)
    assert result.final_cost <= result.cost_trace[0]
    assert result.final_cost < 1e-10
    assert np.linalg.norm(state.extrinsic.translation
                          - scene.true_extrinsic.translation) < 1e-8


def test_refine_warns_when_stopped_at_max_iter(clean_setup, caplog,
                                               monkeypatch):
    scene, frames, setup = clean_setup
    truth = truth_state(scene, frames, setup[3])
    bent = dc.RigidTransform(truth.extrinsic.quaternion,
                             truth.extrinsic.translation + (0.005, 0, 0))
    state0 = dc.RefinementState(extrinsic=bent, board_poses=truth.board_poses,
                                intr_depth=truth.intr_depth, gmap=truth.gmap)
    monkeypatch.setattr(cg, "MAX_ITER", 1)
    with caplog.at_level("WARNING", logger="depthcal.calib_global"):
        _, result = run_refine(scene, frames, setup, state0)
    assert result.reason == "max_iter" and not result.converged
    assert "refinement stopped (max_iter)" in caplog.text


def test_refine_recovers_perturbed_extrinsic(clean_setup):
    scene, frames, setup = clean_setup
    truth = truth_state(scene, frames, setup[3])
    bent = dc.RigidTransform(truth.extrinsic.quaternion,
                             truth.extrinsic.translation + (0.005, 0, 0))
    state0 = dc.RefinementState(extrinsic=bent, board_poses=truth.board_poses,
                                intr_depth=truth.intr_depth, gmap=truth.gmap)
    state, result = run_refine(scene, frames, setup, state0)
    err = np.linalg.norm(state.extrinsic.translation
                         - scene.true_extrinsic.translation)
    assert err < 2e-4
    assert np.all(np.diff(result.cost_trace) <= 0)


def test_refine_recovers_perturbed_focal(clean_setup):
    scene, frames, setup = clean_setup
    truth = truth_state(scene, frames, setup[3])
    from dataclasses import replace

    bent = replace(truth.intr_depth, fx=truth.intr_depth.fx * 1.02,
                   fy=truth.intr_depth.fy * 1.02)
    state0 = dc.RefinementState(extrinsic=truth.extrinsic,
                                board_poses=truth.board_poses,
                                intr_depth=bent, gmap=truth.gmap)
    state, _ = run_refine(scene, frames, setup, state0)
    assert abs(state.intr_depth.fx / scene.intr_depth.fx - 1.0) < 1e-3
    assert abs(state.intr_depth.fy / scene.intr_depth.fy - 1.0) < 1e-3


@pytest.mark.parametrize("degree", [1, 3])
def test_refine_rejects_a_g_of_another_degree(clean_setup, degree):
    # the parameter vector holds 3 * GMAP_DEGREE coefficients of G
    scene, frames, setup = clean_setup
    truth = truth_state(scene, frames, setup[3])
    state0 = replace(truth, gmap=dc.GlobalMap.identity(80, 60, degree))
    with pytest.raises(dc.CalibrationError, match=f"degree must be 2, not {degree}"):
        run_refine(scene, frames, setup, state0)


def test_refine_keeps_dependent_corner_invariant(clean_setup):
    scene, frames, setup = clean_setup
    truth = truth_state(scene, frames, setup[3])
    bent = dc.RefinementState(
        extrinsic=truth.extrinsic, board_poses=truth.board_poses,
        intr_depth=truth.intr_depth,
        gmap=dc.GlobalMap.from_free_coefficients(80, 60,
                                                 [1.01, 0.001, 0.99, -0.001,
                                                  1.0, 0.002]))
    state, _ = run_refine(scene, frames, setup, bent)
    g = state.gmap
    g00, gw0, g0h = g.corners
    expected = gw0 + g0h - g00
    d = np.linspace(0.5, 5.0, 20)
    # G's value at its dependent corner (W, H)
    assert np.allclose(g.correct(g.width, g.height, d), horner(expected, d),
                       atol=1e-15)


def test_refine_jacobian_matches_cost_gradient(clean_setup):
    scene, frames, (walls, inliers, corners, ids) = clean_setup
    obs = observations_from(walls, inliers, corners, ids, cap=30)
    state = truth_state(scene, frames, ids)
    problem = _RefineProblem(state, obs, scene.intr_rgb, scene.board)
    x0 = problem.pack_initial()
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = x0 + rng.normal(0, 5e-4, x0.size)
        r = problem.residual(x)
        jac = lm_jacobian(problem.residual, x, r)
        v = rng.normal(size=x.size)
        v /= np.linalg.norm(v)
        jv = 2.0 * r @ (jac @ v)
        h = 1e-6
        cost = lambda xx: float(np.sum(problem.residual(xx) ** 2))
        fd = (cost(x + h * v) - cost(x - h * v)) / (2 * h)
        assert jv == pytest.approx(fd, rel=1e-4, abs=1e-9)


# ---------------------------------------------------------------------------
# block normal equations of the refine Jacobian


def assert_dense_products(problem, x):
    """`normal_equations` against `lm_jacobian`'s JᵀJ and Jᵀr, entry by entry.

    Each entry is compared relative to the Cauchy-Schwarz bound of its sum,
    |(JᵀJ)_ij| <= |J_i| |J_j| and |(Jᵀr)_i| <= |J_i| |r|.
    """
    r = problem.residual(x)
    jtj, jtr = problem.normal_equations(problem.residual, x, r)
    jac = lm_jacobian(problem.residual, x, r)
    col = np.linalg.norm(jac, axis=0)
    assert np.all(np.abs(jtj - jac.T @ jac) <= 1e-12 * np.outer(col, col))
    assert np.all(np.abs(jtr - jac.T @ r) <= 1e-12 * col * np.linalg.norm(r))


def test_grouped_jacobian_equals_dense(small_refine_setup):
    problem = small_refine_setup[3]
    x0 = problem.pack_initial()
    rng = np.random.default_rng(29)
    for _ in range(5):
        assert_dense_products(problem, x0 + rng.normal(0, 5e-4, x0.size))


def test_normal_equations_match_whole_residual_columns_bit_for_bit(small_refine_setup):
    # no global parameter moves a reprojection row, so the zeros of the
    # global columns and their plane-row evaluations give the bits of
    # differencing whole residuals, at the penalty too
    problem = small_refine_setup[3]
    x0 = problem.pack_initial()
    rng = np.random.default_rng(37)
    behind = x0.copy()
    behind[16 + 5] = -1.0  # the first frame's board behind the camera
    for x in [x0, behind] + [x0 + rng.normal(0, 5e-4, x0.size) for _ in range(3)]:
        r = problem.residual(x)
        jtj, jtr = problem.normal_equations(problem.residual, x, r)
        ref_jtj, ref_jtr = normal_equations_by_residual(problem, problem.residual, x, r)
        assert jtj.tobytes() == ref_jtj.tobytes()
        assert jtr.tobytes() == ref_jtr.tobytes()
    assert np.all(problem.residual(behind).reshape(len(problem.obs), -1)[0]
                  == _BEHIND_PENALTY)
    x = x0 + rng.normal(0, 2e-3, x0.size)
    ours = dc.lm_minimize(problem.residual, x, max_iter=20,
                          normal_fn=problem.normal_equations)
    ref = dc.lm_minimize(problem.residual, x, max_iter=20,
                         normal_fn=lambda fn, xx, rr: normal_equations_by_residual(
                             problem, fn, xx, rr))
    assert len(ours.cost_trace) > 2
    assert np.array_equal(ours.cost_trace, ref.cost_trace)
    assert ours.x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize("i", [0, 7, 10, 15, 20])
def test_residual_at_a_nonfinite_point_is_nonfinite(small_refine_setup, i):
    # GlobalMap rejects non-finite corners, so the residual must not build
    # one at such a trial point: it returns NaN rows, which lm_minimize
    # rejects as a step
    problem = small_refine_setup[3]
    x = problem.pack_initial()
    for bad in (np.nan, np.inf):
        xb = x.copy()
        xb[i] = bad
        r = problem.residual(xb)
        assert r.shape == problem.residual(x).shape
        assert not np.any(np.isfinite(r))
        with pytest.raises(dc.GeometryError, match="initial point"):
            dc.lm_minimize(problem.residual, xb, max_iter=1)


def test_lm_with_grouped_jacobian_takes_the_same_steps(small_refine_setup):
    problem = small_refine_setup[3]
    x0 = problem.pack_initial()
    x = x0 + np.random.default_rng(31).normal(0, 2e-3, x0.size)
    dense = dc.lm_minimize(problem.residual, x, max_iter=20)
    grouped = dc.lm_minimize(problem.residual, x, max_iter=20,
                             normal_fn=problem.normal_equations)
    assert len(dense.cost_trace) > 2
    assert len(grouped.cost_trace) == len(dense.cost_trace)
    assert grouped.reason == dense.reason
    assert np.max(np.abs(grouped.x - dense.x)) <= 1e-9


def test_grouped_jacobian_penalty_fallback(small_refine_setup):
    """Pose columns whose step moves a board corner across the camera plane."""
    problem = small_refine_setup[3]
    board3d = small_refine_setup[0].board.corners_3d()
    x = problem.pack_initial()
    frame = 16  # first pose block: rvec 16..18, t 19..21

    def depths(xx):
        return problem.unpack(xx).board_poses[0].apply(board3d)[:, 2]

    def stepped(xx, i):
        xp = xx.copy()
        xp[i] += max(1e-6, 1e-6 * abs(xx[i]))
        return xp

    def penalized_frames(xx):
        r = problem.residual(xx)
        rows = r.reshape(len(problem.obs), -1) == _BEHIND_PENALTY
        assert np.all(rows.all(axis=1) == rows.any(axis=1))
        return list(np.flatnonzero(rows.all(axis=1)))

    lowest = int(np.argmin(depths(x)))
    dz = [depths(stepped(x, i))[lowest] - depths(x)[lowest]
          for i in range(frame, frame + 3)]
    assert min(dz) < 0 < max(dz)
    # put the lowest corner half a step's depth change on the side of the
    # camera plane that the step leaves: in front (the stepped evaluation
    # hits the penalty), then behind (the base point is the penalty)
    for pick in (np.argmin, np.argmax):
        col = frame + int(pick(dz))
        xb = x.copy()
        xb[frame + 5] -= depths(x)[lowest] + 0.5 * dz[col - frame]
        xp = stepped(xb, col)
        assert np.sign(depths(xb)[lowest]) == -np.sign(depths(xp)[lowest])
        assert sorted(penalized_frames(xb) + penalized_frames(xp)) == [0]
        assert_dense_products(problem, xb)


@pytest.mark.parametrize("n_frames", [3, 6])
def test_grouped_jacobian_evaluation_count(small_refine_setup, monkeypatch,
                                           n_frames):
    scene, state, observations, _ = small_refine_setup
    sub = dc.RefinementState(extrinsic=state.extrinsic,
                             board_poses=state.board_poses[:n_frames],
                             intr_depth=state.intr_depth, gmap=state.gmap)
    problem = _RefineProblem(sub, observations[:n_frames], scene.intr_rgb,
                             scene.board)
    x = problem.pack_initial()
    r = problem.residual(x)
    calls = []
    original = _RefineProblem.residual

    def counting(self, xx):
        calls.append(1)
        return original(self, xx)

    monkeypatch.setattr(_RefineProblem, "residual", counting)
    plane_calls = []
    plane_rows = _RefineProblem._plane_rows

    def counting_planes(self, *args):
        plane_calls.append(1)
        return plane_rows(self, *args)

    monkeypatch.setattr(_RefineProblem, "_plane_rows", counting_planes)
    problem.normal_equations(problem.residual, x, r)
    # 6 pose columns from whole residuals; the 16 global columns evaluate
    # only their plane rows
    assert len(calls) == 6
    assert len(plane_calls) == 16 + 6
    calls.clear()
    lm_jacobian(problem.residual, x, r)
    assert len(calls) == 16 + 6 * n_frames


def test_normal_equations_memory_stays_below_dense_jacobian(small_refine_setup):
    scene, state, observations, _ = small_refine_setup
    many = dc.RefinementState(extrinsic=state.extrinsic,
                              board_poses=state.board_poses * 20,
                              intr_depth=state.intr_depth, gmap=state.gmap)
    problem = _RefineProblem(many, observations * 20, scene.intr_rgb,
                             scene.board)
    x = problem.pack_initial()
    r = problem.residual(x)
    dense_bytes = r.size * x.size * 8
    tracemalloc.start()
    try:
        problem.normal_equations(problem.residual, x, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


def test_refine_logs_cost_split_and_worst_frames(small_refine_setup, caplog):
    scene, state, observations, problem = small_refine_setup
    # corner noise that grows with the frame index, so the fit cannot reach
    # zero and the frames with the largest residual are the last ones
    rng = np.random.default_rng(37)
    noisy = [FrameObservations(o.frame_id,
                               o.corners + rng.normal(0, 0.1 * (k + 1),
                                                      o.corners.shape),
                               o.uv, o.dhat)
             for k, o in enumerate(observations)]
    with caplog.at_level("INFO", logger="depthcal.calib_global"):
        refined, result = dc.refine(state, noisy, scene.intr_rgb, scene.board)
    [message] = [rec.getMessage() for rec in caplog.records
                 if rec.getMessage().startswith("refinement cost")]
    # the split of the final residual, recomputed frame by frame
    rms = {}
    total_repr = total_plane = 0.0
    for pose, obs in zip(refined.board_poses, noisy):
        r_repr = residual_repr(pose, obs.corners, scene.intr_rgb,
                                  scene.board, SIGMA_C)
        r_plane = residual_pos(refined.extrinsic, pose, refined.gmap,
                                  refined.intr_depth, obs, scene.board,
                                  dc.KINECT1_QUANTIZATION)
        total_repr += r_repr @ r_repr
        total_plane += r_plane @ r_plane
        rms[obs.frame_id] = np.sqrt((r_repr @ r_repr + r_plane @ r_plane)
                                    / (r_repr.size + r_plane.size))
    match = re.fullmatch(r"refinement cost (\S+): reprojection (\S+), "
                         r"plane (\S+); largest frame residual RMS: "
                         r"(\S+) (\S+), (\S+) (\S+), (\S+) (\S+)", message)
    assert match, message
    cost, logged_repr, logged_plane = map(float, match.groups()[:3])
    assert cost == pytest.approx(result.final_cost, rel=1e-4)
    assert logged_repr == pytest.approx(total_repr, rel=1e-4)
    assert logged_plane == pytest.approx(total_plane, rel=1e-4)
    assert 0 < logged_plane < logged_repr
    worst = sorted(rms, key=rms.get, reverse=True)[:3]
    assert list(match.groups()[3::2]) == worst
    assert [float(v) for v in match.groups()[4::2]] == pytest.approx(
        [rms[fid] for fid in worst], rel=1e-2)
