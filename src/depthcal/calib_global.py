"""Stage two of the calibration: global correction and extrinsics.

Initialization pairs the checkerboard plane seen by the RGB camera (from
the board pose stage one solved) with the wall plane seen by the depth
sensor in every frame, solves the camera-depth rigid transform from the
plane pairs, and fits the four-corner global map against the board planes
with the same binned update machinery as stage one (bin size = whole image).

The refinement then jointly adjusts the global map coefficients, the
camera-depth transform, all board poses and the depth intrinsics by
damped least squares over two residual families: checkerboard reprojection
and point-to-board-plane distances. Rotations are parameterized as
axis-angle increments composed onto the initial quaternions. Undistorted
depth values stay fixed throughout; the depth intrinsics only re-project
pixels to 3D.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .calib_undistort import (
    BoardSpec,
    CalibrationError,
    UndistortConfig,
    update_map,
)
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    KINECT1_QUANTIZATION,
    NoiseModel,
    RigidTransform,
    axis_angle_to_quat,
    estimate_transform_from_planes,
    fit_plane,
    lm_minimize,
    project_point,
    quat_multiply,
    transform_plane,
)
from .maps import FitMoments, GlobalMap, UndistortionMap

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GlobalConfig:
    """Free parameters of stage two."""

    sigma_c: float = 0.2  # checkerboard corner detection noise, pixels
    sigma_u: NoiseModel = field(default=KINECT1_QUANTIZATION)  # depth noise after undistortion
    degree: int = 2  # global correction polynomial degree (constant term pinned to 0)
    max_points_per_frame: int = 400  # wall points kept per frame in the refinement
    max_iter: int = 100
    ftol: float = 1e-10
    xtol: float = 1e-12

    def __post_init__(self):
        if self.sigma_c <= 0:
            raise CalibrationError("sigma_c must be positive")


@dataclass(frozen=True, eq=False)
class FrameObservations:
    """Stage-two view of one frame: corners plus undistorted wall points."""

    frame_id: str
    corners: np.ndarray  # (C, 2) measured pixel coordinates
    uv: np.ndarray  # (S, 2) wall pixel coordinates
    dhat: np.ndarray  # (S,) undistorted depths at uv, held fixed


@dataclass(frozen=True, eq=False)
class RefinementState:
    """Everything stage two estimates."""

    extrinsic: RigidTransform  # depth -> camera
    board_poses: tuple  # board -> camera, one per frame
    intr_depth: CameraIntrinsics
    gmap: GlobalMap

    @property
    def n_parameters(self):
        return 16 + 6 * len(self.board_poses)


def build_observations(frames, undistorted_depths, inlier_sets,
                       max_points=400):
    """Pack frames into FrameObservations, subsampling inliers evenly."""
    obs = []
    for frame in frames:
        inl = inlier_sets[frame.frame_id]
        depth = undistorted_depths[frame.frame_id]
        n = len(inl)
        if n == 0:
            raise CalibrationError(f"frame {frame.frame_id}: empty inlier set")
        take = np.unique(np.linspace(0, n - 1, min(n, max_points)).astype(int))
        uv = inl.uv[take]
        dhat = depth.data[uv[:, 1], uv[:, 0]]
        obs.append(FrameObservations(frame.frame_id, frame.corner_points.copy(),
                                     uv, dhat))
    return obs


def init_global(undistorted_clouds, inlier_sets, board_poses, board: BoardSpec,
                cfg: GlobalConfig = GlobalConfig()):
    """Initial global map, camera-depth transform and board poses (plane pairs).

    Per frame: board plane from the corners moved by the frame's board pose
    (board -> RGB camera, as solved in stage one), wall plane from the
    undistorted cloud inliers. The rigid transform aligning board planes
    (camera frame) onto wall planes (depth frame) initializes the extrinsic;
    the board planes moved into the depth frame then drive the four-corner
    map fit. Returns the poses of the frames kept.
    """
    if not (len(undistorted_clouds) == len(inlier_sets) == len(board_poses)):
        raise CalibrationError("clouds, inlier sets and board poses must align")
    poses = []
    board_planes_cam = []
    wall_planes_depth = []
    keep = []
    for k, (cloud, inliers, pose) in enumerate(
            zip(undistorted_clouds, inlier_sets, board_poses)):
        try:
            corners_cam = pose.apply(board.corners_3d())
            board_planes_cam.append(fit_plane(corners_cam))
            wall_planes_depth.append(fit_plane(cloud.points_at(inliers)))
            poses.append(pose)
            keep.append(k)
        except GeometryError as exc:
            log.warning("init_global: frame %d dropped (%s)", k, exc)
    if len(keep) < 3:
        raise CalibrationError("stage two needs at least 3 usable frames")
    cam_to_depth = estimate_transform_from_planes(board_planes_cam, wall_planes_depth)

    first = undistorted_clouds[keep[0]]
    width, height = first.width, first.height
    grid = UndistortionMap.identity(width, height, width, height,
                                    degree=cfg.degree, constant_zero=True)
    moments = FitMoments(grid.grid_shape, cfg.degree)
    update_cfg = UndistortConfig(chi=width, psi=height, degree=cfg.degree,
                                 noise_model=cfg.sigma_u)
    for k, plane_cam in zip(keep, board_planes_cam):
        plane_depth = transform_plane(cam_to_depth, plane_cam)
        grid = update_map(grid, moments, undistorted_clouds[k], inlier_sets[k],
                          plane_depth, update_cfg)
    gmap = GlobalMap(width, height,
                     grid.control_function(0, 0),
                     grid.control_function(1, 0),
                     grid.control_function(0, 1))
    return gmap, cam_to_depth.inverse(), poses


# ---------------------------------------------------------------------------
# vectorized refinement


def _quats_to_matrices(q):
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty(q.shape[:1] + (3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def _exp_quats(rvecs):
    theta = np.linalg.norm(rvecs, axis=1)
    q = np.empty((rvecs.shape[0], 4))
    small = theta < 1e-12
    half = np.where(small, 0.5, np.sin(theta / 2.0) / np.where(theta == 0, 1.0, theta))
    q[:, 0] = np.where(small, 1.0, np.cos(theta / 2.0))
    q[:, 1:] = rvecs * half[:, None]
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _quat_multiply_batch(a, b):
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=1)


def _fit_planes_batch(points):
    """Total-least-squares planes for (M, N, 3) point batches.

    Returns (normals (M, 3), offsets (M,)), canonically oriented.
    """
    centroid = points.mean(axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normals = vt[:, 2, :]
    offsets = np.einsum("mi,mi->m", normals, centroid[:, 0, :])
    flip = offsets < 0
    normals[flip] *= -1
    offsets[flip] *= -1
    return normals, offsets


# every residual entry when a board corner lies behind the camera
_BEHIND_PENALTY = 1e6


def _is_penalty(r):
    return bool(np.all(r == _BEHIND_PENALTY))


class _RefineProblem:
    """Vectorized residual of the joint stage-two objective.

    Parameter layout: [extrinsic rvec (3), extrinsic t (3), fx fy cx cy (4),
    gmap free coefficients (3 * degree), then per frame rvec (3) + t (3)].
    Rotation vectors are increments on the initial quaternions.
    """

    def __init__(self, state0: RefinementState, observations, intr_rgb,
                 board: BoardSpec, cfg: GlobalConfig):
        self.cfg = cfg
        self.intr_rgb = intr_rgb
        self.board3d = board.corners_3d()
        self.obs = observations
        self.degree = state0.gmap.degree
        self.base_extr_q = state0.extrinsic.quaternion
        self.base_pose_q = np.array([p.quaternion for p in state0.board_poses])
        self.width = state0.gmap.width
        self.height = state0.gmap.height
        self.corners_px = np.array([o.corners for o in observations])
        m = len(observations)
        s = max(o.uv.shape[0] for o in observations)
        self.uv = np.zeros((m, s, 2))
        self.dhat = np.ones((m, s))
        self.point_scale = np.zeros((m, s))
        for k, o in enumerate(observations):
            n = o.uv.shape[0]
            self.uv[k, :n] = o.uv
            self.dhat[k, :n] = o.dhat
            sigma = cfg.sigma_u.sigma(o.dhat)
            self.point_scale[k, :n] = 1.0 / (np.sqrt(n) * sigma)
        self.intr_depth0 = state0.intr_depth
        self.gmap0 = state0.gmap
        self.state0 = state0

    def pack_initial(self):
        m = len(self.obs)
        x = np.zeros(16 + 6 * m)
        x[3:6] = self.state0.extrinsic.translation
        x[6:10] = (self.intr_depth0.fx, self.intr_depth0.fy,
                   self.intr_depth0.cx, self.intr_depth0.cy)
        x[10:16] = self.gmap0.free_coefficients()
        for k, pose in enumerate(self.state0.board_poses):
            x[16 + 6 * k + 3:16 + 6 * k + 6] = pose.translation
        return x

    def unpack(self, x) -> RefinementState:
        extr_q = quat_multiply(axis_angle_to_quat(x[0:3]), self.base_extr_q)
        extrinsic = RigidTransform(extr_q, x[3:6])
        intr = replace(self.intr_depth0, fx=float(x[6]), fy=float(x[7]),
                       cx=float(x[8]), cy=float(x[9]))
        gmap = GlobalMap.from_free_coefficients(self.width, self.height,
                                                x[10:16], self.degree)
        m = len(self.obs)
        rvecs = x[16:].reshape(m, 6)[:, 0:3]
        quats = _quat_multiply_batch(_exp_quats(rvecs), self.base_pose_q)
        poses = tuple(RigidTransform(q, x[16 + 6 * k + 3:16 + 6 * k + 6])
                      for k, q in enumerate(quats))
        return RefinementState(extrinsic=extrinsic, board_poses=poses,
                               intr_depth=intr, gmap=gmap)

    def residual(self, x):
        m = len(self.obs)
        pose_block = x[16:].reshape(m, 6)
        pose_q = _quat_multiply_batch(_exp_quats(pose_block[:, 0:3]),
                                      self.base_pose_q)
        pose_r = _quats_to_matrices(pose_q)
        pose_t = pose_block[:, 3:6]

        # reprojection block
        corners_cam = np.einsum("mij,cj->mci", pose_r, self.board3d) + pose_t[:, None, :]
        if np.any(corners_cam[:, :, 2] <= 0):
            return np.full(self._n_residuals(), _BEHIND_PENALTY)
        proj = project_point(self.intr_rgb, corners_cam.reshape(-1, 3))
        r_repr = (proj.reshape(m, -1, 2) - self.corners_px) / self.cfg.sigma_c

        # board planes in the depth frame (dependent corner always rebuilt
        # from the free coefficients, so the planarity constraint holds at
        # every evaluation)
        extr_q = quat_multiply(axis_angle_to_quat(x[0:3]), self.base_extr_q)
        extr = RigidTransform(extr_q, x[3:6])
        inv = extr.inverse()
        corners_depth = corners_cam @ inv.rotation_matrix.T + inv.translation
        normals, offsets = _fit_planes_batch(corners_depth)

        fx, fy, cx, cy = x[6], x[7], x[8], x[9]
        rays_x = (self.uv[:, :, 0] - cx) / fx
        rays_y = (self.uv[:, :, 1] - cy) / fy
        gmap = GlobalMap.from_free_coefficients(self.width, self.height,
                                                x[10:16], self.degree)
        corrected = gmap.correct(self.uv[:, :, 0], self.uv[:, :, 1], self.dhat)
        # distance of the corrected point to the board plane
        px = rays_x * corrected
        py = rays_y * corrected
        pz = corrected
        dist = (px * normals[:, None, 0] + py * normals[:, None, 1]
                + pz * normals[:, None, 2] - offsets[:, None])
        r_pos = dist * self.point_scale
        return np.concatenate([r_repr.reshape(-1), r_pos.reshape(-1)])

    def _n_residuals(self):
        m = len(self.obs)
        return m * self.board3d.shape[0] * 2 + self.dhat.size

    def frame_blocks(self, r):
        """Views of the rows of r by frame: reprojection (m, 2C, ...) and
        plane (m, S, ...), S the padded wall-point count (padding rows are 0).
        """
        m = len(self.obs)
        n_repr = m * self.board3d.shape[0] * 2
        return (r[:n_repr].reshape((m, -1) + r.shape[1:]),
                r[n_repr:].reshape((m, -1) + r.shape[1:]))

    def jacobian(self, fn, x, r):
        """`lm_jacobian(fn, x, r)`, bit for bit, from fewer evaluations.

        `fn` is over the full parameter vector. Each frame's pose columns
        touch only that frame's rows, so pose component p is stepped in all
        frames by one evaluation and each frame's rows go to its own column
        (column grouping, Curtis, Powell & Reid 1974): one evaluation per
        global column plus 6. The behind-camera penalty fills every row, so
        a group whose evaluation (or whose base r) is the penalty falls back
        to one evaluation per column.
        """
        steps = np.maximum(1e-6, 1e-6 * np.abs(x))
        jac = np.zeros((r.size, x.size))

        def column(i):
            xp = x.copy()
            xp[i] += steps[i]
            jac[:, i] = (fn(xp) - r) / steps[i]

        for i in range(16):
            column(i)
        pose_cols = np.arange(16, x.size).reshape(-1, 6)  # (m, 6)
        frames = np.arange(pose_cols.shape[0])
        r_repr, r_plane = self.frame_blocks(r)
        j_repr, j_plane = self.frame_blocks(jac)
        base_penalized = _is_penalty(r)
        for cols in pose_cols.T:
            xp = x.copy()
            xp[cols] += steps[cols]
            rp = fn(xp)
            if base_penalized or _is_penalty(rp):
                for i in cols:
                    column(i)
                continue
            p_repr, p_plane = self.frame_blocks(rp)
            j_repr[frames, :, cols] = (p_repr - r_repr) / steps[cols, None]
            j_plane[frames, :, cols] = (p_plane - r_plane) / steps[cols, None]
        return jac

    def log_fit(self, r):
        """Log the cost split by residual family and the worst frames."""
        r_repr, r_plane = self.frame_blocks(r)
        sq_repr = np.sum(r_repr ** 2, axis=1)
        sq_plane = np.sum(r_plane ** 2, axis=1)
        counts = r_repr.shape[1] + np.array([o.uv.shape[0] for o in self.obs])
        rms = np.sqrt((sq_repr + sq_plane) / counts)
        worst = np.argsort(-rms, kind="stable")[:3]
        log.info("refinement cost %.4e: reprojection %.4e, plane %.4e; "
                 "largest frame residual RMS: %s",
                 float(r @ r), float(sq_repr.sum()), float(sq_plane.sum()),
                 ", ".join(f"{self.obs[k].frame_id} {rms[k]:.3g}"
                           for k in worst))


def refine(state0: RefinementState, observations, intr_rgb: CameraIntrinsics,
           board: BoardSpec, cfg: GlobalConfig = GlobalConfig()):
    """Joint nonlinear refinement of (G, extrinsic, board poses, depth K).

    Returns (state, lm_result); lm_result carries the accepted-cost trace,
    non-increasing by construction. Logs at INFO the final cost split into
    its reprojection and plane terms, and the three frames with the largest
    residual RMS.
    """
    problem = _RefineProblem(state0, observations, intr_rgb, board, cfg)
    result = lm_minimize(problem.residual, problem.pack_initial(),
                         max_iter=cfg.max_iter, ftol=cfg.ftol, xtol=cfg.xtol,
                         jacobian_fn=problem.jacobian)
    problem.log_fit(result.residual)
    if result.reason in ("max_iter", "damping_exhausted"):
        log.warning("refinement stopped (%s) with cost %.3e (trace: %s)",
                    result.reason, result.final_cost,
                    ", ".join(f"{c:.3e}" for c in result.cost_trace[-5:]))
    return problem.unpack(result.x), result
