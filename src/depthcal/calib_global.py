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
from dataclasses import dataclass, replace

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
    RigidTransform,
    axis_angle_to_quat,
    estimate_transform_from_planes,
    fit_plane,
    lm_minimize,
    project_point,
    quat_multiply,
    quat_to_matrix,
    transform_plane,
)
from .maps import FitMoments, GlobalMap, UndistortionMap

log = logging.getLogger(__name__)


# Fixed stage-two settings; the depth noise after undistortion is
# geometry.KINECT1_QUANTIZATION. `refine` reads the solver limits when called.
SIGMA_C = 0.2  # checkerboard corner detection noise, pixels
GMAP_DEGREE = 2  # global correction polynomial degree (constant term pinned to 0)
MAX_ITER = 100
FTOL = 1e-10
XTOL = 1e-12


@dataclass(frozen=True)
class GlobalConfig:
    """Free parameters of stage two.

    `calibrate` passes the point cap to `build_observations`; `init_global`
    and `refine` accept the config but read no field of it.
    """

    max_points_per_frame: int = 400  # wall points kept per frame in the refinement


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
    map fit. Stage one has already fit a plane to every frame's inliers, so
    a plane fit that fails here raises CalibrationError naming the frame.
    Returns (gmap, extrinsic depth -> camera, board poses).
    """
    if not (len(undistorted_clouds) == len(inlier_sets) == len(board_poses)):
        raise CalibrationError("clouds, inlier sets and board poses must align")
    if len(board_poses) < 3:
        raise CalibrationError("stage two needs at least 3 usable frames")
    board_planes_cam = []
    wall_planes_depth = []
    for k, (cloud, inliers, pose) in enumerate(
            zip(undistorted_clouds, inlier_sets, board_poses)):
        try:
            board_planes_cam.append(fit_plane(pose.apply(board.corners_3d())))
            wall_planes_depth.append(fit_plane(cloud.points_at(inliers)))
        except GeometryError as exc:
            raise CalibrationError(
                f"init_global: frame {k}: plane fit failed ({exc})") from exc
    cam_to_depth = estimate_transform_from_planes(board_planes_cam, wall_planes_depth)

    width, height = undistorted_clouds[0].width, undistorted_clouds[0].height
    grid = UndistortionMap.identity(width, height, width, height,
                                    degree=GMAP_DEGREE, constant_zero=True)
    moments = FitMoments(grid.grid_shape, GMAP_DEGREE)
    update_cfg = UndistortConfig(chi=width, psi=height, degree=GMAP_DEGREE)
    for cloud, inliers, plane_cam in zip(undistorted_clouds, inlier_sets,
                                         board_planes_cam):
        plane_depth = transform_plane(cam_to_depth, plane_cam)
        grid = update_map(grid, moments, cloud, inliers, plane_depth, update_cfg)
    gmap = GlobalMap(width, height,
                     grid.control_function(0, 0),
                     grid.control_function(1, 0),
                     grid.control_function(0, 1))
    return gmap, cam_to_depth.inverse(), list(board_poses)


# ---------------------------------------------------------------------------
# vectorized refinement


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
        self.intr_rgb = intr_rgb
        self.board3d = board.corners_3d()
        self.obs = observations
        self.degree = state0.gmap.degree
        self.base_q = np.array([state0.extrinsic.quaternion]
                               + [p.quaternion for p in state0.board_poses])
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
            sigma = KINECT1_QUANTIZATION.sigma(o.dhat)
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

    def _rotations(self, x):
        """Extrinsic (4,) and per-frame pose (m, 4) quaternions at x.

        Each rotation vector in x is an axis-angle increment composed onto
        its initial quaternion (Triggs et al., "Bundle Adjustment - A Modern
        Synthesis", 2000). The products are unit to rounding and are not
        renormalized here; RigidTransform normalizes what `unpack` returns.
        """
        rvecs = np.vstack([x[0:3], x[16:].reshape(-1, 6)[:, 0:3]])
        q = quat_multiply(axis_angle_to_quat(rvecs), self.base_q)
        return q[0], q[1:]

    def unpack(self, x) -> RefinementState:
        extr_q, pose_q = self._rotations(x)
        extrinsic = RigidTransform(extr_q, x[3:6])
        intr = replace(self.intr_depth0, fx=float(x[6]), fy=float(x[7]),
                       cx=float(x[8]), cy=float(x[9]))
        gmap = GlobalMap.from_free_coefficients(self.width, self.height,
                                                x[10:16], self.degree)
        pose_t = x[16:].reshape(-1, 6)[:, 3:6]
        poses = tuple(RigidTransform(q, t) for q, t in zip(pose_q, pose_t))
        return RefinementState(extrinsic=extrinsic, board_poses=poses,
                               intr_depth=intr, gmap=gmap)

    def residual(self, x):
        m = len(self.obs)
        extr_q, pose_q = self._rotations(x)
        pose_r = quat_to_matrix(pose_q)
        pose_t = x[16:].reshape(m, 6)[:, 3:6]

        # reprojection block
        corners_cam = np.einsum("mij,cj->mci", pose_r, self.board3d) + pose_t[:, None, :]
        if np.any(corners_cam[:, :, 2] <= 0):
            return np.full(self._n_residuals(), _BEHIND_PENALTY)
        proj = project_point(self.intr_rgb, corners_cam.reshape(-1, 3))
        r_repr = (proj.reshape(m, -1, 2) - self.corners_px) / SIGMA_C

        # board planes in the depth frame (dependent corner always rebuilt
        # from the free coefficients, so the planarity constraint holds at
        # every evaluation)
        inv = RigidTransform(extr_q, x[3:6]).inverse()
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
                         max_iter=MAX_ITER, ftol=FTOL, xtol=XTOL,
                         jacobian_fn=problem.jacobian)
    problem.log_fit(result.residual)
    if result.reason in ("max_iter", "damping_exhausted"):
        log.warning("refinement stopped (%s) with cost %.3e (trace: %s)",
                    result.reason, result.final_cost,
                    ", ".join(f"{c:.3e}" for c in result.cost_trace[-5:]))
    return problem.unpack(result.x), result
