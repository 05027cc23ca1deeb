"""Stage two of the calibration: global correction and extrinsics.

Each frame enters stage two as its wall alone: the stage-one wall mask of
the frame, at which stage one's reader `undistorted_points` derives the
undistorted cloud points (the final U applied to the frame's depth image
at those pixels only, then back-projected; a pixel whose u(d) is not
positive is dropped). Initialization reads each frame once, so only one
frame's points are held at a time: it pairs the board plane with the
plane fitted to the wall points, and keeps an even subsample of the wall
points as the frame's observations; the camera-depth rigid transform is
solved from the plane pairs. Throughout stage two a board plane is the
board's z = 0 plane moved by the frame's board pose, never a fit.

The refinement then jointly adjusts the global map coefficients (from the
identity map), the camera-depth transform, all board poses and the depth
intrinsics by damped least squares over two residual families:
checkerboard reprojection and point-to-board-plane distances. Rotations are
parameterized as axis-angle increments composed onto the initial
quaternions. Undistorted depth values stay fixed throughout; the depth
intrinsics only re-project pixels to 3D. The residual is frame-major, one
block of rows per frame, and the normal equations are summed block by block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .calib_undistort import BoardSpec, CalibrationError, _require_integers, undistorted_points
from .geometry import (
    _BEHIND_PENALTY,
    _require_numbers,
    CameraIntrinsics,
    GeometryError,
    KINECT1_QUANTIZATION,
    RigidTransform,
    axis_angle_to_quat,
    estimate_transform_from_planes,
    fit_plane,
    forward_steps,
    horner,
    lm_minimize,
    project_point,
    quat_multiply,
    quat_to_matrix,
    transform_plane,
)
from .maps import GlobalMap, UndistortionMap

log = logging.getLogger(__name__)


# Fixed stage-two settings; the depth noise after undistortion is
# geometry.KINECT1_QUANTIZATION. `refine` reads MAX_ITER when called.
SIGMA_C = 0.2  # checkerboard corner detection noise, pixels
GMAP_DEGREE = 2  # global correction polynomial degree (constant term pinned to 0)
MAX_ITER = 100


@dataclass(frozen=True)
class GlobalConfig:
    """Free parameters of stage two."""

    max_points_per_frame: int = 400  # wall points kept per frame in the refinement

    def __post_init__(self):
        _require_numbers(self, CalibrationError, "max_points_per_frame")
        if not self.max_points_per_frame >= 1:
            raise CalibrationError("max_points_per_frame must be at least 1")
        _require_integers(self, "max_points_per_frame")


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


def init_global(frames, walls, board_poses, umap: UndistortionMap,
                intr_depth: CameraIntrinsics, board: BoardSpec, max_points):
    """Initial camera-depth transform (plane pairs), and the refinement's
    observations.

    `frames` are the usable frames; `walls` and `board_poses` map each
    frame's id to its stage-one wall mask and board pose (board -> RGB
    camera). Each frame is read once: `undistorted_points` derives its wall
    points under the final U, so no list of every frame's points is held.
    Per frame: board plane from the board pose (the board's z = 0 plane
    moved by it), wall plane fitted to the wall points, and an even,
    row-major subsample of at most `max_points` wall pixels with their
    undistorted depths as the frame's observations. The rigid transform
    aligning board planes (camera frame) onto wall planes (depth frame)
    initializes the extrinsic. G needs no start here: the refinement starts
    it at the identity, and it enters the plane residual linearly.
    Stage one has already fit a plane to every frame's wall, so a wall fit
    that fails here raises CalibrationError naming the frame.
    Returns (extrinsic depth -> camera, observations).
    """
    if len(frames) < 3:
        raise CalibrationError("stage two needs at least 3 usable frames")
    board_planes_cam = []
    wall_planes_depth = []
    observations = []
    for k, frame in enumerate(frames):
        kept, points = undistorted_points(umap, frame.depth, walls[frame.frame_id],
                                          intr_depth)
        board_planes_cam.append(transform_plane(board_poses[frame.frame_id],
                                                board.plane))
        try:
            wall_planes_depth.append(fit_plane(points))
        except GeometryError as exc:
            raise CalibrationError(
                f"init_global: frame {k}: plane fit failed ({exc})") from exc
        take = np.unique(np.linspace(0, len(points) - 1,
                                     min(len(points), max_points)).astype(int))
        v, u = np.divmod(np.flatnonzero(kept)[take], kept.shape[1])
        observations.append(FrameObservations(frame.frame_id, frame.corner_points.copy(),
                                              np.column_stack([u, v]), points[take, 2]))
    cam_to_depth = estimate_transform_from_planes(board_planes_cam, wall_planes_depth)
    return cam_to_depth.inverse(), observations


# ---------------------------------------------------------------------------
# vectorized refinement


def _board_planes_depth(extr_r, extr_t, pose_r, pose_t):
    """Depth-frame board planes (normals (m, 3), offsets (m,) >= 0) of m
    board -> camera poses and the depth -> camera extrinsic. Pose k moves the
    board's z = 0 plane to normal n = pose_r[k][:, 2], offset n . pose_t[k];
    the extrinsic to normal extr_r^T n, offset n . (pose_t[k] - extr_t).
    """
    n_cam = pose_r[:, :, 2]
    normals = n_cam @ extr_r
    offsets = np.einsum("mi,mi->m", n_cam, pose_t - extr_t)
    sign = np.where(offsets < 0, -1.0, 1.0)
    return normals * sign[:, None], offsets * sign


class _RefineProblem:
    """Vectorized residual of the joint stage-two objective and its normal
    equations.

    Parameter layout: [extrinsic rvec (3), extrinsic t (3), fx fy cx cy (4),
    gmap free coefficients (3 * GMAP_DEGREE), then per frame rvec (3) + t (3)].
    Rotation vectors are increments on the initial quaternions. Rows are
    frame-major: row k of `residual(x).reshape(m, -1)` is frame k's 2C
    reprojection rows, then its S plane rows (S the most wall points of any
    frame, zero-padded). A frame with a board corner behind the camera has
    that whole row set to the penalty.
    """

    def __init__(self, state0: RefinementState, observations, intr_rgb,
                 board: BoardSpec):
        self.intr_rgb = intr_rgb
        self.board3d = board.corners_3d()
        self.obs = observations
        if state0.gmap.degree != GMAP_DEGREE:
            raise CalibrationError(f"G's degree must be {GMAP_DEGREE}, not {state0.gmap.degree}")
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
            sigma = horner(KINECT1_QUANTIZATION, o.dhat)
            self.point_scale[k, :n] = 1.0 / (np.sqrt(n) * sigma)
        self.state0 = state0

    def pack_initial(self):
        m = len(self.obs)
        x = np.zeros(16 + 6 * m)
        x[3:6] = self.state0.extrinsic.translation
        intr = self.state0.intr_depth
        x[6:10] = (intr.fx, intr.fy, intr.cx, intr.cy)
        x[10:16] = self.state0.gmap.free_coefficients()
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
        intr = replace(self.state0.intr_depth, fx=float(x[6]), fy=float(x[7]),
                       cx=float(x[8]), cy=float(x[9]))
        gmap = GlobalMap.from_free_coefficients(self.width, self.height, x[10:16])
        pose_t = x[16:].reshape(-1, 6)[:, 3:6]
        poses = tuple(RigidTransform(q, t) for q, t in zip(pose_q, pose_t))
        return RefinementState(extrinsic=extrinsic, board_poses=poses,
                               intr_depth=intr, gmap=gmap)

    def residual(self, x):
        if not np.all(np.isfinite(x)):
            # no G is built at such a trial point: lm_minimize rejects it
            return np.full(self.corners_px.size + self.dhat.size, np.nan)
        m = len(self.obs)
        extr_q, pose_q = self._rotations(x)
        pose_r = quat_to_matrix(pose_q)
        pose_t = x[16:].reshape(m, 6)[:, 3:6]

        r_repr, behind = self._reprojection_rows(pose_r, pose_t)
        rows = np.concatenate([r_repr, self._plane_rows(x, extr_q, pose_r, pose_t)],
                              axis=1)
        rows[behind] = _BEHIND_PENALTY
        return rows.reshape(-1)

    def _reprojection_rows(self, pose_r, pose_t):
        """The (m, 2C) reprojection rows of `residual` for the board poses,
        before the penalty, and the (m,) frames with a board corner behind
        the camera; such a frame projects a placeholder, and `residual`
        sets its whole row to the penalty."""
        corners_cam = np.einsum("mij,cj->mci", pose_r, self.board3d) + pose_t[:, None, :]
        behind = np.any(corners_cam[:, :, 2] <= 0, axis=1)
        proj = project_point(self.intr_rgb, np.where(
            behind[:, None, None], 1.0, corners_cam).reshape(-1, 3))
        r_repr = (proj.reshape(len(pose_t), -1, 2) - self.corners_px) / SIGMA_C
        return r_repr.reshape(len(pose_t), -1), behind

    def _plane_rows(self, x, extr_q, pose_r, pose_t):
        """The (m, S) plane rows of `residual` at x, before the penalty, from
        the extrinsic quaternion and the board poses that x gives."""
        normals, offsets = _board_planes_depth(quat_to_matrix(extr_q), x[3:6],
                                              pose_r, pose_t)
        fx, fy, cx, cy = x[6], x[7], x[8], x[9]
        rays_x = (self.uv[:, :, 0] - cx) / fx
        rays_y = (self.uv[:, :, 1] - cy) / fy
        # G holds only the free corners, so the planarity constraint holds
        # at every evaluation
        gmap = GlobalMap.from_free_coefficients(self.width, self.height, x[10:16])
        corrected = gmap.correct(self.uv[:, :, 0], self.uv[:, :, 1], self.dhat)
        # distance of the corrected point to the board plane
        px = rays_x * corrected
        py = rays_y * corrected
        pz = corrected
        dist = (px * normals[:, None, 0] + py * normals[:, None, 1]
                + pz * normals[:, None, 2] - offsets[:, None])
        return dist * self.point_scale

    def normal_equations(self, fn, x, r):
        """(JᵀJ, Jᵀr) of `lm_jacobian(fn, x, r)`, summed frame by frame.

        Frame k's rows depend only on the 16 global columns and frame k's 6
        pose columns, so pose component p is stepped in all frames by one
        evaluation of `fn` (column grouping, Curtis, Powell & Reid 1974).
        No global parameter enters a reprojection row, and `_rotations` acts
        row by row, so a global step leaves every pose and every
        reprojection row with the bits it had: a global column's
        reprojection entries are exactly 0, and only its plane rows are
        evaluated, by the `_plane_rows` that `residual` calls. So a Jacobian
        takes 6 evaluations of `fn` and 16 of the plane rows, and each
        column has the bits of `lm_jacobian`'s forward difference. Each
        frame's (R, 16 + 6) block adds to the global block of JᵀJ and gives
        its 16 x 6 cross block and its 6 x 6 diagonal pose block (Triggs et
        al. 2000, section 6).
        """
        steps = forward_steps(x)
        m = len(self.obs)
        r_frame = r.reshape(m, -1)
        n_repr = self.corners_px[0].size
        # (m, columns, R): each column is written as one (m, R) block
        cols = np.empty((m, 22, r_frame.shape[1]))
        cols[:, :16, :n_repr] = 0.0
        pose_r = quat_to_matrix(self._rotations(x)[1])
        pose_t = x[16:].reshape(m, 6)[:, 3:6]
        behind = self._reprojection_rows(pose_r, pose_t)[1]
        for i in range(16):
            xp = x.copy()
            xp[i] += steps[i]
            plane = self._plane_rows(xp, self._rotations(xp)[0], pose_r, pose_t)
            plane[behind] = _BEHIND_PENALTY
            np.divide(plane - r_frame[:, n_repr:], steps[i], out=cols[:, i, n_repr:])
        pose_steps = steps[16:].reshape(m, 6)
        for p in range(6):
            xp = x.copy()
            xp[16 + p::6] += pose_steps[:, p]
            np.divide((fn(xp) - r).reshape(m, -1), pose_steps[:, p, None],
                      out=cols[:, 16 + p])

        prod = cols @ cols.transpose(0, 2, 1)  # (m, 22, 22)
        jtj = np.zeros((x.size, x.size))
        jtj[:16, :16] = prod[:, :16, :16].sum(axis=0)
        jtj[:16, 16:] = prod[:, :16, 16:].transpose(1, 0, 2).reshape(16, -1)
        jtj[16:, :16] = jtj[:16, 16:].T
        frames = np.arange(m)
        jtj[16:, 16:].reshape(m, 6, m, 6)[frames, :, frames, :] = prod[:, 16:, 16:]
        # einsum adds the rows of each frame in order on the (m, R, columns)
        # layout only
        jac = np.ascontiguousarray(cols.transpose(0, 2, 1))
        jtr = np.einsum("mri,mr->mi", jac, r_frame)
        return jtj, np.concatenate([jtr[:, :16].sum(axis=0), jtr[:, 16:].ravel()])

    def log_fit(self, r):
        """Log the cost split by residual family and the worst frames."""
        rows = r.reshape(len(self.obs), -1)
        n_repr = self.corners_px[0].size
        sq_repr = np.sum(rows[:, :n_repr] ** 2, axis=1)
        sq_plane = np.sum(rows[:, n_repr:] ** 2, axis=1)
        counts = n_repr + np.array([o.uv.shape[0] for o in self.obs])
        rms = np.sqrt((sq_repr + sq_plane) / counts)
        worst = np.argsort(-rms, kind="stable")[:3]
        log.info("refinement cost %.4e: reprojection %.4e, plane %.4e; "
                 "largest frame residual RMS: %s",
                 float(r @ r), float(sq_repr.sum()), float(sq_plane.sum()),
                 ", ".join(f"{self.obs[k].frame_id} {rms[k]:.3g}"
                           for k in worst))


def refine(state0: RefinementState, observations, intr_rgb: CameraIntrinsics,
           board: BoardSpec):
    """Joint nonlinear refinement of (G, extrinsic, board poses, depth K).

    Returns (state, lm_result); lm_result carries the accepted-cost trace,
    non-increasing by construction. Logs at INFO the final cost split into
    its reprojection and plane terms, and the three frames with the largest
    residual RMS. `state0.gmap` must have degree GMAP_DEGREE.
    """
    problem = _RefineProblem(state0, observations, intr_rgb, board)
    result = lm_minimize(problem.residual, problem.pack_initial(),
                         max_iter=MAX_ITER, normal_fn=problem.normal_equations)
    problem.log_fit(result.residual)
    if result.reason in ("max_iter", "damping_exhausted"):
        log.warning("refinement stopped (%s) with cost %.3e (trace: %s)",
                    result.reason, result.final_cost,
                    ", ".join(f"{c:.3e}" for c in result.cost_trace[-5:]))
    return problem.unpack(result.x), result
