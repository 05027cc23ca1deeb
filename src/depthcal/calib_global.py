"""Stage two of the calibration: global correction and extrinsics.

Each frame enters stage two as its wall alone: the stage-one wall mask of
the frame, at which stage one's reader `undistorted_points` derives the
undistorted cloud points (the final U applied to the frame's depth image
at those pixels only, then back-projected; a pixel whose u(d) is not
positive is dropped). Initialization reads each frame once, so only one
frame's points are held at a time: it pairs the board plane with the
plane fitted to the wall points, and packs the frame's observations for
the refinement; the camera-depth rigid transform is solved from the plane
pairs. Throughout stage two a board plane is the board's z = 0 plane moved
by the frame's board pose, never a fit.

The refinement then jointly adjusts the global map coefficients (from the
identity map), the camera-depth transform, all board poses and the depth
intrinsics by damped least squares over two residual families:
checkerboard reprojection and point-to-board-plane distances. Rotations are
parameterized as axis-angle increments composed onto the initial
quaternions. Undistorted depth values stay fixed throughout; the depth
intrinsics only re-project pixels to 3D. The solver's normal equations are
summed frame by frame.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .calib_undistort import BoardSpec, CalibrationError, undistorted_points
from .geometry import (
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
        if not self.max_points_per_frame >= 1:
            raise CalibrationError("max_points_per_frame must be at least 1")


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


def build_observations(frame, wall, points, max_points) -> FrameObservations:
    """One frame's FrameObservations: its corners, plus an even subsample of
    at most `max_points` of its wall points `points` (N, 3), which lie at the
    True pixels of the (H, W) mask `wall`, row-major: their pixel
    coordinates and their undistorted depths, the z column.
    """
    n = points.shape[0]
    if n == 0:
        raise CalibrationError(f"frame {frame.frame_id}: empty inlier set")
    take = np.unique(np.linspace(0, n - 1, min(n, max_points)).astype(int))
    v, u = np.divmod(np.flatnonzero(wall)[take], np.shape(wall)[1])
    return FrameObservations(frame.frame_id, frame.corner_points.copy(),
                             np.column_stack([u, v]), points[take, 2])


def init_global(frames, walls, board_poses, umap: UndistortionMap,
                intr_depth: CameraIntrinsics, board: BoardSpec, max_points):
    """Initial camera-depth transform (plane pairs), and the refinement's
    observations.

    `frames` are the usable frames; `walls` and `board_poses` map each
    frame's id to its stage-one wall mask and board pose (board -> RGB
    camera). Each frame is read once: `undistorted_points` derives its wall
    points under the final U, so no list of every frame's points is held.
    Per frame: board plane from the board pose (the board's z = 0 plane
    moved by it), wall plane fitted to the wall points, and
    `build_observations` with at most `max_points` wall pixels. The rigid
    transform aligning board planes (camera frame) onto wall planes (depth
    frame) initializes the extrinsic. G needs no start here: the refinement
    starts it at the identity, and it enters the plane residual linearly.
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
        observations.append(build_observations(frame, kept, points, max_points))
    cam_to_depth = estimate_transform_from_planes(board_planes_cam, wall_planes_depth)
    return cam_to_depth.inverse(), observations


# ---------------------------------------------------------------------------
# vectorized refinement


# every residual row of a frame with a board corner behind the camera
_BEHIND_PENALTY = 1e6


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
    gmap free coefficients (3 * degree), then per frame rvec (3) + t (3)].
    Rotation vectors are increments on the initial quaternions. A frame with
    a board corner behind the camera has every row set to the penalty.
    """

    def __init__(self, state0: RefinementState, observations, intr_rgb,
                 board: BoardSpec):
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
            sigma = horner(KINECT1_QUANTIZATION, o.dhat)
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
        if not np.all(np.isfinite(x)):
            # no G is built at such a trial point: lm_minimize rejects it
            return np.full(self.corners_px.size + self.dhat.size, np.nan)
        m = len(self.obs)
        extr_q, pose_q = self._rotations(x)
        pose_r = quat_to_matrix(pose_q)
        pose_t = x[16:].reshape(m, 6)[:, 3:6]

        # reprojection block; a frame with a corner behind the camera
        # projects a placeholder, and its rows are the penalty
        corners_cam = np.einsum("mij,cj->mci", pose_r, self.board3d) + pose_t[:, None, :]
        behind = np.any(corners_cam[:, :, 2] <= 0, axis=1)
        proj = project_point(self.intr_rgb, np.where(
            behind[:, None, None], 1.0, corners_cam).reshape(-1, 3))
        r_repr = (proj.reshape(m, -1, 2) - self.corners_px) / SIGMA_C

        normals, offsets = _board_planes_depth(quat_to_matrix(extr_q), x[3:6],
                                              pose_r, pose_t)
        fx, fy, cx, cy = x[6], x[7], x[8], x[9]
        rays_x = (self.uv[:, :, 0] - cx) / fx
        rays_y = (self.uv[:, :, 1] - cy) / fy
        # G holds only the free corners, so the planarity constraint holds
        # at every evaluation
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
        r_repr[behind] = _BEHIND_PENALTY
        r_pos[behind] = _BEHIND_PENALTY
        return np.concatenate([r_repr.reshape(-1), r_pos.reshape(-1)])

    def frame_blocks(self, r):
        """Views of the rows of r by frame: reprojection (m, 2C, ...) and
        plane (m, S, ...), S the padded wall-point count (padding rows are 0).
        """
        m = len(self.obs)
        n_repr = m * self.board3d.shape[0] * 2
        return (r[:n_repr].reshape((m, -1) + r.shape[1:]),
                r[n_repr:].reshape((m, -1) + r.shape[1:]))

    def normal_equations(self, fn, x, r):
        """(JᵀJ, Jᵀr) of `lm_jacobian(fn, x, r)`, summed frame by frame.

        Frame k's rows depend only on the 16 global columns and frame k's 6
        pose columns, so pose component p is stepped in all frames by one
        evaluation (column grouping, Curtis, Powell & Reid 1974): 16 + 6
        evaluations, each column the same forward difference as
        `lm_jacobian`'s. Each frame's (R, 16 + 6) block adds to the global
        block of JᵀJ and gives its 16 x 6 cross block and its 6 x 6 diagonal
        pose block (Triggs et al. 2000, section 6).
        """
        steps = forward_steps(x)
        m = len(self.obs)

        def by_frame(v):
            return np.concatenate(self.frame_blocks(v), axis=1)

        r_frame = by_frame(r)
        jac = np.empty(r_frame.shape + (22,))  # (m, R, global + pose columns)
        for i in range(16):
            xp = x.copy()
            xp[i] += steps[i]
            jac[:, :, i] = by_frame((fn(xp) - r) / steps[i])
        pose_steps = steps[16:].reshape(m, 6)
        for p in range(6):
            xp = x.copy()
            xp[16 + p::6] += pose_steps[:, p]
            jac[:, :, 16 + p] = by_frame(fn(xp) - r) / pose_steps[:, p, None]

        prod = jac.transpose(0, 2, 1) @ jac  # (m, 22, 22)
        jtj = np.zeros((x.size, x.size))
        jtj[:16, :16] = prod[:, :16, :16].sum(axis=0)
        jtj[:16, 16:] = prod[:, :16, 16:].transpose(1, 0, 2).reshape(16, -1)
        jtj[16:, :16] = jtj[:16, 16:].T
        frames = np.arange(m)
        jtj[16:, 16:].reshape(m, 6, m, 6)[frames, :, frames, :] = prod[:, 16:, 16:]
        jtr = np.einsum("mri,mr->mi", jac, r_frame)
        return jtj, np.concatenate([jtr[:, :16].sum(axis=0), jtr[:, 16:].ravel()])

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
           board: BoardSpec):
    """Joint nonlinear refinement of (G, extrinsic, board poses, depth K).

    Returns (state, lm_result); lm_result carries the accepted-cost trace,
    non-increasing by construction. Logs at INFO the final cost split into
    its reprojection and plane terms, and the three frames with the largest
    residual RMS.
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
