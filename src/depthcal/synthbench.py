"""Synthetic depth sensor oracle and the evaluation metrics.

Renders depth frames of a wall (plus optional floor) seen by a simulated
RGB-D pair with a known per-pixel distortion field, global depth bias,
noise model and camera-depth extrinsic. The injected corruption is stored
in the *correction* direction (the fields the calibration should recover),
and frames are corrupted with its exact closed-form inverse, so stage one
and two can be validated coefficient by coefficient. That inverse is the
quadratic formula, so the field is quadratic and the global bias, like
every depth polynomial of the package a coefficient array that
`geometry.horner` evaluates, has degree 1 or 2.

The metrics score a cloud on a pixel set, such as a test frame's wall:
a (height, width) bool mask, whose points `OrganizedCloud.points_at`
gathers.

Rendering is deterministic per (scene, frame index): every frame draws from
its own RNG stream, so serial and parallel generation produce identical
bytes. Ground-truth data is consumed only by evaluation code, never by the
calibration paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calib_undistort import BoardSpec, CalibrationError, Frame
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    KINECT1_QUANTIZATION,
    OrganizedCloud,
    Plane,
    RigidTransform,
    axis_angle_to_quat,
    fit_plane,
    horner,
    project_point,
    quat_multiply,
    quat_to_matrix,
    transform_plane,
)
from .maps import UndistortionMap

LABEL_NONE = 0
LABEL_WALL = 1
LABEL_FLOOR = 2

DEPTH_RANGE = (0.4, 6.0)  # depths the sensor reports, meters
FLOOR_GAP = 0.4  # the floor stops this far in front of the wall, meters


class RenderError(RuntimeError):
    """Raised when a sensor pose cannot produce a usable frame."""


def invert_monotone_quadratic(a, b, c, y):
    """Solve a + b x + c x^2 = y for x on the monotone increasing branch.

    Stable two-sided form that degrades gracefully to (y - a) / b as c -> 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    disc = b * b + 4.0 * c * (y - a)
    if np.any(disc <= 0):
        raise ValueError("quadratic is not invertible at the requested value")
    return 2.0 * (y - a) / (b + np.sqrt(disc))


@dataclass(frozen=True, eq=False)
class GroundTruthDistortion:
    """Injected sensor corruption, parameterized in the correction direction.

    `undistortion_field` holds the per-control-pixel quadratics that map an
    observed depth back to the distortion-free one; `global_correction` maps
    the distortion-free depth to the true one, a polynomial held as its
    read-only coefficient array, constant term (0) first. Frames are
    corrupted with the exact inverses, applied bias first and distortion
    second, so the composition global(undistortion(observed)) recovers the
    truth. `corrupt` inverts each by the quadratic formula, so the field has
    degree 2 and the global correction degree 1 or 2.
    """

    undistortion_field: UndistortionMap
    global_correction: np.ndarray

    def __post_init__(self):
        gc = np.array(self.global_correction, dtype=float)
        gc.setflags(write=False)
        object.__setattr__(self, "global_correction", gc)
        c = self.undistortion_field.coefficients
        if c.shape[2] != 3 or gc.shape not in ((2,), (3,)):
            raise ValueError("the renderer inverts a field of degree 2 and a "
                             "global correction of degree 1 or 2 only")
        if gc[0] != 0.0:
            raise ValueError("global correction must have a zero constant term")
        if not np.all(np.isfinite(np.append(c, gc))):
            raise ValueError("distortion coefficients must be finite")
        # every control quadratic and the global correction rise on [0.5, 5] m
        for z in (0.5, 5.0):
            if not np.all(c[:, :, 1] + 2.0 * c[:, :, 2] * z > 0):
                raise ValueError("undistortion field is not monotone on [0.5, 5] m")
            if not sum(k * gc[k] * z ** (k - 1) for k in range(1, len(gc))) > 0:
                raise ValueError("global correction is not monotone on [0.5, 5] m")

    def corrupt(self, true_depth, valid):
        """Forward corruption of a (H, W) true depth field (noise-free part)."""
        g = self.global_correction
        d = np.where(valid, true_depth, 1.0)
        biased = invert_monotone_quadratic(0.0, g[1], g[2] if len(g) > 2 else 0.0, d)
        dense = self.undistortion_field.dense_coefficients()
        observed = invert_monotone_quadratic(dense[:, :, 0], dense[:, :, 1],
                                             dense[:, :, 2], biased)
        return np.where(valid, observed, 0.0)

    def correct_exact(self, u, v, observed):
        """Oracle correction of observed depths at pixel (u, v)."""
        coeffs = self.undistortion_field.pixel_coefficients(u, v)
        undist = sum(coeffs[..., k] * observed ** k for k in range(coeffs.shape[-1]))
        return horner(self.global_correction, undist)


def bowl_distortion(width, height, peak=0.022, flat_frac=0.2, asym=0.15,
                    zero_depth=1.05, grid_bin=(2, 2),
                    global_correction=None) -> GroundTruthDistortion:
    """Representative wall-bulge distortion field with a lateral asymmetry.

    The observed depth deviates by gamma(u, v) * z * (z - zero_depth):
    negligible near `zero_depth` (every pixel segments as wall in close-range
    shots) and growing quadratically with depth, like the myopic bulge of a
    structured-light sensor. gamma is exactly zero inside `flat_frac` of the
    image half-width and follows a half-cosine rise to `peak` at the
    left/right borders (times 1 +- asym top to bottom). The cosine keeps the
    field gradient zero at the borders and its curvature low everywhere,
    which the binned estimator needs: it sees hat-weighted neighborhood
    means, not point samples.
    """
    if not 0.0 <= flat_frac < 1.0:
        raise ValueError(f"flat_frac must be in [0, 1), got {flat_frac!r}")
    if min(width, height) < 2:
        raise ValueError(f"image width and height must be at least 2, got {width}x{height}")
    chi, psi = grid_bin
    fieldmap = UndistortionMap.identity(width, height, chi, psi, degree=2)
    gh, gw = fieldmap.grid_shape
    uu, vv = np.meshgrid(np.arange(gw) * chi, np.arange(gh) * psi)
    x = (uu - (width - 1) / 2.0) / ((width - 1) / 2.0)
    y = (vv - (height - 1) / 2.0) / ((height - 1) / 2.0)
    rise = np.clip((np.abs(x) - flat_frac) / (1.0 - flat_frac), 0.0, 1.0)
    gamma = peak * 0.5 * (1.0 - np.cos(np.pi * rise)) * (1.0 + asym * y)
    # undistortion r(d) = d - gamma * d * (d - zero_depth), quadratic per pixel
    coeffs = np.zeros((gh, gw, 3))
    coeffs[:, :, 1] = 1.0 + gamma * zero_depth
    coeffs[:, :, 2] = -gamma
    if global_correction is None:
        global_correction = (0.0, 1.0, 0.0)
    return GroundTruthDistortion(fieldmap.with_coefficients(coeffs), global_correction)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """World geometry, sensor rig and acquisition protocol for the oracle."""

    wall: Plane
    floor: Plane | None
    board: BoardSpec
    board_pose: RigidTransform  # board -> world; the board lies on the wall
    true_extrinsic: RigidTransform  # depth -> camera
    intr_rgb: CameraIntrinsics
    intr_depth: CameraIntrinsics
    distortion: GroundTruthDistortion
    train_poses: tuple  # depth-sensor poses in the world frame
    test_distances: tuple  # fronto-parallel wall distances, strictly increasing
    noise: bool = True
    sigma_c: float = 0.2  # corner detection noise, pixels
    seed: int = 0

    def __post_init__(self):
        board_plane_world = transform_plane(self.board_pose, self.board.plane)
        if (abs(board_plane_world.normal @ self.wall.normal) < 1.0 - 1e-9
                or abs(board_plane_world.offset - self.wall.offset) > 1e-9):
            raise ValueError("board pose must place the board on the wall plane")
        if list(self.test_distances) != sorted(set(self.test_distances)):
            raise ValueError("test distances must be strictly increasing")
        if not self.sigma_c >= 0.0:
            raise ValueError(f"sigma_c must not be negative, got {self.sigma_c}")

    @property
    def n_train(self):
        return len(self.train_poses)

    @property
    def n_frames(self):
        return len(self.train_poses) + len(self.test_distances)

    def pose(self, index) -> RigidTransform:
        """Depth-sensor pose in the world for frame `index` (train, then test)."""
        if index < 0 or index >= self.n_frames:
            raise IndexError("frame index out of range")
        if index < self.n_train:
            return self.train_poses[index]
        d = self.test_distances[index - self.n_train]
        return RigidTransform((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -d))

    def frame_id(self, index):
        if index < self.n_train:
            return f"train_{index:03d}"
        return f"test_{index - self.n_train:02d}"

    def is_test(self, index):
        return index >= self.n_train


def standard_scene(n_train=50, n_test=8, seed=0, noise=True, width=320, height=240,
                   distortion=None, extrinsic=None, distance_range=(1.0, 4.0),
                   tilt_deg=12.0, test_range=(1.0, 4.5), floor_y=None,
                   sigma_c=0.2) -> SceneSpec:
    """Default calibration scene: wall at z=0, board centered on it, floor below.

    Training poses vary distance, tilt about both image axes and lateral
    offset; test poses face the wall square-on at evenly spaced distances.
    """
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one training and one test pose")
    board = BoardSpec(rows=6, cols=8, square_size=0.1)
    extent = np.array([board.cols - 1, board.rows - 1]) * board.square_size
    board_pose = RigidTransform((1, 0, 0, 0), (-extent[0] / 2, -extent[1] / 2, 0.0))
    intr_rgb = CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                                width=640, height=480, radial_dist=(-0.05,))
    intr_depth = CameraIntrinsics(fx=290.0 * width / 320, fy=290.0 * width / 320,
                                  cx=width / 2 - 0.5, cy=height / 2 - 0.5,
                                  width=width, height=height)
    if distortion is None:
        distortion = bowl_distortion(width, height)
    if extrinsic is None:
        axis = np.array([1.0, 2.0, -1.0])
        axis /= np.linalg.norm(axis)
        extrinsic = RigidTransform(axis_angle_to_quat(axis * np.deg2rad(0.8)),
                                   (0.025, 0.004, -0.006))
    rng = np.random.default_rng([seed, 0xD15C])
    # graded distance ladder: the iterative estimation needs the near range
    # sampled densely so each bin can bootstrap before the wall segmentation
    # meets the strongly distorted far shots
    distances = np.geomspace(distance_range[0], distance_range[1], n_train)
    distances = distances * rng.uniform(0.99, 1.01, n_train)
    poses = []
    for dist in distances:
        # orbit the board center: tilt against the wall while keeping the
        # board framed, the way an operator sweeps the sensor by hand
        tx = np.deg2rad(rng.uniform(-tilt_deg, tilt_deg))
        ty = np.deg2rad(rng.uniform(-tilt_deg, tilt_deg))
        offset = rng.uniform(-0.05, 0.05, size=2) * dist
        q = quat_multiply(axis_angle_to_quat((tx, 0, 0)),
                          axis_angle_to_quat((0, ty, 0)))
        zdir = quat_to_matrix(q) @ (0.0, 0.0, 1.0)
        position = -dist * zdir + (offset[0], offset[1], 0.0)
        poses.append(RigidTransform(q, position))
    test_distances = tuple(np.round(np.linspace(*test_range, n_test), 6))
    return SceneSpec(
        wall=Plane((0, 0, 1.0), 0.0),
        floor=Plane((0, 1.0, 0), floor_y) if floor_y else None,
        board=board,
        board_pose=board_pose,
        true_extrinsic=extrinsic,
        intr_rgb=intr_rgb,
        intr_depth=intr_depth,
        distortion=distortion,
        train_poses=tuple(poses),
        test_distances=test_distances,
        noise=noise,
        sigma_c=sigma_c,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class LabeledFrame:
    """A rendered frame plus the ground truth the calibration never sees."""

    frame: Frame
    labels: np.ndarray  # (H, W) int8: 0 none, 1 wall, 2 floor
    true_depth: DepthImage
    true_board_pose: RigidTransform  # board -> RGB camera
    wall_distance: float  # wall depth along the optical axis, meters
    is_test: bool


def render_frame(scene: SceneSpec, index) -> LabeledFrame:
    """Render one frame of the scene through the corrupted depth sensor."""
    pose = scene.pose(index)
    world_to_sensor = pose.inverse()
    wall_s = transform_plane(world_to_sensor, scene.wall)
    intr = scene.intr_depth

    u = (np.arange(intr.width) - intr.cx) / intr.fx
    v = (np.arange(intr.height) - intr.cy) / intr.fy
    rays = np.empty((intr.height, intr.width, 3))
    rays[:, :, 0] = u[None, :]
    rays[:, :, 1] = v[:, None]
    rays[:, :, 2] = 1.0

    def plane_depth(plane):
        denom = rays @ plane.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = plane.offset / denom
        t[~np.isfinite(t) | (t <= 0)] = np.inf
        return t

    depth = plane_depth(wall_s)
    labels = np.where(np.isfinite(depth), LABEL_WALL, LABEL_NONE).astype(np.int8)
    if scene.floor is not None:
        floor_s = transform_plane(world_to_sensor, scene.floor)
        t_floor = plane_depth(floor_s)
        # the floor stops short of the wall, so no floor point sits inside
        # the wall's RANSAC slab near the seam
        hit_to_wall = (rays @ wall_s.normal) * t_floor - wall_s.offset
        floor_wins = (t_floor < depth) & (hit_to_wall <= -FLOOR_GAP)
        depth = np.where(floor_wins, t_floor, depth)
        labels = np.where(floor_wins, LABEL_FLOOR, labels)
    lo, hi = DEPTH_RANGE
    in_range = np.isfinite(depth) & (depth >= lo) & (depth <= hi)
    if not np.any(in_range & (labels == LABEL_WALL)):
        raise RenderError(f"pose {index} sees no wall")
    true_depth = np.where(in_range, depth, 0.0)

    observed = scene.distortion.corrupt(true_depth, in_range)
    rng = np.random.default_rng([scene.seed, int(index)])
    if scene.noise:
        noise = rng.normal(0.0, 1.0, observed.shape)
        sigma = horner(KINECT1_QUANTIZATION, np.where(in_range, observed, 1.0))
        observed = observed + noise * sigma
        observed = np.round(observed * 1000.0) / 1000.0  # millimeter quantization
    valid = in_range & (observed > 0)
    observed = np.where(valid, observed, 0.0)
    labels = np.where(valid, labels, LABEL_NONE).astype(np.int8)

    board_to_camera = scene.true_extrinsic.compose(world_to_sensor).compose(scene.board_pose)
    corners_cam = board_to_camera.apply(scene.board.corners_3d())
    if np.any(corners_cam[:, 2] <= 0):
        raise RenderError(f"pose {index} has board corners behind the camera")
    corner_px = project_point(scene.intr_rgb, corners_cam)
    if scene.noise:
        corner_px = corner_px + rng.normal(0.0, scene.sigma_c, corner_px.shape)
    inside = ((corner_px[:, 0] >= 0) & (corner_px[:, 0] < scene.intr_rgb.width)
              & (corner_px[:, 1] >= 0) & (corner_px[:, 1] < scene.intr_rgb.height))
    if not np.all(inside):
        raise RenderError(f"pose {index} places board corners outside the RGB image")

    frame = Frame(scene.frame_id(index),
                  DepthImage(intr.width, intr.height, observed),
                  corner_px.reshape(scene.board.rows, scene.board.cols, 2))
    wall_distance = float(wall_s.offset / wall_s.normal[2])
    return LabeledFrame(frame=frame, labels=labels,
                        true_depth=DepthImage(intr.width, intr.height, true_depth),
                        true_board_pose=board_to_camera,
                        wall_distance=wall_distance,
                        is_test=scene.is_test(index))


def generate_dataset(scene: SceneSpec, out_dir):
    """Render and write a dataset directory (manifest, PGM depths, corner CSVs).

    The manifest holds the test frames' true wall distances; the injected
    fields, extrinsic and board poses stay in `scene`. Returns the directory
    path.
    """
    from . import formats

    if scene.n_train < 10:
        raise ValueError("need at least 10 training frames")
    frames = [render_frame(scene, k) for k in range(scene.n_frames)]
    return formats.write_dataset(scene, frames, out_dir)


# ---------------------------------------------------------------------------
# metrics


def planarity_error(cloud: OrganizedCloud, inliers: np.ndarray) -> float:
    """RMS distance of the points at the inlier mask to their own best-fit plane."""
    if np.count_nonzero(inliers) < 3:
        raise CalibrationError("planarity error needs at least 3 inliers")
    pts = cloud.points_at(inliers)
    plane = fit_plane(pts)
    return float(np.sqrt(np.mean(plane.signed_distance(pts) ** 2)))


def global_error(cloud: OrganizedCloud, inliers: np.ndarray, board_plane: Plane) -> float:
    """Mean signed distance of the points at the inlier mask to the checkerboard plane."""
    if np.count_nonzero(inliers) == 0:
        raise CalibrationError("global error needs a non-empty inlier set")
    pts = cloud.points_at(inliers)
    return float(np.mean(board_plane.signed_distance(pts)))


def rotation_error(normal, axis) -> float:
    """Tilt of a fitted plane normal against an in-plane axis, degrees.

    Zero when the normal is perpendicular to the axis; computed as
    acos(n . a) - pi/2.
    """
    normal = np.asarray(normal, dtype=float)
    axis = np.asarray(axis, dtype=float)
    for vec in (normal, axis):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise ValueError("rotation_error expects unit vectors")
    dot = float(np.clip(normal @ axis, -1.0, 1.0))
    return float(np.degrees(np.arccos(dot) - np.pi / 2.0))


def depth_vs_ground_truth(cloud: OrganizedCloud, inliers: np.ndarray,
                          true_distance: float) -> float:
    """Mean depth at the inlier mask minus the laser-meter distance of a test frame."""
    if np.count_nonzero(inliers) == 0:
        raise CalibrationError("depth comparison needs a non-empty inlier set")
    z = cloud.points_at(inliers)[:, 2]
    return float(np.mean(z) - true_distance)
