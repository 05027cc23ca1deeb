"""Stage one of the calibration: undistortion map estimation.

Frames are processed nearest-first so the map learned from close, barely
distorted shots bootstraps the wall segmentation of the farther ones. The
board pose of every frame is solved once, by PnP, and serves both the
distance sort and the RANSAC seed plane (stage two reuses it too). Per
frame: back-project the current map's u(d) at the frame's valid pixels,
select the wall among those points with a checkerboard-seeded RANSAC
that stops scoring a candidate once it cannot win, fit the reference plane
to the *original* depths back-projected at the wall pixels near its
center, add one line-of-sight sample per control pixel to its running
weighted moments (FitMoments), and refit the touched control polynomials
from those moments. A frame's wall is one (H, W) bool mask, made once from
the RANSAC's flat pixel indices; the same mask leaves stage one.
`update_map` splats the samples onto the control pixels with
`UndistortionMap.splat`: the weights live in `maps`.

Sequential by design: each frame must see the map built from all nearer
frames.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    KINECT1_QUANTIZATION,
    Plane,
    RigidTransform,
    back_project,
    fit_plane,
    horner,
    plane_through,
    solve_pnp,
    transform_plane,
)
from .maps import MAX_DEGREE, FitMoments, MapError, UndistortionMap, fit_weighted_poly_batch

log = logging.getLogger(__name__)


class CalibrationError(RuntimeError):
    """Raised when a calibration stage cannot produce a usable result."""


@dataclass(frozen=True)
class BoardSpec:
    """Checkerboard geometry: inner corner grid and square size in meters."""

    rows: int
    cols: int
    square_size: float

    def __post_init__(self):
        if self.rows < 3 or self.cols < 3:
            raise CalibrationError("board needs at least a 3x3 inner corner grid")
        if not 0 < self.square_size < np.inf:
            raise CalibrationError("board square size must be positive and finite")

    def corners_3d(self):
        """Corner (r, c) -> (c * s, r * s, 0), row-major (R*C, 3)."""
        r, c = np.meshgrid(np.arange(self.rows), np.arange(self.cols), indexing="ij")
        out = np.zeros((self.rows * self.cols, 3))
        out[:, 0] = c.ravel() * self.square_size
        out[:, 1] = r.ravel() * self.square_size
        return out

    @property
    def plane(self):
        """The board plane in its own frame (z = 0)."""
        return Plane((0.0, 0.0, 1.0), 0.0)


@dataclass(frozen=True, eq=False)
class Frame:
    """One calibration shot: a depth image plus the detected corner grid."""

    frame_id: str
    depth: DepthImage
    corners: np.ndarray  # (rows, cols, 2) pixel coordinates in the RGB image

    def __init__(self, frame_id, depth, corners):
        corners = np.asarray(corners, dtype=float)
        if corners.ndim != 3 or corners.shape[2] != 2:
            raise CalibrationError("corners must form a (rows, cols, 2) grid")
        if not np.all(np.isfinite(corners)):
            raise CalibrationError(f"frame {frame_id}: incomplete corner grid")
        object.__setattr__(self, "frame_id", str(frame_id))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "corners", corners)
        self.corners.setflags(write=False)

    @property
    def corner_points(self):
        return self.corners.reshape(-1, 2)


# Fixed stage-one settings; the depth noise is geometry.KINECT1_QUANTIZATION.
KAPPA = 3.0  # RANSAC inlier threshold, multiples of sigma(z)
RANSAC_ITERATIONS = 50
SEED_ANGLE_DEG = 30.0  # gate: max angle between candidate and seed normals
SEED_OFFSET_M = 0.3  # gate: max offset difference to the seed plane
# minimum sample depth spread (meters) before a curvature degree is
# trusted; narrow arcs make super-linear terms explode under extrapolation
MIN_SPREAD_LINEAR = 0.05
MIN_SPREAD_SUPERLINEAR = 0.8


@dataclass(frozen=True)
class UndistortConfig:
    """Free parameters of stage one."""

    chi: int = 4  # bin size along u, pixels
    psi: int = 4  # bin size along v, pixels
    degree: int = 2
    fit_radius: float = 120.0  # pixels around the inlier centroid used for the plane fit
    min_inliers: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("chi", "psi", "degree", "min_inliers", "fit_radius"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise CalibrationError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.degree > MAX_DEGREE:
            raise CalibrationError(f"degree must be at most {MAX_DEGREE}, got {self.degree!r}")


def sort_frames_by_distance(frames, intr_rgb: CameraIntrinsics, board: BoardSpec):
    """(frame, board pose) pairs ordered by ascending board distance.

    The pose (board -> RGB camera) is solved once per frame by PnP and its
    z-translation is the distance. Frames whose pose estimation fails are
    dropped with a warning. The sort is stable, so equal distances preserve
    the input order.
    """
    keyed = []
    for frame in frames:
        try:
            pose, _ = solve_pnp(board.corners_3d(), frame.corner_points, intr_rgb)
        except GeometryError as exc:
            log.warning("frame %s dropped: PnP failed (%s)", frame.frame_id, exc)
            continue
        keyed.append((float(pose.translation[2]), frame, pose))
    keyed.sort(key=lambda kv: kv[0])
    return [(frame, pose) for _, frame, pose in keyed]


def _seed_plane(board_pose, t0, board) -> Plane:
    """Checkerboard plane moved into the depth sensor frame via t0."""
    plane_cam = transform_plane(board_pose, board.plane)
    return transform_plane(t0.inverse(), plane_cam)


def undistorted_points(umap, depth: DepthImage, pixels, intr: CameraIntrinsics):
    """A frame read at the True pixels of the (H, W) mask `pixels` only:
    (kept, points), the mask of those pixels where d and u(d) are positive,
    which `apply_undistortion` leaves valid, and the points (N, 3) of
    `depth_to_cloud(apply_undistortion(umap, depth), intr)` there, row-major
    and bit for bit. u(d) is the Horner of `maps.correct_rows` on U's cached
    per-pixel coefficients, run over the whole frame. Stage one reads a
    frame at its valid pixels, stage two at its wall.
    """
    if (depth.width, depth.height) != (intr.width, intr.height):
        raise GeometryError("depth image size does not match intrinsics")
    if np.shape(pixels) != (depth.height, depth.width):
        raise GeometryError("pixel mask size does not match the depth image")
    if (depth.width, depth.height) != (umap.width, umap.height):
        raise MapError("input size does not match the map")
    d = depth.data
    z = horner(umap.dense_coefficients(), d)
    kept = np.asarray(pixels, dtype=bool) & (d > 0.0) & (z > 0.0)
    v, u = np.nonzero(kept)
    return kept, back_project(z[kept], u, v, intr)


# Rows per chunk of a RANSAC score. A chunk needs at least 2 rows: a 1-row
# `points @ normal` is a dot product whose bits can differ from the
# matrix-vector product's, while row chunks of 2 or more give its bits.
SCORE_CHUNK = 8192


def _chunk_bounds(n, size=SCORE_CHUNK):
    """Start and stop rows of the chunks of n rows, each of at least 2 rows
    when n >= 2: a last chunk of 1 row joins the one before it."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def select_wall_points(points, pixels, board_pose: RigidTransform, t0: RigidTransform,
                       board: BoardSpec, cfg: UndistortConfig, rng):
    """The wall's pixels by checkerboard-seeded RANSAC on undistorted points:
    their flat row-major indices into the (H, W) mask `pixels`, ascending.

    `points` (N, 3) lie at the True pixels of `pixels`, row-major. The
    consensus plane must stay near the seed (normal angle and offset
    gates), which rejects other scene planes such as the floor. The inlier
    threshold scales with the quantization noise at the seed depth. `rng`
    draws the RANSAC samples, all 3 * RANSAC_ITERATIONS indices in one call.

    The seed plane is scored first. A candidate wins only with strictly
    more inliers than the best so far, so it is scored in row chunks and
    dropped once its count plus the rows left cannot exceed the best
    (Capel's bail-out test, exact form); once the best counts every point,
    no further candidate is formed. The winner's mask, the refit on it and
    the recount are those of scoring every candidate in full.
    """
    seed = _seed_plane(board_pose, t0, board)
    n = points.shape[0]
    if n != np.count_nonzero(pixels):
        raise CalibrationError("wall selection needs one point per pixel")
    if n < cfg.min_inliers:
        raise CalibrationError("not enough valid depth points for wall selection")

    if abs(seed.normal[2]) > 0.2:
        z_bar = seed.offset / abs(seed.normal[2])
    else:
        z_bar = float(np.mean(points[:, 2]))
    threshold = KAPPA * horner(KINECT1_QUANTIZATION, z_bar)
    cos_gate = np.cos(np.deg2rad(SEED_ANGLE_DEG))
    chunks = _chunk_bounds(n)
    dist = np.empty(min(n, SCORE_CHUNK + 1))  # a last chunk may hold one row more

    def near_seed(plane):
        return (abs(plane.normal @ seed.normal) >= cos_gate
                and abs(plane.offset - seed.offset) <= SEED_OFFSET_M)

    def count_inliers(plane, mask, beat=-1):
        """The inliers of `plane` into `mask` (N,) and their count; stops
        with a count <= `beat` once the count cannot exceed `beat`."""
        count = 0
        for start, stop in chunks:
            if count + (n - start) <= beat:
                break
            d = dist[:stop - start]
            np.matmul(points[start:stop], plane.normal, out=d)
            d -= plane.offset
            np.abs(d, out=d)
            count += np.count_nonzero(np.less_equal(d, threshold, out=mask[start:stop]))
        return count

    best_mask, mask = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    best_count = count_inliers(seed, best_mask)
    for take in rng.integers(0, n, size=(RANSAC_ITERATIONS, 3)):
        if best_count >= n:  # no candidate can count more
            break
        try:
            cand = plane_through(points[take])
        except GeometryError:  # repeated or collinear draw
            continue
        if not near_seed(cand):
            continue
        count = count_inliers(cand, mask, best_count)
        if count > best_count:
            best_mask, mask, best_count = mask, best_mask, count
    if best_count < cfg.min_inliers:
        raise CalibrationError("no candidate plane near the checkerboard seed "
                               f"({best_count} inliers < {cfg.min_inliers})")
    # consensus refinement: refit on the inliers, recount once
    refined = fit_plane(np.compress(best_mask, points, axis=0))
    if near_seed(refined) and count_inliers(refined, mask) >= cfg.min_inliers:
        best_mask = mask
    return np.flatnonzero(pixels)[best_mask]


def fit_reference_plane(points, wall, cfg: UndistortConfig) -> Plane:
    """Reference plane for the map update, fit to the original (distorted)
    cloud's points (N, 3) at the True pixels of the (H, W) mask `wall`,
    row-major.

    Only wall pixels within `fit_radius` of the wall's pixel centroid are
    used; restricting the fit to the wall center keeps it stable under the
    depth-dependent distortion at the image borders. The centroid is the
    mean of the integer pixel coordinates: their sums are exact, so it has
    the bits of the mean of the coordinates as floats.
    """
    v, u = np.nonzero(wall)
    if u.size == 0:
        raise CalibrationError("empty inlier set")
    if points.shape[0] != u.size:
        raise CalibrationError("reference plane needs one point per wall pixel")
    keep = np.hypot(u - u.mean(), v - v.mean()) <= cfg.fit_radius
    if np.count_nonzero(keep) < 3:
        raise CalibrationError("fewer than 3 inliers inside the fit radius")
    return fit_plane(points[keep])


def update_map(umap: UndistortionMap, moments: FitMoments, points, wall,
               plane: Plane) -> UndistortionMap:
    """One frame's map update; returns the new map and adds to `moments` in place.

    `points` (N, 3) are the cloud points at the True pixels of the (H, W)
    mask `wall`, row-major. Every such pixel contributes (w, z, z_plane) to
    the sample pools of its 4 surrounding control pixels with its bilinear
    weight, summed by `umap.splat`; per control pixel the weighted mean
    becomes this frame's one sample, which is added to the pixel's running
    moments, and the control polynomial is refit from them. Control pixels
    receiving no samples, and pixels whose fit is underdetermined or
    singular, keep their previous function.
    """
    denom = points @ plane.normal
    good = np.abs(denom) > 1e-12  # drop rays parallel to the plane
    wall = np.array(wall, dtype=bool)
    wall[wall] = good
    z = points[good, 2]
    z_pi = plane.offset * z / denom[good]
    gh, gw = umap.grid_shape
    w_sum, wz_sum, wzpi_sum = umap.splat(wall, (1.0, z, z_pi)).reshape(3, gh * gw)

    sel = np.nonzero(w_sum > 0)[0]
    moments.add(sel, wz_sum[sel] / w_sum[sel], wzpi_sum[sel] / w_sum[sel])

    # Refit only the control functions whose moments changed. While a
    # control pixel has too few samples, or too narrow a depth spread, for
    # the full degree, fit the best determined lower degree instead so
    # nearer frames can bootstrap the wall segmentation of farther ones;
    # keep the previous function when even a line is underdetermined.
    zpow = moments.zpow.reshape(gh * gw, -1)[sel]
    zpi = moments.zpi.reshape(gh * gw, -1)[sel]
    count = moments.count.reshape(gh * gw)[sel]
    spread = moments.zmax.reshape(gh * gw)[sel] - moments.zmin.reshape(gh * gw)[sel]
    new_coeffs = umap.coefficients.copy()
    flat_out = new_coeffs.reshape(gh * gw, -1)
    pending = np.ones(sel.size, dtype=bool)
    for deg in range(umap.degree, 0, -1):
        if not np.any(pending):
            break
        min_spread = MIN_SPREAD_LINEAR if deg == 1 else MIN_SPREAD_SUPERLINEAR
        rows = np.nonzero(pending & (spread >= min_spread))[0]
        if rows.size == 0:
            continue
        coeffs, ok = fit_weighted_poly_batch(zpow[rows], zpi[rows], count[rows], deg)
        good = rows[ok]
        flat_out[sel[good], :] = 0.0
        flat_out[sel[good], :deg + 1] = coeffs[ok]
        pending[good] = False
    if np.any(pending):
        log.debug("update_map: %d control fits deferred (underdetermined)",
                  int(pending.sum()))
    return umap.with_coefficients(new_coeffs)


def estimate_undistortion_map(frames, t0: RigidTransform, intr_rgb: CameraIntrinsics,
                              intr_depth: CameraIntrinsics, board: BoardSpec,
                              cfg: UndistortConfig):
    """Run stage one over a frame list.

    Returns (map, walls, board_poses). walls maps the id of every usable
    frame to its wall: a read-only (H, W) bool mask of the pixels
    `select_wall_points` selected for it, 1 byte per pixel where pixel
    coordinates take 16 per wall pixel. board_poses maps the same ids to the
    frame's PnP board pose (board -> RGB camera). Stage two reads both, so
    frame ids must be distinct. Deterministic for a fixed cfg.seed.
    """
    if len(frames) < cfg.degree + 1:
        raise CalibrationError(
            f"need at least {cfg.degree + 1} frames for a degree-{cfg.degree} map")
    seen = set()
    for frame in frames:
        if frame.frame_id in seen:
            raise CalibrationError(f"frame id {frame.frame_id!r} is given more than once")
        seen.add(frame.frame_id)
    rng = np.random.default_rng(cfg.seed)
    ordered = sort_frames_by_distance(frames, intr_rgb, board)
    if len(ordered) < cfg.degree + 1:
        raise CalibrationError("too few frames with a usable board pose")

    width, height = intr_depth.width, intr_depth.height
    umap = UndistortionMap.identity(width, height, cfg.chi, cfg.psi, cfg.degree)
    moments = FitMoments(umap.grid_shape, cfg.degree)
    walls, board_poses = {}, {}
    for frame, pose in ordered:
        pixels, points = undistorted_points(umap, frame.depth, frame.depth.valid,
                                            intr_depth)
        try:
            flat = select_wall_points(points, pixels, pose, t0, board, cfg, rng)
            wall = np.zeros((height, width), dtype=bool)
            wall.reshape(-1)[flat] = True
            v, u = np.nonzero(wall)
            original = back_project(frame.depth.data.reshape(-1).take(flat), u, v,
                                    intr_depth)
            plane = fit_reference_plane(original, wall, cfg)
        except (CalibrationError, GeometryError) as exc:
            log.warning("frame %s skipped: %s", frame.frame_id, exc)
            continue
        umap = update_map(umap, moments, original, wall, plane)
        wall.setflags(write=False)
        walls[frame.frame_id] = wall
        board_poses[frame.frame_id] = pose
    if len(walls) < cfg.degree + 1:
        raise CalibrationError("too few usable frames after wall selection")
    return umap, walls, board_poses
