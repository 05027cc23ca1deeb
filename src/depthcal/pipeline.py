"""End-to-end calibration driver plus the real-time correction entry point."""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calib_global import GlobalConfig, RefinementState, init_global, refine
from .calib_undistort import (
    BoardSpec,
    UndistortConfig,
    estimate_undistortion_map,
)
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    GeometryError,
    OrganizedCloud,
    RigidTransform,
    back_project,
)
from .maps import GlobalMap, UndistortionMap, check_sizes, correct_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalibrationResult:
    """Everything the two-stage calibration estimates, plus run diagnostics."""

    umap: UndistortionMap
    gmap: GlobalMap
    extrinsic: RigidTransform  # depth -> camera
    intr_depth: CameraIntrinsics
    intr_rgb: CameraIntrinsics
    inlier_sets: dict  # frame id -> (H, W) bool wall mask, usable frames only
    cost_trace: tuple
    timings: dict


def calibrate(frames, t0: RigidTransform, intr_rgb: CameraIntrinsics,
              intr_depth: CameraIntrinsics, board: BoardSpec,
              undistort_cfg: UndistortConfig = UndistortConfig(),
              global_cfg: GlobalConfig = GlobalConfig()) -> CalibrationResult:
    """Run both calibration stages over a frame list.

    `t0` is the rough initial camera-depth transform (factory values are
    fine); `intr_depth` is the initial depth intrinsics guess that stage two
    refines. Stage one leaves each usable frame's wall as a bool mask.
    Stage two sees a frame only as its wall: the back-projection of its
    depth image, undistorted by the final U, at the mask's pixels.
    `init_global` derives those points frame by frame, once per pass, and
    returns the observations; `refine` runs on the observations alone.
    """
    timings = {}
    tic = time.perf_counter()
    umap, walls, board_poses = estimate_undistortion_map(
        frames, t0, intr_rgb, intr_depth, board, undistort_cfg)
    timings["undistortion_map"] = time.perf_counter() - tic

    usable = [f for f in frames if f.frame_id in walls]
    tic = time.perf_counter()
    gmap0, extr0, observations = init_global(
        usable, walls, board_poses, umap, intr_depth, board,
        global_cfg.max_points_per_frame)
    timings["global_init"] = time.perf_counter() - tic

    state0 = RefinementState(
        extrinsic=extr0, board_poses=tuple(board_poses[f.frame_id] for f in usable),
        intr_depth=intr_depth, gmap=gmap0)
    tic = time.perf_counter()
    state, lm_result = refine(state0, observations, intr_rgb, board)
    timings["refinement"] = time.perf_counter() - tic
    log.info("calibration done: %d frames, refine cost %.4e -> %.4e "
             "in %d iterations",
             len(usable), lm_result.cost_trace[0], lm_result.final_cost,
             lm_result.iterations)
    return CalibrationResult(
        umap=umap,
        gmap=state.gmap,
        extrinsic=state.extrinsic,
        intr_depth=state.intr_depth,
        intr_rgb=intr_rgb,
        inlier_sets=walls,
        cost_trace=tuple(lm_result.cost_trace),
        timings=timings,
    )


def apply_calibration(umap: UndistortionMap, gmap: GlobalMap, img: DepthImage,
                      intr: CameraIntrinsics, threads: int = 1) -> OrganizedCloud:
    """Correct one depth frame (d* = g(u(d))) and back-project it.

    Sizes are checked first. The image is then split into min(threads, H)
    row bands, each corrected by `maps.correct_rows` and back-projected into
    preallocated arrays. The calling thread runs the first band and a
    per-call pool runs the others concurrently. The per-pixel arithmetic
    does not depend on the bands, so every thread count gives the same
    result. With an identity G it is, bit for bit, the undistorted cloud
    `depth_to_cloud(apply_undistortion(umap, img), intr)` the stages read.
    """
    check_sizes(umap, gmap, img)
    if (img.width, img.height) != (intr.width, intr.height):
        raise GeometryError("depth image size does not match intrinsics")
    dense_u = umap.dense_coefficients()
    h, w = img.height, img.width
    pts = np.empty((h, w, 3))
    valid = np.empty((h, w), dtype=bool)
    scratch = np.empty((2, h, w))

    def run_band(v0, v1):
        z = pts[v0:v1, :, 2]
        correct_rows(dense_u, gmap, img.data, v0, v1, z, valid[v0:v1],
                     scratch[:, v0:v1])
        back_project(z, np.arange(w), np.arange(v0, v1)[:, None], intr, out=pts[v0:v1])

    bands = max(1, min(threads, h))
    bounds = np.linspace(0, h, bands + 1).astype(int)
    if bands == 1:
        run_band(0, h)
    else:
        with ThreadPoolExecutor(max_workers=bands - 1) as pool:
            others = pool.map(run_band, bounds[1:-1], bounds[2:])
            run_band(bounds[0], bounds[1])
            list(others)
    return OrganizedCloud(w, h, pts, valid)
