"""End-to-end calibration driver plus the real-time correction entry point."""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calib_global import GMAP_DEGREE, GlobalConfig, RefinementState, init_global, refine
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
from .maps import BLOCK_ROWS, GlobalMap, UndistortionMap, check_sizes, correct_rows

log = logging.getLogger(__name__)

# maps.BLOCK_ROWS: rows per correction block on one thread, and the fewest
# in a block shared between threads (see maps for the cache sizes behind
# it). Shared blocks are larger: a numpy call that ends while another
# thread holds the GIL waits for it.


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
    `init_global` derives those points once per frame and returns the
    observations; `refine` runs on the observations alone, with G starting
    at the identity.
    """
    timings = {}
    tic = time.perf_counter()
    umap, walls, board_poses = estimate_undistortion_map(
        frames, t0, intr_rgb, intr_depth, board, undistort_cfg)
    timings["undistortion_map"] = time.perf_counter() - tic

    usable = [f for f in frames if f.frame_id in walls]
    tic = time.perf_counter()
    extr0, observations = init_global(
        usable, walls, board_poses, umap, intr_depth, board,
        global_cfg.max_points_per_frame)
    timings["global_init"] = time.perf_counter() - tic

    state0 = RefinementState(
        extrinsic=extr0, board_poses=tuple(board_poses[f.frame_id] for f in usable),
        intr_depth=intr_depth,
        gmap=GlobalMap.identity(intr_depth.width, intr_depth.height, GMAP_DEGREE))
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

    Sizes are checked first. `maps.correct_rows` corrects a block of rows
    and `back_project` writes its points into the preallocated cloud while
    the block is still in cache. One thread walks the frame in blocks of
    BLOCK_ROWS rows (the last may be shorter). More threads share a queue of
    blocks, at least three per thread and none shorter than BLOCK_ROWS: the
    calling thread takes them from the top of the frame and a per-call pool
    of min(threads, ceil(H / BLOCK_ROWS)) - 1 threads from the bottom, so a
    thread that starts late leaves its share to the others. The pool's
    threads are kept off the calling thread's CPU (`_other_cpus`). Each
    thread reuses one block-sized scratch. The per-pixel arithmetic does not
    depend on the blocks, so every thread count gives the same result. With
    an identity G it is, bit for bit, the undistorted cloud
    `depth_to_cloud(apply_undistortion(umap, img), intr)` the stages read.
    """
    check_sizes(umap, gmap, img)
    if (img.width, img.height) != (intr.width, intr.height):
        raise GeometryError("depth image size does not match intrinsics")
    dense_u = umap.dense_coefficients()
    h, w = img.height, img.width
    pts = np.empty((h, w, 3))
    valid = np.empty((h, w), dtype=bool)
    cols = np.arange(w)
    bands = max(1, min(threads, -(-h // BLOCK_ROWS)))
    rows = max(BLOCK_ROWS, -(-h // (3 * bands))) if bands > 1 else BLOCK_ROWS
    todo = deque((v0, min(v0 + rows, h)) for v0 in range(0, h, rows))
    # allocated here, so pool threads leave no arrays in their own arenas
    scratch = np.empty((bands, 2, min(rows, h), w))

    def take(pop, work):
        while True:
            try:
                v0, v1 = pop()  # deque pops are atomic: no block is taken twice
            except IndexError:
                return
            z = correct_rows(dense_u, gmap, img.data, v0, v1, valid[v0:v1],
                             work[:, :v1 - v0])
            back_project(z, cols, np.arange(v0, v1)[:, None], intr, out=pts[v0:v1])

    if bands == 1:
        take(todo.popleft, scratch[0])
        return OrganizedCloud(w, h, pts, valid)
    pool = ThreadPoolExecutor(max_workers=bands - 1, initializer=_run_on,
                              initargs=(_other_cpus(),))
    try:
        others = pool.map(take, [todo.pop] * (bands - 1), scratch[1:])
        take(todo.popleft, scratch[0])
        list(others)
    finally:
        # every block is done or an error is raised: nothing waits for the
        # idle threads to exit
        pool.shutdown(wait=False)
    return OrganizedCloud(w, h, pts, valid)


def _other_cpus():
    """The CPUs the calling thread may run on, less the one it runs on now.

    None where the OS does not say. A new thread started here on Linux has
    been seen to stay on its creator's core for as long as a frame takes,
    so two threads shared one core while the other idled.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    try:
        fd = os.open("/proc/thread-self/stat", os.O_RDONLY)
        try:
            stat = os.read(fd, 4096)
        finally:
            os.close(fd)
        here = int(stat.rsplit(b")", 1)[1].split()[36])  # field 39: processor
    except (OSError, ValueError, IndexError):
        return None
    return os.sched_getaffinity(0) - {here} or None


def _run_on(cpus):
    """Pool initializer: move the new thread onto `cpus`, when given."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
