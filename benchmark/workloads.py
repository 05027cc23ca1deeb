"""Inputs, ops and output checks of the three workloads.

Every input comes from synthbench and is derived from the run's seed; the
program sees only the generated files and arrays. Set-up time counts the
program's own work to prepare an op (dataset or calibration files written through
`formats`, maps built and their caches filled), not the synthbench
rendering that stands in for a sensor.

An op returns its output; `check_*` raises `CheckFailed` when the output is
wrong, and the runner counts that op as failed. The correction workloads
check each op cheaply while they run (bit-equal to the first output of the
same frame) and the first outputs against the oracle after the run's peak
RSS has been read, so the oracle's arrays cannot set that peak.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

import numpy as np

from depthcal import formats, pipeline, synthbench
from depthcal.calib_global import GlobalConfig
from depthcal.calib_undistort import UndistortConfig
from depthcal.geometry import IndexSet
from depthcal.maps import GlobalMap, PolyFn, apply_global, apply_undistortion

# The global bias of scene B in the acceptance suite
BIAS = PolyFn((0.0, 0.97, 0.008), constant_zero=True)

# The acceptance configuration
UCFG = UndistortConfig(chi=2, psi=2, degree=2, seed=1, min_inliers=200,
                       fit_radius=48)
GCFG = GlobalConfig(max_points_per_frame=800)

# Noiseless acceptance tolerances (criteria 3 and 4). The datasets are
# noise-free: with noise on, the error is set by the noise draw, and the
# noisy tolerance (5 mm) is missed on about one scene in six by a program
# whose noise-free error on the same scenes stays below 0.2 mm.
MAX_T_ERR_MM = 0.5
MAX_R_ERR_DEG = 0.05
MAX_DEPTH_ERR_MM = 1.0

STREAM_FRAMES = 8  # distinct 640x480 frames the stream cycles through
STREAM_TOL_M = 1e-9  # correction vs the injected truth, on valid pixels
BUDGET_MS = 1000.0 / 30.0


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def timed(fn, *args):
    """(wall seconds, CPU seconds of the whole process, result) of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return time.perf_counter() - wall, time.process_time() - cpu, out


# ---------------------------------------------------------------------------
# calib-accept: read a dataset, calibrate, write the calibration


class CalibCase:
    """One noise-free acceptance-scale dataset on disk plus its ground truth."""

    def __init__(self, scene_seed, workdir):
        self.scene = synthbench.standard_scene(
            n_train=50, n_test=8, seed=scene_seed, noise=False, width=320,
            height=240, tilt_deg=15.0,
            distortion=synthbench.bowl_distortion(320, 240, grid_bin=(2, 2),
                                                  global_correction=BIAS))
        self.dir = os.path.join(workdir, f"dataset_{scene_seed}")
        self.out = os.path.join(workdir, f"calib_{scene_seed}.txt")
        self.test_frames = []

    def write(self, repeats=1):
        """The set-up: write the dataset files `repeats` times over; returns
        the seconds each write took.

        Only the test frames stay in memory afterwards, so the benchmark's
        own arrays do not dominate the peak RSS of the run.
        """
        frames = [synthbench.render_frame(self.scene, k)
                  for k in range(self.scene.n_frames)]
        seconds = [timed(formats.write_dataset, self.scene, frames, self.dir)[0]
                   for _ in range(repeats)]
        self.test_frames = [lf for lf in frames if lf.is_test]
        return seconds


def calib_op(case, tracer=None, out=None):
    with span(tracer, "dataset_read"):
        manifest = formats.read_manifest(os.path.join(case.dir, "manifest.txt"))
        train = [f for _, f in formats.load_frames(manifest, case.dir,
                                                   train_only=True)]
    with span(tracer, "calibrate"):
        result = pipeline.calibrate(train, manifest.extrinsic_guess,
                                    manifest.intr_rgb, manifest.intr_depth_guess,
                                    manifest.board, UCFG, GCFG)
    with span(tracer, "calib_write"):
        formats.write_calibration(out or case.out, result.umap, result.gmap,
                                  result.extrinsic, result.intr_depth,
                                  result.intr_rgb)
    return result


def calib_accuracy(case, result):
    """Extrinsic and test-frame errors against the injected truth."""
    true = case.scene.true_extrinsic
    est = result.extrinsic
    out = {
        "extrinsic_t_err_mm": float(np.linalg.norm(est.translation - true.translation)) * 1e3,
        "extrinsic_r_err_deg": float(np.degrees(est.compose(true.inverse()).rotation_angle())),
        "depth_err_mm": 0.0,
        "planarity_err_mm": 0.0,
        "frames_skipped": case.scene.n_train - len(result.inlier_sets),
    }
    for lf in case.test_frames:
        corrected = pipeline.apply_calibration(result.umap, result.gmap,
                                               lf.frame.depth, result.intr_depth)
        idx = IndexSet.from_mask((lf.labels == synthbench.LABEL_WALL) & corrected.valid)
        err = abs(synthbench.depth_vs_ground_truth(corrected, idx, lf.wall_distance))
        out["depth_err_mm"] = max(out["depth_err_mm"], err * 1e3)
        out["planarity_err_mm"] = max(out["planarity_err_mm"],
                                      synthbench.planarity_error(corrected, idx) * 1e3)
    return out


def check_calib(accuracy):
    if not (accuracy["extrinsic_t_err_mm"] <= MAX_T_ERR_MM
            and accuracy["extrinsic_r_err_deg"] <= MAX_R_ERR_DEG
            and accuracy["depth_err_mm"] <= MAX_DEPTH_ERR_MM):
        raise CheckFailed(f"calibration outside the acceptance tolerances: {accuracy}")


# ---------------------------------------------------------------------------
# correct-stream and correct-file share these inputs


class StreamInputs:
    """Distinct 640x480 frames of a scene with a floor, and the truth maps.

    The maps are the scene's injected correction: its undistortion field at
    4x4 bins and a global map whose three free corners are all the bias.
    """

    def __init__(self, seed):
        self.scene = synthbench.standard_scene(
            n_train=STREAM_FRAMES, n_test=1, seed=seed, noise=True, width=640,
            height=480, tilt_deg=15.0, floor_y=0.8,
            distortion=synthbench.bowl_distortion(640, 480, grid_bin=(4, 4),
                                                  global_correction=BIAS))
        self.intr = self.scene.intr_depth
        self.images = [synthbench.render_frame(self.scene, k).frame.depth
                       for k in range(STREAM_FRAMES)]
        self.truth = self.scene.distortion
        self.references = [None] * STREAM_FRAMES
        self.uses = [0] * STREAM_FRAMES  # ops checked against each reference

    def fresh_maps(self):
        """New map objects with empty caches."""
        field = self.truth.undistortion_field
        umap = field.with_coefficients(field.coefficients)
        g = self.truth.global_correction
        return umap, GlobalMap(umap.width, umap.height, g, g, g)

    def valid_share(self):
        return float(np.mean([img.valid.mean() for img in self.images]))

    def check(self, k, cloud):
        """The in-loop check: frame k's first output becomes its reference,
        and every later output of frame k must be bit-equal to it."""
        ref = self.references[k]
        if ref is None:
            self.references[k] = cloud
        elif not (np.array_equal(cloud.valid, ref.valid)
                  and np.array_equal(cloud.points, ref.points)):
            raise CheckFailed(f"frame {k}: output differs from its first output")
        self.uses[k] += 1

    def check_oracle(self):
        """Each reference must match the oracle within STREAM_TOL_M on the
        valid pixels, with the input's valid mask. Returns how many ops were
        wrong that passed the in-loop check: every such op on a frame whose
        reference is wrong."""
        wrong = 0
        for k, ref in enumerate(self.references):
            if ref is None:
                continue
            try:
                self._match_oracle(k, ref)
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                wrong += self.uses[k]
        return wrong

    def _match_oracle(self, k, cloud):
        img = self.images[k]
        if not np.array_equal(cloud.valid, img.valid):
            raise CheckFailed(f"frame {k}: valid mask differs from the input's")
        v, u = np.nonzero(img.valid)
        z = self.truth.correct_exact(u.astype(float), v.astype(float), img.data[v, u])
        expect = np.column_stack([z * (u - self.intr.cx) / self.intr.fx,
                                  z * (v - self.intr.cy) / self.intr.fy, z])
        err = float(np.max(np.abs(cloud.points[v, u] - expect), initial=0.0))
        if not err <= STREAM_TOL_M:
            raise CheckFailed(f"frame {k}: {err:.3g} m from the oracle")


def stream_setup(inputs, threads):
    """Build fresh maps and run the first corrections, the one at threads=1
    with cold caches; returns (seconds, umap, gmap)."""
    def build():
        umap, gmap = inputs.fresh_maps()
        pipeline.apply_calibration(umap, gmap, inputs.images[0], inputs.intr, 1)
        pipeline.apply_calibration(umap, gmap, inputs.images[0], inputs.intr, threads)
        return umap, gmap

    wall, _, (umap, gmap) = timed(build)
    return wall, umap, gmap


def stream_op(inputs, umap, gmap, k, threads, tracer=None):
    with span(tracer, "apply" if threads == 1 else "apply_mt"):
        return pipeline.apply_calibration(umap, gmap, inputs.images[k],
                                          inputs.intr, threads)


def stream_layer_evals(inputs, umap, gmap, k, tracer):
    """U then G evaluation on one frame, each as its own span."""
    with span(tracer, "u_eval"):
        undistorted = apply_undistortion(umap, inputs.images[k])
    with span(tracer, "g_eval"):
        apply_global(gmap, undistorted)


# ---------------------------------------------------------------------------
# correct-file: the `depthcal correct` path, one frame per op


class FileCase:
    """A calibration file and PGM frames written through `formats`."""

    def __init__(self, inputs, workdir):
        self.inputs = inputs
        self.calib = os.path.join(workdir, "truth_calib.txt")
        self.pgms = [os.path.join(workdir, f"frame_{k}.pgm")
                     for k in range(len(inputs.images))]
        self.ply = os.path.join(workdir, "cloud.ply")

    def write(self):
        """The set-up: write the calibration and the frames; returns seconds."""
        return timed(self._write)[0]

    def _write(self):
        umap, gmap = self.inputs.fresh_maps()
        scene = self.inputs.scene
        formats.write_calibration(self.calib, umap, gmap, scene.true_extrinsic,
                                  scene.intr_depth, scene.intr_rgb)
        for img, path in zip(self.inputs.images, self.pgms):
            formats.write_depth_pgm(path, img)


def file_op(case, k, tracer=None):
    with span(tracer, "file_op"):
        with span(tracer, "calib_read"):
            umap, gmap, _, intr, _ = formats.read_calibration(case.calib)
        with span(tracer, "pgm_read") as sp:
            img = formats.read_depth_pgm(case.pgms[k])
        if sp is not None:
            sp.attrs["bytes"] = os.path.getsize(case.pgms[k])
        with span(tracer, "file_apply"):
            cloud = pipeline.apply_calibration(umap, gmap, img, intr, 1)
        with span(tracer, "ply_write") as sp:
            formats.write_cloud_ply(case.ply, cloud)
        if sp is not None:
            sp.attrs["bytes"] = os.path.getsize(case.ply)
    return cloud


def check_file(case, k, cloud):
    """The in-loop check: the vertex count equals the valid pixels, and the
    cloud is bit-equal to frame k's first output."""
    with open(case.ply, "rb") as fh:
        head = fh.read(512).decode("ascii", "replace")
    counts = [ln.split()[2] for ln in head.splitlines()
              if ln.startswith("element vertex")]
    n_valid = int(cloud.valid.sum())
    if counts != [str(n_valid)]:
        raise CheckFailed(f"PLY vertex count {counts} != {n_valid} valid pixels")
    case.inputs.check(k, cloud)


def check_round_trip(case, cloud):
    """The PLY of the last op reads back to that op's points."""
    pts = formats.read_cloud_ply(case.ply)
    if not np.array_equal(pts, cloud.points[cloud.valid]):
        raise CheckFailed("PLY round trip changed the points")


def working_set(inputs, umap):
    """Bytes of one input frame and of the U map's per-pixel cache."""
    return {"frame_bytes": int(inputs.images[0].data.nbytes),
            "u_dense_cache_bytes": int(umap.dense_coefficients().nbytes),
            "valid_pixel_share": round(inputs.valid_share(), 4)}
