"""Command-line surface: simulate, calibrate, correct, evaluate, bench."""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
import time

import numpy as np

from . import formats, pipeline, synthbench
from .calib_global import GlobalConfig
from .calib_undistort import CalibrationError, UndistortConfig, select_wall_points
from .geometry import (
    GeometryError,
    IndexSet,
    RigidTransform,
    depth_to_cloud,
    fit_plane,
    solve_pnp,
    transform_plane,
)
from .maps import PolyFn, apply_undistortion
from .synthbench import bowl_distortion, standard_scene


def _threads_from_env(default=1):
    raw = os.environ.get("DEPTHCAL_THREADS", "")
    if not raw:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise SystemExit(f"DEPTHCAL_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _parse_bin(text):
    try:
        chi, psi = text.lower().split("x")
        return int(chi), int(psi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bin size must look like 4x4, got {text!r}")


def _scene_from_args(args):
    params = {}
    if args.scene:
        params = _read_scene_file(args.scene)
    noise = params.pop("noise", True)
    if args.noise is not None:
        noise = args.noise == "on"
    width = params.pop("image_width", 320)
    height = params.pop("image_height", 240)
    bowl = {k: params.pop(k) for k in list(params)
            if k in ("peak", "flat_frac", "asym", "zero_depth")}
    grid_bin = params.pop("bowl_bins", (2, 2))
    gc = params.pop("global_correction", None)
    gcorr = PolyFn((0.0, *gc), constant_zero=True) if gc is not None else None
    distortion = bowl_distortion(width, height, grid_bin=grid_bin,
                                 global_correction=gcorr, **bowl)
    extr_q = params.pop("extrinsic_quaternion", None)
    extr_t = params.pop("extrinsic_translation", None)
    extrinsic = None
    if extr_t is not None or extr_q is not None:
        extrinsic = RigidTransform(extr_q if extr_q is not None else (1, 0, 0, 0),
                                   extr_t if extr_t is not None else (0, 0, 0))
    return standard_scene(n_train=args.train, n_test=args.test, seed=args.seed,
                          noise=noise, width=width, height=height,
                          distortion=distortion, extrinsic=extrinsic, **params)


# scene key -> (value count, value type); `noise` takes one on/off word
_SCENE_KEYS = {
    "image_width": (1, int), "image_height": (1, int),
    "peak": (1, float), "flat_frac": (1, float), "asym": (1, float),
    "zero_depth": (1, float), "bowl_bins": (2, int), "global_correction": (2, float),
    "extrinsic_translation": (3, float), "extrinsic_quaternion": (4, float),
    "distance_range": (2, float), "tilt_deg": (1, float), "test_range": (2, float),
    "floor_y": (1, float), "sigma_c": (1, float), "noise": (1, str),
}
_SWITCH = {"on": True, "1": True, "true": True, "off": False, "0": False,
           "false": False}


def _read_scene_file(path):
    params = {}
    kv, _ = formats._read_keyvals(path)
    for key, tokens in kv.items():
        if key not in _SCENE_KEYS:
            raise formats.FormatError(f"{path}: unknown scene key {key!r}")
        count, kind = _SCENE_KEYS[key]
        vals = formats._values(tokens, count, f"{path}: {key}", kind)
        if kind is int and min(vals) < 1:
            raise formats.FormatError(f"{path}: {key} must be positive")
        if key == "noise":
            if vals[0].lower() not in _SWITCH:
                raise formats.FormatError(f"{path}: noise must be on or off")
            params[key] = _SWITCH[vals[0].lower()]
        else:
            params[key] = vals[0] if count == 1 else tuple(vals)
    return params


def cmd_simulate(args):
    scene = _scene_from_args(args)
    out = synthbench.generate_dataset(scene, args.train, args.test, args.out)
    print(f"dataset written to {out} ({args.train} training + {args.test} test frames)")
    return 0


def cmd_calibrate(args):
    manifest = formats.read_manifest(os.path.join(args.dataset, "manifest.txt"))
    train = formats.load_frames(manifest, args.dataset, train_only=True)
    frames = [frame for _, frame in train]
    if not frames:
        raise CalibrationError("dataset has no training frames")
    chi, psi = args.bin
    ucfg = UndistortConfig(chi=chi, psi=psi, degree=args.degree, seed=args.seed,
                           fit_radius=args.fit_radius,
                           min_inliers=args.min_inliers)
    gcfg = GlobalConfig()
    result = pipeline.calibrate(frames, manifest.extrinsic_guess,
                                manifest.intr_rgb, manifest.intr_depth_guess,
                                manifest.board, ucfg, gcfg)
    formats.write_calibration(args.out, result.umap, result.gmap,
                              result.extrinsic, result.intr_depth,
                              result.intr_rgb)
    report_path = args.report or args.out + ".report.csv"
    _write_calibration_report(report_path, result, frames,
                              manifest.intr_depth_guess, ucfg)
    print(f"calibration written to {args.out}")
    print(f"report written to {report_path}")
    print(f"refinement cost {result.cost_trace[0]:.6g} -> {result.cost_trace[-1]:.6g} "
          f"over {len(result.cost_trace) - 1} accepted steps")
    return 0


def _write_calibration_report(path, result, frames, intr_depth_guess, ucfg):
    from .synthbench import planarity_error

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["stage", "frame_id", "metric", "value"])
    writer.writerow(["config", "", "seed", str(ucfg.seed)])
    writer.writerow(["config", "", "bin", f"{ucfg.chi}x{ucfg.psi}"])
    writer.writerow(["config", "", "degree", str(ucfg.degree)])
    for frame in frames:
        if frame.frame_id not in result.inlier_sets:
            writer.writerow(["undistortion", frame.frame_id, "skipped", ""])
            continue
        inl = IndexSet.from_mask(result.inlier_sets[frame.frame_id])
        cloud = depth_to_cloud(frame.depth, intr_depth_guess)
        und = depth_to_cloud(apply_undistortion(result.umap, frame.depth),
                             intr_depth_guess)
        writer.writerow(["undistortion", frame.frame_id, "planarity_original",
                         format(planarity_error(cloud, inl), ".17g")])
        writer.writerow(["undistortion", frame.frame_id, "planarity_undistorted",
                         format(planarity_error(und, inl), ".17g")])
    writer.writerow(["refinement", "", "initial_cost",
                     format(result.cost_trace[0], ".17g")])
    writer.writerow(["refinement", "", "final_cost",
                     format(result.cost_trace[-1], ".17g")])
    writer.writerow(["refinement", "", "accepted_steps",
                     str(len(result.cost_trace) - 1)])
    for name, value in result.timings.items():
        writer.writerow(["timing", "", name, f"{value:.3f}"])
    formats._atomic_write_text(path, buf.getvalue())


def cmd_correct(args):
    umap, gmap, _, intr_depth, _ = formats.read_calibration(args.calib)
    img = formats.read_depth_pgm(getattr(args, "in"))
    threads = _threads_from_env(1)
    cloud = pipeline.apply_calibration(umap, gmap, img, intr_depth, threads)
    formats.write_cloud_ply(args.out, cloud)
    print(f"corrected cloud written to {args.out} "
          f"({int(cloud.valid.sum())} points, {threads} thread(s))")
    return 0


def cmd_evaluate(args):
    umap, gmap, extrinsic, intr_depth, intr_rgb = formats.read_calibration(args.calib)
    manifest = formats.read_manifest(os.path.join(args.dataset, "manifest.txt"))
    entries = formats.load_frames(manifest, args.dataset, test_only=True)
    if not entries:
        raise CalibrationError("dataset has no test frames (true distances missing)")
    os.makedirs(args.out, exist_ok=True)
    ucfg = UndistortConfig(seed=args.seed, min_inliers=50)
    rng = np.random.default_rng(args.seed)

    rows_plan = []
    rows_glob = []
    rows_rot = []
    rows_depth = []
    for mf, frame in entries:
        original = depth_to_cloud(frame.depth, intr_depth)
        # wall indices come from the corrected cloud, then every variant is
        # measured on the same index set
        und_only = depth_to_cloud(apply_undistortion(umap, frame.depth), intr_depth)
        corrected = pipeline.apply_calibration(umap, gmap, frame.depth, intr_depth)
        pose, _ = solve_pnp(manifest.board.corners_3d(), frame.corner_points,
                            intr_rgb)
        inliers = select_wall_points(corrected, pose, extrinsic, manifest.board,
                                     ucfg, rng)
        board_plane_cam = transform_plane(pose, manifest.board.plane)
        board_plane_depth = transform_plane(extrinsic.inverse(), board_plane_cam)

        rows_plan.append([mf.true_distance,
                          synthbench.planarity_error(original, inliers),
                          synthbench.planarity_error(und_only, inliers),
                          synthbench.planarity_error(corrected, inliers)])
        rows_glob.append([mf.true_distance,
                          synthbench.global_error(original, inliers, board_plane_depth),
                          synthbench.global_error(und_only, inliers, board_plane_depth),
                          synthbench.global_error(corrected, inliers, board_plane_depth)])
        axes_cam = pose.rotation_matrix[:, :2]  # board x/y axes in camera frame
        axes_depth = extrinsic.inverse().rotation_matrix @ axes_cam
        rot_row = [mf.true_distance]
        for cloud in (original, corrected):
            normal = fit_plane(cloud.points_at(inliers)).normal
            rot_row.extend([synthbench.rotation_error(normal, axes_depth[:, 0]),
                            synthbench.rotation_error(normal, axes_depth[:, 1])])
        rows_rot.append(rot_row)
        rows_depth.append([mf.true_distance,
                           synthbench.depth_vs_ground_truth(original, inliers,
                                                            mf.true_distance),
                           synthbench.depth_vs_ground_truth(corrected, inliers,
                                                            mf.true_distance)])

    def write_csv(name, header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])
        formats._atomic_write_text(os.path.join(args.out, name), buf.getvalue())

    write_csv("planarity.csv",
              ["true_distance_m", "original_m", "undistorted_m", "corrected_m"],
              rows_plan)
    write_csv("global_error.csv",
              ["true_distance_m", "original_m", "undistorted_m", "corrected_m"],
              rows_glob)
    write_csv("rotation_error.csv",
              ["true_distance_m", "x_original_deg", "y_original_deg",
               "x_corrected_deg", "y_corrected_deg"],
              [[r[0], r[1], r[2], r[3], r[4]] for r in rows_rot])
    write_csv("depth_vs_ground_truth.csv",
              ["true_distance_m", "original_m", "corrected_m"],
              rows_depth)
    print(f"evaluation reports written to {args.out} ({len(entries)} test frames)")
    return 0


def cmd_bench(args):
    umap, gmap, _, intr_depth, _ = formats.read_calibration(args.calib)
    # synthetic benchmark frame: a fully valid tilted wall
    v, u = np.mgrid[0:intr_depth.height, 0:intr_depth.width]
    depth = 1.5 + 2.0 * (u / max(intr_depth.width - 1, 1))
    from .geometry import DepthImage

    img = DepthImage(intr_depth.width, intr_depth.height, depth)
    threads = _threads_from_env(os.cpu_count() or 1)

    def run(n_threads):
        pipeline.apply_calibration(umap, gmap, img, intr_depth, n_threads)  # warmup
        times = []
        for _ in range(args.frames):
            t0 = time.perf_counter()
            cloud = pipeline.apply_calibration(umap, gmap, img, intr_depth, n_threads)
            times.append((time.perf_counter() - t0) * 1000.0)
        return np.asarray(times), cloud

    single, cloud_single = run(1)
    print(f"frame {intr_depth.width}x{intr_depth.height}, {args.frames} runs")
    print(f"threads=1 mean={single.mean():.3f} ms p99={np.percentile(single, 99):.3f} ms")
    if threads > 1:
        multi, cloud_multi = run(threads)
        identical = (np.array_equal(cloud_single.points, cloud_multi.points)
                     and np.array_equal(cloud_single.valid, cloud_multi.valid))
        print(f"threads={threads} mean={multi.mean():.3f} ms "
              f"p99={np.percentile(multi, 99):.3f} ms identical={identical}")
        if not identical:
            raise CalibrationError("multi-threaded correction diverged from single-threaded")
    else:
        print("threads=1 only (set DEPTHCAL_THREADS or add cores for the parallel run)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="depthcal",
        description="Two-stage RGB-D depth sensor calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--scene", help="scene parameter file (key-value text)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--train", type=int, default=50, help="training frames")
    p.add_argument("--test", type=int, default=8, help="test frames")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=("on", "off"), default=None,
                   help="override the scene noise toggle")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("calibrate", help="run the two-stage calibration")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="calibration file path")
    p.add_argument("--bin", type=_parse_bin, default=(4, 4),
                   help="undistortion bin size, e.g. 4x4")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-radius", type=float, default=120.0,
                   help="reference-plane fit radius, pixels")
    p.add_argument("--min-inliers", type=int, default=100)
    p.add_argument("--report", help="report CSV path (default: <out>.report.csv)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("correct", help="correct one depth frame to a PLY cloud")
    p.add_argument("--calib", required=True)
    p.add_argument("--in", required=True, dest="in", help="input depth PGM")
    p.add_argument("--out", required=True, help="output ASCII PLY")
    p.set_defaults(fn=cmd_correct)

    p = sub.add_parser("evaluate", help="evaluate a calibration on test frames")
    p.add_argument("--calib", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("bench", help="latency of the correction stage")
    p.add_argument("--calib", required=True)
    p.add_argument("--frames", type=int, default=100)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("DEPTHCAL_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CalibrationError, GeometryError, formats.FormatError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
