"""Command-line surface: simulate, calibrate, correct, evaluate."""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

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
from .maps import GlobalMap
from .synthbench import bowl_distortion, standard_scene


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
    distortion = bowl_distortion(width, height, grid_bin=grid_bin,
                                 global_correction=None if gc is None else (0.0, *gc),
                                 **bowl)
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
    out = synthbench.generate_dataset(scene, args.out)
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
    report_path = args.report or args.out + ".report.csv"
    # the calibration is renamed into place after its report, so a failed
    # write of either leaves no new calibration file
    with formats.replacing(report_path, args.out) as (report_tmp, calib_tmp):
        formats.write_calibration(calib_tmp, result.umap, result.gmap,
                                  result.extrinsic, result.intr_depth,
                                  result.intr_rgb)
        _write_calibration_report(report_tmp, result, frames,
                                  manifest.intr_depth_guess, ucfg)
    print(f"calibration written to {args.out}")
    print(f"report written to {report_path}")
    print(f"refinement cost {result.cost_trace[0]:.6g} -> {result.cost_trace[-1]:.6g} "
          f"over {len(result.cost_trace) - 1} accepted steps")
    return 0


def _write_csv(path, header, rows):
    """A CSV file of a header and rows; floats are written with 17
    significant digits, any other value as `csv` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    formats._atomic_write_text(path, buf.getvalue())


def _write_calibration_report(path, result, frames, intr_depth_guess, ucfg):
    rows = [["config", "", "seed", ucfg.seed],
            ["config", "", "bin", f"{ucfg.chi}x{ucfg.psi}"],
            ["config", "", "degree", ucfg.degree]]
    identity_g = GlobalMap.identity(result.umap.width, result.umap.height)
    for frame in frames:
        if frame.frame_id not in result.inlier_sets:
            rows.append(["undistortion", frame.frame_id, "skipped", ""])
            continue
        wall = result.inlier_sets[frame.frame_id]
        original = depth_to_cloud(frame.depth, intr_depth_guess)
        # the final U can be non-positive at a pixel of the frame's wall,
        # which the undistorted cloud then leaves invalid
        und = pipeline.apply_calibration(result.umap, identity_g, frame.depth,
                                         intr_depth_guess)
        for name, cloud in (("original", original), ("undistorted", und)):
            rows.append(["undistortion", frame.frame_id, f"planarity_{name}",
                         synthbench.planarity_error(
                             cloud, IndexSet.from_mask(wall & cloud.valid))])
    rows += [["refinement", "", "initial_cost", result.cost_trace[0]],
             ["refinement", "", "final_cost", result.cost_trace[-1]],
             ["refinement", "", "accepted_steps", len(result.cost_trace) - 1]]
    rows += [["timing", "", name, f"{value:.3f}"] for name, value in result.timings.items()]
    _write_csv(path, ["stage", "frame_id", "metric", "value"], rows)


def cmd_correct(args):
    umap, gmap, _, intr_depth, _ = formats.read_calibration(args.calib)
    path = getattr(args, "in")
    img = formats.read_depth_pgm(path)
    if (img.width, img.height) != (umap.width, umap.height):
        raise formats.FormatError(f"{path} is {img.width}x{img.height}, not the "
                                  f"{umap.width}x{umap.height} of {args.calib}")
    cloud = pipeline.apply_calibration(umap, gmap, img, intr_depth)
    formats.write_cloud_ply(args.out, cloud)
    print(f"corrected cloud written to {args.out} ({int(cloud.valid.sum())} points)")
    return 0


def cmd_evaluate(args):
    umap, gmap, extrinsic, intr_depth, intr_rgb = formats.read_calibration(args.calib)
    path = os.path.join(args.dataset, "manifest.txt")
    manifest = formats.read_manifest(path)
    size = manifest.intr_depth_guess.width, manifest.intr_depth_guess.height
    if size != (umap.width, umap.height):
        raise formats.FormatError(f"{path} has {size[0]}x{size[1]} depth images, not the "
                                  f"{umap.width}x{umap.height} of {args.calib}")
    entries = formats.load_frames(manifest, args.dataset, test_only=True)
    if not entries:
        raise CalibrationError("dataset has no test frames (true distances missing)")
    os.makedirs(args.out, exist_ok=True)
    ucfg = UndistortConfig(min_inliers=50)
    rng = np.random.default_rng(args.seed)
    identity_g = GlobalMap.identity(umap.width, umap.height)

    rows_plan, rows_glob, rows_rot, rows_depth = [], [], [], []
    for mf, frame in entries:
        original = depth_to_cloud(frame.depth, intr_depth)
        # wall indices come from the corrected cloud, then every variant is
        # measured on the same index set
        und_only = pipeline.apply_calibration(umap, identity_g, frame.depth, intr_depth)
        corrected = pipeline.apply_calibration(umap, gmap, frame.depth, intr_depth)
        pose, _ = solve_pnp(manifest.board.corners_3d(), frame.corner_points,
                            intr_rgb)
        wall = np.zeros(corrected.valid.shape, dtype=bool)
        wall.reshape(-1)[select_wall_points(corrected.points[corrected.valid],
                                            corrected.valid, pose, extrinsic,
                                            manifest.board, ucfg, rng)] = True
        inliers = IndexSet.from_mask(wall)
        board_plane_cam = transform_plane(pose, manifest.board.plane)
        board_plane_depth = transform_plane(extrinsic.inverse(), board_plane_cam)

        variants = (original, und_only, corrected)
        rows_plan.append([mf.true_distance] + [
            synthbench.planarity_error(cloud, inliers) for cloud in variants])
        rows_glob.append([mf.true_distance] + [
            synthbench.global_error(cloud, inliers, board_plane_depth)
            for cloud in variants])
        axes_cam = pose.rotation_matrix[:, :2]  # board x/y axes in camera frame
        axes_depth = extrinsic.inverse().rotation_matrix @ axes_cam
        rot_row = [mf.true_distance]
        for cloud in (original, corrected):
            normal = fit_plane(cloud.points_at(inliers)).normal
            rot_row.extend([synthbench.rotation_error(normal, axes_depth[:, 0]),
                            synthbench.rotation_error(normal, axes_depth[:, 1])])
        rows_rot.append(rot_row)
        rows_depth.append([mf.true_distance] + [
            synthbench.depth_vs_ground_truth(cloud, inliers, mf.true_distance)
            for cloud in (original, corrected)])

    _write_csv(os.path.join(args.out, "planarity.csv"),
               ["true_distance_m", "original_m", "undistorted_m", "corrected_m"],
               rows_plan)
    _write_csv(os.path.join(args.out, "global_error.csv"),
               ["true_distance_m", "original_m", "undistorted_m", "corrected_m"],
               rows_glob)
    _write_csv(os.path.join(args.out, "rotation_error.csv"),
               ["true_distance_m", "x_original_deg", "y_original_deg",
                "x_corrected_deg", "y_corrected_deg"],
               rows_rot)
    _write_csv(os.path.join(args.out, "depth_vs_ground_truth.csv"),
               ["true_distance_m", "original_m", "corrected_m"],
               rows_depth)
    print(f"evaluation reports written to {args.out} ({len(entries)} test frames)")
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
    p.add_argument("--out", required=True, help="output PLY, binary little-endian doubles")
    p.set_defaults(fn=cmd_correct)

    p = sub.add_parser("evaluate", help="evaluate a calibration on test frames")
    p.add_argument("--calib", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv=None):
    level = os.environ.get("DEPTHCAL_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: DEPTHCAL_LOG must name a logging level such as INFO, "
              f"got {level!r}", file=sys.stderr)
        return 1
    logging.basicConfig(level=level)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CalibrationError, GeometryError, formats.FormatError,
            synthbench.RenderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
