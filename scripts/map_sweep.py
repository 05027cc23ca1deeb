#!/usr/bin/env python3
"""Planarity error of the undistortion stage across polynomial degrees and
map bin sizes.

Renders one synthetic dataset and re-runs stage one for each setting,
printing post-correction planarity per test distance (meters) as CSV.

* `--degrees` sweeps the polynomial degree at 2x2 bins. Linear functions
  cannot model the super-linear distortion growth; quadratics are the sweet
  spot, and higher degrees buy nothing but can overfit with noise. The
  table has an `original` column (no correction), and the quantization
  sigma(z) at the test distances follows on stderr.
* `--bins` sweeps the bin size at degree 2. Coarser bins mean fewer fitted
  functions and more smoothing; finer bins track sharper distortion
  structure but need more data per control pixel.

With neither option both sweeps run with their defaults; a setting that
appears in both runs once.

    python scripts/map_sweep.py --degrees 1 2 3 4 --noise
    python scripts/map_sweep.py --bins 2x2 4x4 8x8 16x16
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

import depthcal as dc  # noqa: E402
from depthcal import synthbench as sb  # noqa: E402
from depthcal.geometry import horner  # noqa: E402

DEGREES = [1, 2, 3, 4]
BINS = ["2x2", "4x4", "8x8", "16x16"]


def print_table(columns, dists):
    """CSV with a depth_m column, then one column per (name, {dist: error})."""
    print(",".join(["depth_m"] + [name for name, _ in columns]))
    for dist in dists:
        print(",".join([f"{dist:.3f}"] + [f"{col[dist]:.6f}" for _, col in columns]))


def run(args):
    if args.degrees is None and args.bins is None:
        args.degrees, args.bins = DEGREES, BINS
    scene = sb.standard_scene(
        n_train=args.train, n_test=args.test, seed=args.seed, noise=args.noise,
        width=args.width, height=args.height, tilt_deg=15.0,
        distortion=sb.bowl_distortion(args.width, args.height, grid_bin=(2, 2)))
    frames = [sb.render_frame(scene, k) for k in range(scene.n_frames)]
    train = [f.frame for f in frames if not f.is_test]
    tests = [f for f in frames if f.is_test]
    guess = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))
    identity_g = dc.GlobalMap.identity(args.width, args.height)
    runs = {}

    def planarity(chi, psi, degree, label):
        """{test distance: planarity} after stage one at this setting."""
        if (chi, psi, degree) not in runs:
            cfg = dc.UndistortConfig(chi=chi, psi=psi, degree=degree, seed=1,
                                     min_inliers=200, fit_radius=48)
            tic = time.perf_counter()
            umap, _, _ = dc.estimate_undistortion_map(
                train, guess, scene.intr_rgb, scene.intr_depth, scene.board, cfg)
            row = {}
            for lf in tests:
                und = dc.apply_calibration(umap, identity_g, lf.frame.depth,
                                           scene.intr_depth)
                wall = (lf.labels == sb.LABEL_WALL) & und.valid
                row[lf.wall_distance] = sb.planarity_error(und, wall)
            runs[chi, psi, degree] = row
            print(f"{label}: stage one {time.perf_counter() - tic:.1f} s",
                  file=sys.stderr)
        return runs[chi, psi, degree]

    dists = sorted({lf.wall_distance for lf in tests})
    if args.degrees:
        original = {}
        for lf in tests:
            cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
            wall = lf.labels == sb.LABEL_WALL
            original[lf.wall_distance] = sb.planarity_error(cloud, wall)
        print_table([("original", original)]
                    + [(f"degree_{d}", planarity(2, 2, d, f"degree {d}"))
                       for d in args.degrees], dists)
        sigma = horner(dc.KINECT1_QUANTIZATION, np.asarray(dists))
        print("# quantization sigma(z): "
              + ", ".join(f"{s:.6f}" for s in sigma), file=sys.stderr)
    if args.degrees and args.bins:
        print()
    if args.bins:
        columns = []
        for spec in args.bins:
            chi, psi = (int(v) for v in spec.lower().split("x"))
            columns.append((spec, planarity(chi, psi, 2, f"bins {spec}")))
        print_table(columns, dists)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--train", type=int, default=50)
    parser.add_argument("--test", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--noise", action="store_true")
    parser.add_argument("--degrees", type=int, nargs="+",
                        help=f"degrees to sweep at 2x2 bins (default {DEGREES})")
    parser.add_argument("--bins", nargs="+",
                        help=f"bin sizes CHIxPSI to sweep at degree 2 (default {BINS})")
    sys.exit(run(parser.parse_args()))
