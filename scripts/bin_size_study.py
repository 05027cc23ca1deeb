#!/usr/bin/env python3
"""Planarity error of the undistortion stage across map bin sizes.

Coarser bins mean fewer fitted functions and more smoothing; finer bins
track sharper distortion structure but need more data per control pixel.
Prints post-correction planarity per test distance for each bin size.

    python scripts/bin_size_study.py --bins 2x2 4x4 8x8 16x16
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import depthcal as dc  # noqa: E402
from depthcal import synthbench as sb  # noqa: E402


def run(args):
    scene = sb.standard_scene(
        n_train=args.train, n_test=args.test, seed=args.seed, noise=args.noise,
        width=args.width, height=args.height, tilt_deg=15.0,
        distortion=sb.bowl_distortion(args.width, args.height, grid_bin=(2, 2)))
    frames = [sb.render_frame(scene, k) for k in range(scene.n_frames)]
    train = [f.frame for f in frames if not f.is_test]
    tests = [f for f in frames if f.is_test]
    guess = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))

    table = {}
    for spec in args.bins:
        chi, psi = (int(v) for v in spec.lower().split("x"))
        cfg = dc.UndistortConfig(chi=chi, psi=psi, degree=2, seed=1,
                                 min_inliers=200, fit_radius=48)
        tic = time.perf_counter()
        umap, _, _ = dc.estimate_undistortion_map(train, guess, scene.intr_rgb,
                                                  scene.intr_depth, scene.board,
                                                  cfg)
        row = {}
        for lf in tests:
            und = dc.depth_to_cloud(dc.apply_undistortion(umap, lf.frame.depth),
                                    scene.intr_depth)
            idx = dc.IndexSet.from_mask((lf.labels == sb.LABEL_WALL) & und.valid)
            row[lf.wall_distance] = sb.planarity_error(und, idx)
        table[spec] = row
        print(f"bins {spec}: stage one {time.perf_counter() - tic:.1f} s",
              file=sys.stderr)

    dists = sorted(table[args.bins[0]])
    print(",".join(["depth_m"] + list(args.bins)))
    for dist in dists:
        print(",".join([f"{dist:.3f}"]
                       + [f"{table[b][dist]:.6f}" for b in args.bins]))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=50)
    parser.add_argument("--test", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--noise", action="store_true")
    parser.add_argument("--bins", nargs="+", default=["2x2", "4x4", "8x8", "16x16"])
    sys.exit(run(parser.parse_args()))
