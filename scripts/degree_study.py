#!/usr/bin/env python3
"""Planarity error of the undistortion stage for polynomial degrees 1 to 4.

Renders one synthetic dataset and re-runs stage one with each degree,
printing post-correction planarity per test distance (meters). Linear
functions cannot model the super-linear distortion growth; quadratics are
the sweet spot, and higher degrees buy nothing but can overfit with noise.

    python scripts/degree_study.py --noise
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

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
    uncorrected = {}
    for lf in tests:
        cloud = dc.depth_to_cloud(lf.frame.depth, scene.intr_depth)
        idx = dc.IndexSet.from_mask(lf.labels == sb.LABEL_WALL)
        uncorrected[lf.wall_distance] = sb.planarity_error(cloud, idx)
    for degree in args.degrees:
        cfg = dc.UndistortConfig(chi=2, psi=2, degree=degree, seed=1,
                                 min_inliers=200, fit_radius=48)
        tic = time.perf_counter()
        umap, _, _ = dc.estimate_undistortion_map(train, guess, scene.intr_rgb,
                                                  scene.intr_depth, scene.board,
                                                  cfg)
        elapsed = time.perf_counter() - tic
        row = {}
        for lf in tests:
            und = dc.depth_to_cloud(dc.apply_undistortion(umap, lf.frame.depth),
                                    scene.intr_depth)
            idx = dc.IndexSet.from_mask((lf.labels == sb.LABEL_WALL) & und.valid)
            row[lf.wall_distance] = sb.planarity_error(und, idx)
        table[degree] = row
        print(f"degree {degree}: stage one {elapsed:.1f} s", file=sys.stderr)

    dists = sorted(uncorrected)
    header = ["depth_m", "original"] + [f"degree_{d}" for d in args.degrees]
    print(",".join(header))
    for dist in dists:
        cells = [f"{dist:.3f}", f"{uncorrected[dist]:.6f}"]
        cells += [f"{table[d][dist]:.6f}" for d in args.degrees]
        print(",".join(cells))
    sigma = dc.KINECT1_QUANTIZATION.sigma(np.asarray(dists))
    print("# quantization sigma(z): "
          + ", ".join(f"{s:.6f}" for s in sigma), file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", type=int, default=50)
    parser.add_argument("--test", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--noise", action="store_true")
    parser.add_argument("--degrees", type=int, nargs="+", default=[1, 2, 3, 4])
    sys.exit(run(parser.parse_args()))
