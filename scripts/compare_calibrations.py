#!/usr/bin/env python3
"""Calibrate the acceptance scenes and diff the outputs against a saved run.

Runs the full two-stage calibration on the scenes of the acceptance suite
(`tests/conftest.py`: scene A clean, scene B clean and noisy) and keeps U,
the free G corners, the extrinsic, the depth intrinsics and the cost trace
of each. Save them from one checkout and compare from another to see how
far a change moves the outputs:

    python scripts/compare_calibrations.py --save before.npz
    python scripts/compare_calibrations.py --against before.npz

Each scene prints one line, which ends with the scene's stage times
(`CalibrationResult.timings`). With `--against` the line starts with the
max |delta| per quantity, then the two cost-trace lengths and, when they
agree, the trace's max |delta|, and whether it is within the output
gates: U, G, translation and quaternion within 1e-9, the depth
intrinsics within 1e-6 px, and cost traces of equal length. The script
exits 1 when a scene is outside them or missing from the saved run.

`--bench-seed N` adds a clean scene B with seed N, the scene a benchmark
`calib-accept` run with that seed calibrates.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

import depthcal as dc  # noqa: E402
from depthcal import synthbench as sb  # noqa: E402

GUESS = dc.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0))
BIAS = dc.PolyFn((0.0, 0.97, 0.008), constant_zero=True)
SCENES = {"a_clean": (11, False, None), "b_clean": (21, False, BIAS),
          "b_noisy": (21, True, BIAS)}
# max |delta| each quantity may move against the saved run
GATES = {"umap": 1e-9, "gmap": 1e-9, "translation": 1e-9, "quaternion": 1e-9,
         "intrinsics": 1e-6}


def calibrate(seed, noise, bias):
    scene = sb.standard_scene(
        n_train=50, n_test=8, seed=seed, noise=noise, width=320, height=240,
        tilt_deg=15.0, distortion=sb.bowl_distortion(
            320, 240, grid_bin=(2, 2), global_correction=bias))
    train = [sb.render_frame(scene, k).frame for k in range(scene.n_train)]
    res = dc.calibrate(train, GUESS, scene.intr_rgb, scene.intr_depth, scene.board,
                       dc.UndistortConfig(chi=2, psi=2, degree=2, seed=1,
                                          min_inliers=200, fit_radius=48),
                       dc.GlobalConfig(max_points_per_frame=800))
    k = res.intr_depth
    outputs = {"umap": res.umap.coefficients, "gmap": res.gmap.corners,
               "translation": res.extrinsic.translation,
               "quaternion": res.extrinsic.quaternion,
               "intrinsics": np.array([k.fx, k.fy, k.cx, k.cy]),
               "trace": np.asarray(res.cost_trace)}
    return outputs, res.timings


def main(args):
    scenes = dict(SCENES, **{f"bench_{s}": (s, False, BIAS) for s in args.bench_seed})
    out = {}
    stages = {}
    for name, spec in scenes.items():
        outputs, timings = calibrate(*spec)
        out.update({f"{name}/{q}": v for q, v in outputs.items()})
        stages[name] = "  ".join(f"{stage} {t:.2f} s" for stage, t in timings.items())
    if args.save:
        np.savez(args.save, **out)
    status = 0
    ref = np.load(args.against) if args.against else None
    for name in scenes:
        if ref is None:
            print(f"{name}: {stages[name]}")
            continue
        if f"{name}/trace" not in ref:
            print(f"{name}: {stages[name]}  not in {args.against}")
            status = 1
            continue
        new = {q: out[f"{name}/{q}"] for q in (*GATES, "trace")}
        old = {q: ref[f"{name}/{q}"] for q in (*GATES, "trace")}
        delta = {q: np.max(np.abs(new[q] - old[q])) for q in GATES}
        diffs = "  ".join(f"{q} {d:.3g}" for q, d in delta.items())
        trace = f"trace {new['trace'].size}/{old['trace'].size}"
        same_length = new["trace"].size == old["trace"].size
        if same_length:
            trace += f" {np.max(np.abs(new['trace'] - old['trace'])):.3g}"
        outside = [q for q, d in delta.items() if not d <= GATES[q]]
        if not same_length:
            outside.append("trace length")
        verdict = (f"OUTSIDE gates ({', '.join(outside)})" if outside
                   else "within gates")
        print(f"{name}: max |delta|  {diffs}  {trace}  {verdict}  |  {stages[name]}")
        status |= bool(outside)
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--save", help="write this run's outputs to an .npz file")
    parser.add_argument("--against",
                        help="print the max |delta| to a saved .npz file and check the gates")
    parser.add_argument("--bench-seed", type=int, action="append", default=[],
                        help="also calibrate a clean scene B with this seed")
    sys.exit(main(parser.parse_args()))
