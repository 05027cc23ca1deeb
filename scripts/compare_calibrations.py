#!/usr/bin/env python3
"""Calibrate the acceptance scenes and diff the outputs against a saved run.

Runs the full two-stage calibration on the scenes of the acceptance suite
(`tests/conftest.py`: scene A clean, scene B clean and noisy) and keeps U,
the free G corners, the extrinsic, the depth intrinsics, the cost trace and
stage one's wall masks (`CalibrationResult.inlier_sets`) of each. Save them
from one checkout and compare from another to see how far a change moves
the outputs:

    python scripts/compare_calibrations.py --save before.npz
    python scripts/compare_calibrations.py --against before.npz

Each scene prints one line, which ends with the scene's stage times
(`CalibrationResult.timings`). With `--against` the line starts with the
max |delta| per quantity, then the two cost-trace lengths and, when they
agree, the trace's max |delta|, then the relative difference of the final
refinement costs, which shows whether a change that moves the solver's
start reached the same minimum, then the wall pixels that differ, and
whether it is within the output gates: U, G, translation and quaternion
within 1e-9, the depth intrinsics within 1e-6 px, cost traces of equal
length, and walls for the same frame ids with no pixel differing. The best
mask feeds the refit, so a wall that moves is a change even when the maps
stay inside their gates. The script exits 1 when a scene is outside them or
missing from the saved run. A file saved before the walls were kept has
none, and every scene compared against it is outside the gates: save the
reference with this script in both checkouts. `compare` is the one
comparison against the gates; `tests/test_acceptance_reference.py` runs it
on the acceptance fixtures against `tests/acceptance_reference.txt`.

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
    ids = sorted(res.inlier_sets)
    outputs = {"umap": res.umap.coefficients, "gmap": res.gmap.corners,
               "translation": res.extrinsic.translation,
               "quaternion": res.extrinsic.quaternion,
               "intrinsics": np.array([k.fx, k.fy, k.cx, k.cy]),
               "trace": np.asarray(res.cost_trace),
               "wall_ids": np.array(ids),
               "walls": np.stack([res.inlier_sets[i] for i in ids])}
    return outputs, res.timings


def _max_delta(a, b):
    return np.max(np.abs(a - b)) if np.shape(a) == np.shape(b) else np.inf


def compare(new, old):
    """(text, outside) for one scene's outputs `new` against a saved run's
    `old`, each a dict of arrays by quantity.

    The text holds the max |delta| of each GATES quantity, the cost-trace
    lengths and, when they agree, the trace's max |delta| and the relative
    difference of the final costs, then the walls that differ: the pixels
    of the masks `walls`, or the frames of the per-frame pixel counts
    `wall_counts`, both in the order of `wall_ids`. `outside` names each
    gate missed: a GATES quantity that moved past its gate or changed
    shape, a trace of another length, walls for other frame ids or with
    any pixel or count differing, and a quantity that only one run holds.
    """
    outside = sorted(new.keys() ^ old.keys())
    text = [f"not in both runs: {', '.join(outside)}"] if outside else []
    delta = {q: _max_delta(new[q], old[q]) for q in GATES if q in new and q in old}
    text.append("max |delta|  " + "  ".join(f"{q} {d:.3g}" for q, d in delta.items()))
    outside += [q for q, d in delta.items() if not d <= GATES[q]]
    if "trace" in new and "trace" in old:
        a, b = new["trace"], old["trace"]
        trace = f"trace {a.size}/{b.size}"
        if a.size == b.size:
            trace += f" {np.max(np.abs(a - b)):.3g}"
        else:
            outside.append("trace length")
        text.append(f"{trace}  final cost rel {abs(a[-1] - b[-1]) / abs(b[-1]):.3g}")
    for q, unit in (("walls", "px"), ("wall_counts", "pixel counts")):
        if q not in new or q not in old:
            continue
        ids = new["wall_ids"].tolist()
        if ids != old["wall_ids"].tolist():
            text.append("walls for other frame ids")
            outside.append(q)
            continue
        differ = np.count_nonzero(new[q] != old[q])
        text.append(f"walls {len(ids)} frames {differ} {unit} differ")
        if differ:
            outside.append(q)
    return "  ".join(text), outside


def main(args):
    scenes = dict(SCENES, **{f"bench_{s}": (s, False, BIAS) for s in args.bench_seed})
    out = {}
    stages = {}
    for name, spec in scenes.items():
        out[name], timings = calibrate(*spec)
        stages[name] = "  ".join(f"{stage} {t:.2f} s" for stage, t in timings.items())
    if args.save:
        np.savez(args.save, **{f"{name}/{q}": v for name, outputs in out.items()
                               for q, v in outputs.items()})
    status = 0
    ref = np.load(args.against) if args.against else None
    for name in scenes:
        if ref is None:
            print(f"{name}: {stages[name]}")
            continue
        old = {key.split("/", 1)[1]: ref[key] for key in ref.files
               if key.startswith(f"{name}/")}
        if not old:
            print(f"{name}: {stages[name]}  not in {args.against}")
            status = 1
            continue
        text, outside = compare(out[name], old)
        verdict = (f"OUTSIDE gates ({', '.join(outside)})" if outside
                   else "within gates")
        print(f"{name}: {text}  {verdict}  |  {stages[name]}")
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
