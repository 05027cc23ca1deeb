#!/usr/bin/env python3
"""Rewrite the acceptance reference that tier-1 checks the fixtures against.

Builds the acceptance fixtures of `tests/conftest.py` that the reference
covers, stage one on scene A clean and the full pipeline on scenes B clean
and noisy, and writes their outputs to `tests/acceptance_reference.txt`:

    python scripts/write_acceptance_reference.py

Per run it keeps U at every 10th control pixel in both grid directions and
each frame's wall pixel count; per pipeline also G's free corners, the
extrinsic, the depth intrinsics and the cost trace. Each line is `<run>
<quantity> <values>`, with U and G one line per control pixel or corner,
and every float is written in `repr` form, so it reads back to the same
bits. `tests/test_acceptance_reference.py` compares the fixtures against
the file with `compare` and the gates of `scripts/compare_calibrations.py`.
A change that moves the outputs rewrites the file and states the deltas.
"""

import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REFERENCE = os.path.join(ROOT, "tests", "acceptance_reference.txt")
U_STEP = 10  # U is kept at every U_STEP-th control pixel along u and v


def stage_one_outputs(umap, walls):
    """U's subsample and the wall pixel count of each frame, by frame id."""
    ids = sorted(walls)
    return {"umap": umap.coefficients[::U_STEP, ::U_STEP],
            "wall_ids": np.array(ids),
            "wall_counts": np.array([np.count_nonzero(walls[i]) for i in ids])}


def pipeline_outputs(result):
    k = result.intr_depth
    return dict(stage_one_outputs(result.umap, result.inlier_sets),
                gmap=result.gmap.corners, translation=result.extrinsic.translation,
                quaternion=result.extrinsic.quaternion,
                intrinsics=np.array([k.fx, k.fy, k.cx, k.cy]),
                trace=np.asarray(result.cost_trace))


def reference_outputs(stage_one_clean, pipeline_clean, pipeline_noisy):
    """The reference's runs, from a `StageOneRun` and two `PipelineRun`s."""
    return {"a_clean_stage_one": stage_one_outputs(stage_one_clean.umap,
                                                   stage_one_clean.walls),
            "b_clean": pipeline_outputs(pipeline_clean.result),
            "b_noisy": pipeline_outputs(pipeline_noisy.result)}


def write_reference(path, runs):
    with open(path, "w") as fh:
        fh.write("# Written by scripts/write_acceptance_reference.py; read by\n"
                 "# tests/test_acceptance_reference.py.\n")
        for run, outputs in runs.items():
            for quantity, values in outputs.items():
                for row in np.reshape(values, (-1, np.shape(values)[-1])):
                    # str of a float is its shortest round-trip repr
                    fh.write(" ".join([run, quantity, *map(str, row.tolist())]) + "\n")


def read_reference(path):
    """{run: {quantity: 1-D array}}, the values of a quantity's lines in
    file order: frame ids as text, every other value as a float."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                run, quantity, *values = line.split()
                rows.setdefault(run, {}).setdefault(quantity, []).extend(values)
    return {run: {q: np.array(v if q == "wall_ids" else [float(x) for x in v])
                  for q, v in outputs.items()}
            for run, outputs in rows.items()}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import conftest

    scene_a = conftest._scene_a(noise=False)
    runs = [conftest.StageOneRun(scene_a, conftest._render_scene(scene_a), degree=2)]
    for noise in (False, True):
        scene_b = conftest._scene_b(noise=noise)
        runs.append(conftest.PipelineRun(scene_b, conftest._render_scene(scene_b)))
    write_reference(REFERENCE, reference_outputs(*runs))
    print(f"reference written to {os.path.normpath(REFERENCE)}")


if __name__ == "__main__":
    main()
