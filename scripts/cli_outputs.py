#!/usr/bin/env python3
"""Write the files the CLI writes for one fixed small scenario into a directory.

Runs `simulate`, `calibrate`, `correct` on one test frame and `evaluate`
through `depthcal.cli.main` on a noisy 160x120 scene with 12 training and 3
test frames. Run it in two checkouts and compare the outputs byte for byte:

    python scripts/cli_outputs.py /tmp/before    # in one checkout
    python scripts/cli_outputs.py /tmp/after     # in the other
    diff -r /tmp/before /tmp/after

The calibration report's `timing` rows hold wall-clock seconds, which vary
from run to run, so the script deletes them from the report it leaves.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from depthcal.cli import main as depthcal_main  # noqa: E402

SCENE = "image_width 160\nimage_height 120\nnoise on\n"


def run(out):
    os.makedirs(out, exist_ok=True)
    scene = os.path.join(out, "scene.txt")
    dataset = os.path.join(out, "dataset")
    calib = os.path.join(out, "calibration.txt")
    report = calib + ".report.csv"
    with open(scene, "w") as fh:
        fh.write(SCENE)
    steps = [
        ["simulate", "--scene", scene, "--out", dataset, "--train", "12",
         "--test", "3", "--seed", "4"],
        ["calibrate", "--dataset", dataset, "--out", calib, "--bin", "2x2",
         "--fit-radius", "24", "--min-inliers", "50", "--seed", "3"],
        ["correct", "--calib", calib, "--in", os.path.join(dataset, "depth", "test_00.pgm"),
         "--out", os.path.join(out, "test_00.ply")],
        ["evaluate", "--calib", calib, "--dataset", dataset,
         "--out", os.path.join(out, "evaluation")],
    ]
    for step in steps:
        print(f"$ depthcal {' '.join(step)}")
        code = depthcal_main(step)
        if code != 0:
            return code
    with open(report) as fh:
        rows = [row for row in fh if not row.startswith("timing,")]
    with open(report, "w") as fh:
        fh.writelines(rows)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="output directory")
    sys.exit(run(parser.parse_args().out))
