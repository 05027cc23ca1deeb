"""Tier-1 holds the output gates: the acceptance fixtures' outputs against
the committed `tests/acceptance_reference.txt`, within the gates of
`scripts/compare_calibrations.py`, whose `compare` the script runs too.

`python scripts/write_acceptance_reference.py` rewrites the reference.
"""

import importlib.util
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_calibrations = load_script("compare_calibrations")
reference = load_script("write_acceptance_reference")


@pytest.fixture(scope="module")
def saved():
    return reference.read_reference(reference.REFERENCE)


def test_fixtures_match_the_committed_reference(saved, stage_one_runs, pipeline_b_clean,
                                                pipeline_b_noisy):
    runs = reference.reference_outputs(stage_one_runs["clean"], pipeline_b_clean,
                                       pipeline_b_noisy)
    assert saved.keys() == runs.keys()
    # the file holds each quantity's values flat, in row-major order
    report = {run: compare_calibrations.compare(
                  {q: np.ravel(v) for q, v in outputs.items()}, saved[run])
              for run, outputs in runs.items()}
    assert not any(outside for _, outside in report.values()), report


def test_reference_reads_inside_its_own_gates(saved):
    for run, outputs in saved.items():
        text, outside = compare_calibrations.compare(outputs, outputs)
        assert outside == [], (run, text)


@pytest.mark.parametrize("quantity, index, move", [
    pytest.param("gmap", 4, 1e-8, id="g-corner-1e-8"),
    pytest.param("wall_counts", 7, 1, id="one-wall-pixel"),
    pytest.param("intrinsics", 2, 2e-6, id="cx-2e-6-px"),
])
def test_a_move_past_a_gate_reads_outside(saved, quantity, index, move):
    old = saved["b_noisy"]
    moved = old[quantity].copy()
    moved[index] += move
    _, outside = compare_calibrations.compare(dict(old, **{quantity: moved}), old)
    assert outside == [quantity]


def test_a_shorter_trace_or_a_missing_quantity_reads_outside(saved):
    old = saved["b_clean"]
    _, outside = compare_calibrations.compare(dict(old, trace=old["trace"][:-1]), old)
    assert outside == ["trace length"]
    new = {q: v for q, v in old.items() if q != "gmap"}
    _, outside = compare_calibrations.compare(new, old)
    assert outside == ["gmap"]


def test_reference_round_trips_every_bit(tmp_path):
    runs = {"r": {"umap": np.array([[0.1, 1 / 3, -2e-300], [np.pi, 5e-324, 1e300]]),
                  "wall_ids": np.array(["train_00", "train_01"]),
                  "wall_counts": np.array([7, 76800])}}
    path = tmp_path / "ref.txt"
    reference.write_reference(path, runs)
    back = reference.read_reference(path)
    assert back["r"]["umap"].tobytes() == runs["r"]["umap"].ravel().tobytes()
    assert back["r"]["wall_ids"].tolist() == ["train_00", "train_01"]
    assert back["r"]["wall_counts"].tolist() == [7, 76800]
