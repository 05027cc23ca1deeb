"""The benchmark's modules import against this checkout's `src`.

`benchmark/workloads.py` and `benchmark/layers.py` import depthcal names
and read attributes of depthcal modules. A rename or removal of one of them
in `src` fails here, not only when the benchmark runs. So does a change to
the values the correction workloads build their maps from, or to the
accuracy `calib_accuracy` reads off a calibration.
"""

import ast
import importlib.util
import os
import types

import numpy as np
import pytest

import depthcal
from depthcal import pipeline, synthbench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "benchmark")


def load(monkeypatch, name):
    """benchmark/<name>.py, imported against this checkout's `src`."""
    assert os.path.realpath(depthcal.__file__).startswith(
        os.path.realpath(os.path.join(ROOT, "src")) + os.sep)
    monkeypatch.syspath_prepend(BENCHMARK)  # for imports of sibling modules
    path = os.path.join(BENCHMARK, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["workloads", "layers"])
def test_benchmark_module_imports_against_src(monkeypatch, name):
    module = load(monkeypatch, name)
    path = os.path.join(BENCHMARK, f"{name}.py")
    # every `module.attribute` the file reads on a depthcal module exists
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    missing = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, types.ModuleType)
                    and owner.__name__.startswith("depthcal")
                    and not hasattr(owner, node.attr)):
                missing.add(f"{owner.__name__}.{node.attr}")
    assert not missing


def test_benchmark_stream_maps_correct_a_frame_to_the_oracle(monkeypatch):
    # the scene is built from workloads.BIAS, and fresh_maps() passes the
    # scene's global correction to GlobalMap as all three free corners
    workloads = load(monkeypatch, "workloads")
    inputs = workloads.StreamInputs(5)
    umap, gmap = inputs.fresh_maps()
    assert all(np.array_equal(c, workloads.BIAS) for c in gmap.corners)
    cloud = pipeline.apply_calibration(umap, gmap, inputs.images[0], inputs.intr)
    inputs._match_oracle(0, cloud)


def test_benchmark_calib_accuracy_matches_the_metrics_on_masks(monkeypatch,
                                                              pipeline_b_clean):
    # calib_accuracy on the acceptance suite's scene B clean, calib-accept's
    # scene family, with the fixture's calibration: no new calibration runs.
    # It passes IndexSet.from_mask's masks to the synthbench metrics.
    workloads = load(monkeypatch, "workloads")
    run = pipeline_b_clean
    umap = run.result.umap
    assert (umap.width, umap.height, umap.chi, umap.psi) == (320, 240, 2, 2)
    assert np.array_equal(run.scene.distortion.global_correction, workloads.BIAS)
    tests = [lf for lf in run.frames if lf.is_test]
    case = types.SimpleNamespace(scene=run.scene, test_frames=tests)
    accuracy = workloads.calib_accuracy(case, run.result)

    depth, planarity = [], []
    for lf in tests:
        cloud = pipeline.apply_calibration(umap, run.result.gmap, lf.frame.depth,
                                           run.result.intr_depth)
        wall = (lf.labels == synthbench.LABEL_WALL) & cloud.valid
        depth.append(abs(synthbench.depth_vs_ground_truth(cloud, wall, lf.wall_distance)))
        planarity.append(synthbench.planarity_error(cloud, wall))
    assert accuracy["depth_err_mm"] == max(depth) * 1e3
    assert accuracy["planarity_err_mm"] == max(planarity) * 1e3
    assert accuracy["frames_skipped"] == run.scene.n_train - len(run.result.inlier_sets)
    workloads.check_calib(accuracy)
