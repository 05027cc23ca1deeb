"""The benchmark's modules import against this checkout's `src`.

`benchmark/workloads.py` and `benchmark/layers.py` import depthcal names
and read attributes of depthcal modules. A rename or removal of one of them
in `src` fails here, not only when the benchmark runs. So does a change to
the values the correction workloads build their maps from, or to the
accuracy `calib_accuracy` reads off a calibration, or a change that makes a
`layers` hook fail or count something else than the layer's work.
"""

import ast
import importlib
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


def test_benchmark_calibration_hooks_record_every_layer(monkeypatch):
    # a calibration traced as the benchmark traces one: every hook fits the
    # program's signatures, and the per-layer counts read what the
    # calibration did
    layers = load(monkeypatch, "layers")
    tracer_module = load(monkeypatch, "tracer")
    # with noise some pixels fall off the wall, so a count of the image's
    # rows or pixels in place of the wall's is told apart
    scene = synthbench.standard_scene(
        n_train=12, n_test=1, seed=13, width=80, height=60,
        distortion=synthbench.bowl_distortion(80, 60, peak=0.015, grid_bin=(2, 2)))
    train = [synthbench.render_frame(scene, k).frame for k in range(scene.n_train)]
    modules = {name: importlib.import_module(f"depthcal.{name}") for name in
               ("calib_undistort", "calib_global", "geometry", "maps", "pipeline")}
    tracer = tracer_module.Tracer()
    layers.install_calibration(tracer, modules)
    try:
        with tracer.span("calibrate"):
            result = pipeline.calibrate(
                train, depthcal.RigidTransform((1, 0, 0, 0), (0.025, 0.0, 0.0)),
                scene.intr_rgb, scene.intr_depth, scene.board,
                depthcal.UndistortConfig(chi=2, psi=2, seed=1, min_inliers=50, fit_radius=20),
                depthcal.GlobalConfig(max_points_per_frame=100))
    finally:
        tracer.restore()
    assert tracer.hook_errors == []
    # the bindings that no calibration goes through today; a rename in src
    # adds to them
    assert set(tracer.absent) <= {
        "depthcal.calib_global.update_map", "depthcal.calib_undistort.apply_undistortion",
        "depthcal.calib_global.solve_pnp", "depthcal.maps.correct_depth_image",
        "depthcal.pipeline.depth_to_cloud"}
    metrics = layers.calibration_metrics(tracer, 1)
    assert len(result.inlier_sets) == scene.n_train
    assert metrics["calib_undistort.wall.inliers"] == sum(
        np.count_nonzero(wall) for wall in result.inlier_sets.values())
    assert metrics["calib_global.refine.points"] == 100 * scene.n_train
