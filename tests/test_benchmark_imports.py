"""The benchmark's modules import against this checkout's `src`.

`benchmark/workloads.py` and `benchmark/layers.py` import depthcal names
and read attributes of depthcal modules. A rename or removal of one of them
in `src` fails here, not only when the benchmark runs. So does a change to
the values the correction workloads build their maps from.
"""

import ast
import importlib.util
import os
import types

import numpy as np
import pytest

import depthcal
from depthcal import pipeline

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
