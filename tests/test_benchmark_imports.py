"""The benchmark's modules import against this checkout's `src`.

`benchmark/workloads.py` and `benchmark/layers.py` import depthcal names
and read attributes of depthcal modules. A rename or removal of one of them
in `src` fails here, not only when the benchmark runs.
"""

import ast
import importlib.util
import os
import types

import pytest

import depthcal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "benchmark")


@pytest.mark.parametrize("name", ["workloads", "layers"])
def test_benchmark_module_imports_against_src(monkeypatch, name):
    assert os.path.realpath(depthcal.__file__).startswith(
        os.path.realpath(os.path.join(ROOT, "src")) + os.sep)
    monkeypatch.syspath_prepend(BENCHMARK)  # for imports of sibling modules
    path = os.path.join(BENCHMARK, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
