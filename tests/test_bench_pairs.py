"""scripts/bench_pairs.py: the verdict on fixed numbers, and one run of
its loop on a stand-in benchmark command."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_quartiles_are_exclusive_as_the_benchmark_readme_measures_spread():
    # linear interpolation would give 12.25 and 16.75, an IQR of 4.5, not 5.5
    assert bench_pairs.quartiles(PARENT) == (11.75, 14.5, 17.25)


@pytest.mark.parametrize("change, expect", [
    pytest.param([p - 6 for p in PARENT], "better", id="ten-wins-past-the-iqr"),
    pytest.param([p - 6 for p in PARENT[:9]] + [19.0], "better", id="nine-wins-one-tie"),
    pytest.param([p - 6 for p in PARENT[:9]] + [20.0], "better", id="nine-wins"),
    pytest.param([p - 6 for p in PARENT[:8]] + [19.0, 20.0], "unresolved", id="eight-wins"),
    # 5 is past the linearly interpolated IQR (4.5) but inside the exclusive one
    pytest.param([p - 5 for p in PARENT], "unresolved", id="ten-wins-inside-the-iqr"),
    pytest.param(list(PARENT), "unresolved", id="all-ties"),
    pytest.param([p + 6 for p in PARENT], "worse", id="ten-losses-past-the-iqr"),
    pytest.param([p + 5 for p in PARENT], "unresolved", id="ten-losses-inside-the-iqr"),
    # nine wins, but one huge loss in a low pair moves the median up
    pytest.param([100.0] + [p - 0.1 for p in PARENT[1:]], "unresolved",
                 id="nine-wins-median-behind"),
])
def test_verdict_on_a_lower_is_better_metric(change, expect):
    assert bench_pairs.verdict(PARENT, change, "lower") == expect


def test_verdict_on_a_higher_is_better_metric():
    assert bench_pairs.verdict(PARENT, [p + 6 for p in PARENT], "higher") == "better"
    assert bench_pairs.verdict(PARENT, [p - 6 for p in PARENT], "higher") == "worse"
    assert bench_pairs.wins(PARENT, [p + 1 for p in PARENT[:7]] + PARENT[7:], "higher") == 7


def test_within_bound_is_a_fraction_of_the_parents_median():
    parent = [100.0] * 5
    assert bench_pairs.within_bound(parent, [125.0] * 5, "lower", 0.25)
    assert not bench_pairs.within_bound(parent, [125.5] * 5, "lower", 0.25)
    assert bench_pairs.within_bound(parent, [90.0] * 5, "higher", 0.1)
    assert not bench_pairs.within_bound(parent, [89.5] * 5, "higher", 0.1)


FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("calls.txt", "a") as fh:
    fh.write(" ".join(args[k] for k in ("--seed", "--seconds", "--trace")) + "\\n")
value = float(args["--seed"]) + {shift}
print("# run: not the result")
print(json.dumps({{"correct": True, "attempted": 5, "failed": {failed},
                  "metrics": {{"op_p50_ms": {{"value": value, "unit": "ms"}}}}}}))
"""


def fake_checkout(path, shift, failed=0):
    path.mkdir()
    (path / "run.py").write_text(FAKE_RUN.format(shift=shift, failed=failed))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "run.py"], "run_seconds": 2,
        "end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower",
                        "bound": 0.25}]}))
    return path


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_pairs_alternate_with_a_seed_each(tmp_path, capsys, failed, code):
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", -1.0, failed)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "3", "--first-seed", "40"]) == code
    for side in (parent, change):
        assert (side / "calls.txt").read_text() == "40 2 0\n41 2 0\n42 2 0\n"
    lines = capsys.readouterr().out.splitlines()
    runs = [line for line in lines if line.startswith("pair") and "op_p50_ms" in line]
    assert [line.split(":")[0] for line in runs] == [
        "pair 0 seed 40 parent", "pair 0 seed 40 change",
        "pair 1 seed 41 change", "pair 1 seed 41 parent",
        "pair 2 seed 42 parent", "pair 2 seed 42 change"]
    assert "change lower in 3 of 3" in lines[-1]
