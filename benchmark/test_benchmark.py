"""Fast tests of the benchmark's own logic, on fake layers.

Run with `python -m pytest benchmark/test_benchmark.py`.
"""

import types

import pytest

import layers
import run
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def fake_layer(clock):
    """outer spends 1 + 4 s itself around two leaf calls of 2 and 3 s."""
    mod = types.ModuleType("fakelayer")

    def leaf(seconds, scale=1.0):
        clock.advance(seconds * scale)
        return seconds

    def outer():
        clock.advance(1.0)
        total = mod.leaf(2.0) + mod.leaf(1.5, scale=2.0)
        clock.advance(4.0)
        return total

    mod.leaf = leaf
    mod.outer = outer
    return mod


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    mod = fake_layer(clock)
    tracer = Tracer(clock)
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer() == 3.5
    (outer,) = tracer.select("outer")
    assert outer.duration == 10.0
    assert tracer.self_time(outer) == 5.0
    assert tracer.total("leaf", under="outer") == 5.0
    assert tracer.count("leaf") == 2


def test_wrapper_passes_arguments_and_restore_puts_originals_back():
    clock = FakeClock()
    mod = fake_layer(clock)
    original = mod.leaf
    tracer = Tracer(clock)
    tracer.wrap(mod, "leaf", "leaf")
    assert mod.leaf is not original
    assert mod.leaf(1.0, scale=3.0) == 1.0
    assert clock.t == 3.0
    tracer.restore()
    assert mod.leaf is original


def test_missing_binding_is_reported_absent_not_raised():
    tracer = Tracer(FakeClock())
    mod = types.ModuleType("fakelayer")
    assert tracer.wrap(mod, "gone", "gone") is False
    assert tracer.absent == ["fakelayer.gone"]
    assert tracer.total("gone") == 0


def test_a_hook_that_no_longer_fits_does_not_break_the_call():
    clock = FakeClock()
    mod = fake_layer(clock)
    tracer = Tracer(clock)

    def bad_before(span, args, kwargs):
        raise KeyError("renamed argument")

    def bad_after(span, args, kwargs, result):
        return result.missing_attribute

    tracer.wrap(mod, "leaf", "leaf", before=bad_before, after=bad_after)
    assert mod.leaf(2.0, scale=0.5) == 2.0
    assert clock.t == 1.0
    assert len(tracer.hook_errors) == 2
    assert tracer.count("leaf") == 1


def test_span_closed_by_an_exception_is_still_recorded():
    clock = FakeClock()
    mod = types.ModuleType("fakelayer")

    def boom():
        clock.advance(2.0)
        raise ValueError("bad input")

    mod.boom = boom
    tracer = Tracer(clock)
    tracer.wrap(mod, "boom", "boom")
    with pytest.raises(ValueError):
        mod.boom()
    assert tracer.total("boom") == 2.0


class FakeLM:
    def __init__(self, iterations, accepted):
        self.iterations = iterations
        self.cost_trace = [1.0] * (accepted + 1)


def fake_program(clock):
    """Modules shaped like depthcal's: refine and PnP both run an LM solve."""
    geo = types.ModuleType("geometry")
    cu = types.ModuleType("calib_undistort")
    cg = types.ModuleType("calib_global")
    pl = types.ModuleType("pipeline")

    def lm_jacobian(residual_fn, x, r=None):
        for _ in range(3):
            residual_fn(x)
        clock.advance(0.5)
        return [[0.0] * 4] * 6  # 6 x 4 -> 24 entries

    def lm_minimize(residual_fn, x0, **kwargs):
        residual_fn(x0)  # initial cost
        geo.lm_jacobian(residual_fn, x0)
        for _ in range(3):  # one rejected and two accepted trials
            residual_fn(x0)
        clock.advance(0.25)
        return FakeLM(iterations=2, accepted=2)

    def residual(x):
        clock.advance(0.1)
        return x

    def solve_pnp(*args):
        geo.lm_minimize(residual, 0.0)
        return "pose", 0.0

    def refine(state0, observations, *args):
        cg.lm_minimize(residual, 0.0)
        return state0, None

    def estimate_undistortion_map(*args):
        cu.solve_pnp()
        return "umap", {}

    def calibrate():
        pl.estimate_undistortion_map()
        clock.advance(2.0)  # stage-two preparation
        pl.refine("state", [types.SimpleNamespace(uv=[1, 2, 3])])

    geo.lm_jacobian = lm_jacobian
    geo.lm_minimize = lm_minimize
    cu.solve_pnp = solve_pnp
    cg.lm_minimize = lm_minimize
    pl.refine = refine
    pl.estimate_undistortion_map = estimate_undistortion_map
    modules = {"geometry": geo, "calib_undistort": cu, "calib_global": cg,
               "pipeline": pl}
    return modules, calibrate


def test_lm_metrics_count_only_the_refinement_solve():
    clock = FakeClock()
    modules, calibrate = fake_program(clock)
    tracer = Tracer(clock)
    layers.install_calibration(tracer, modules)
    with tracer.span("calibrate"):
        calibrate()
    tracer.restore()
    m = layers.calibration_metrics(tracer, 1)
    # the PnP solve has the same shape but must not count
    assert m["geometry.lm.iterations"] == 2
    assert m["geometry.lm.jacobian.calls"] == 1
    assert m["geometry.lm.jacobian.bytes"] == 24 * 8
    assert m["geometry.lm.residual_evals"] == 4  # initial + 3 trials
    assert m["geometry.lm.rejected_steps"] == 1
    assert m["geometry.lm.jacobian.s"] == pytest.approx(0.8)
    assert m["calib_global.refine.residual.s"] == pytest.approx(0.7)
    assert m["geometry.lm.self.s"] == pytest.approx(0.25)
    assert m["geometry.pnp.calls"] == 1
    assert m["calib_global.refine.points"] == 3
    # calibrate = stage one (PnP: 1.45 s) + 2 s preparation + refine (1.45 s)
    assert m["pipeline.calibrate.s"] == pytest.approx(4.9)
    assert m["pipeline.calibrate.self.s"] == pytest.approx(2.0)
    # bindings this fake program lacks are absent, not errors
    assert "calib_undistort.update_map" in tracer.absent
    assert m["calib_undistort.ransac.calls"] == 0


def test_failed_ops_are_counted_and_the_run_goes_on():
    ops = run.Ops()

    def op(i):
        if i == 1:
            raise ValueError("op raised")
        if i == 2:
            raise AssertionError("output check failed")

    for i in range(4):
        ops.run(op, i)
    assert (ops.attempted, ops.failed) == (4, 2)


def test_a_wrong_reference_fails_each_op_of_its_frame_once():
    import sys

    import numpy as np

    sys.path.insert(0, run.SRC)
    import workloads

    inputs = object.__new__(workloads.StreamInputs)
    inputs.references, inputs.uses = [None, None], [0, 0]
    same = types.SimpleNamespace(valid=np.ones(2, bool), points=np.zeros(2))
    other = types.SimpleNamespace(valid=np.ones(2, bool), points=np.ones(2))
    ops = run.Ops()
    for k, cloud in [(0, same), (1, same), (1, same), (1, other)]:
        ops.run(inputs.check, k, cloud)
    assert (ops.attempted, ops.failed) == (4, 1)

    def oracle(k, cloud):
        if k == 1:
            raise workloads.CheckFailed("frame 1 is wrong")

    inputs._match_oracle = oracle
    # the two ops of frame 1 that passed the in-loop check; the third
    # failed there already
    assert inputs.check_oracle() == 2


def test_closed_loop_runs_the_minimum_when_time_is_up():
    seen = []
    assert run.closed_loop(0.0, 3, seen.append) == 3
    assert seen == [0, 1, 2]


def test_set_ups_are_spread_over_the_run(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(run.time, "perf_counter", clock)
    events = []

    def op(i):
        events.append(i)
        clock.advance(1.0)

    step = run.with_setups(4.0, 4, lambda: events.append("setup"), op)
    for i in range(6):
        step(i)
    assert events == ["setup", 0, "setup", 1, "setup", 2, "setup", 3, 4, 5]


def test_tail_leaves_ten_samples_above_it():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert (value, pct) == (90, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_metric_names_match_benchmark_json():
    import json
    import os
    import re

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
