#!/usr/bin/env python3
"""depthcal benchmark: calibration at acceptance scale, streaming correction
and file correction, measured end to end, with a traced run for the layers.

Run from the root of a checkout:

    python3 benchmark/run.py --workload calib-accept --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop with one client; see README.md for why):

    calib-accept    read a synthbench dataset, calibrate, write the result
    correct-stream  correct distinct 640x480 frames at threads=1, then again
                    at threads=os.cpu_count()
    correct-file    the `depthcal correct` path: read files, correct, write PLY

With --trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics from a run that wraps the program's functions in spans. Lines before
it describe the machine, the inputs and the checks. Exit status is 0 when the
benchmark ran (the JSON says whether outputs were correct) and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("calib-accept", "correct-stream", "correct-file")
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
CALIB_OPS = 2  # distinct datasets per run; one calibration outlasts a run
SETUP_REPEATS = 15
CALIB_SETUP_REPEATS = 5  # per dataset
MIN_FILE_OPS = 9
TRACE_SIDE_SECONDS = 2.0  # stream time spent on families other than the run's own
TRACE_SIDE_FILE_OPS = 2
TRACE_FILE_OPS = 5  # file ops per phase when correct-file is the run's own family
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it


class Ops:
    """Counts attempted and failed ops; an op fails when it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # the run goes on; the failure is counted and shown
            self.failed += 1
            traceback.print_exc(file=sys.stderr)


def closed_loop(seconds, min_ops, step):
    """Call step(i) back to back until `seconds` passed and `min_ops` ran."""
    t_end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < t_end:
        step(i)
        i += 1
    return i


def with_setups(seconds, repeats, setup, step):
    """Wrap step(i) so that `repeats` calls of setup() are spread evenly over
    the first `seconds` of the loop, the first one before op 0. Set-up then
    meets the same drift of the host as the ops, not only its state at the
    start of the run."""
    t0 = time.perf_counter()
    done = 0

    def wrapped(i):
        nonlocal done
        while done < repeats and time.perf_counter() - t0 >= done * seconds / repeats:
            setup()
            done += 1
        step(i)

    return wrapped


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it; the maximum (percentile 100) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def info(label, payload):
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}")


class Timings:
    """Wall and CPU seconds of the ops of one phase, and the peak RSS of
    the process before they started."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.rss_before_mb = None

    def start(self):
        self.rss_before_mb = peak_rss_mb()

    def add(self, wall, cpu):
        self.wall.append(wall)
        self.cpu.append(cpu)


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)
#
# Each runner does its set-up, then its timed ops with the cheap in-loop
# checks, and returns a function that makes the check-only work (oracles,
# the PLY round trip) and returns the number of ops it found wrong. The
# caller reads the peak RSS before it calls that function.


def run_calib(wl, seed, seconds, workdir):
    cases = [wl.CalibCase(seed * CALIB_OPS + j, workdir) for j in range(CALIB_OPS)]
    setup, ops, times, accuracies = [], Ops(), Timings(), []

    def step(i):
        case = cases[i % len(cases)]
        if i < len(cases):  # each dataset is written just before its first op
            setup.extend(case.write(CALIB_SETUP_REPEATS))
        wall, cpu, result = wl.timed(wl.calib_op, case)
        times.add(wall, cpu)
        # Measured now so the result can be freed; it corrects 320x240 test
        # frames, far below the op's own peak.
        accuracies.append((i, case.scene.seed, wl.calib_accuracy(case, result)))

    times.start()
    closed_loop(seconds, CALIB_OPS, lambda i: ops.run(step, i))

    def check():
        wrong = 0
        for i, scene_seed, accuracy in accuracies:
            info(f"calib op {i} (scene seed {scene_seed})", accuracy)
            try:
                wl.check_calib(accuracy)
            except wl.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                wrong += 1
        return wrong

    return setup, times, ops, {}, check


def run_stream(wl, seed, seconds):
    """Three quarters of the run correct frames at threads=1 (the timed
    metric), with the set-up repeats spread over them; the last quarter
    corrects at threads=nproc. The multi-thread times are
    printed but not bounded: on a small shared machine they spread too far
    between runs for any bound. The phases do not alternate, because a
    multi-thread call slowed the single-thread call after it by up to a
    quarter."""
    inputs = wl.StreamInputs(seed)
    threads = os.cpu_count() or 1
    setup, maps = [], []
    ops, times, times_mt = Ops(), Timings(), Timings()

    def build():
        maps.clear()  # the old maps' caches must not add to the peak RSS
        wall, umap, gmap = wl.stream_setup(inputs, threads)
        setup.append(wall)
        maps[:] = [umap, gmap]

    def step(i, n_threads, sink):
        k = i % len(inputs.images)
        wall, cpu, cloud = wl.timed(wl.stream_op, inputs, *maps, k, n_threads)
        sink.add(wall, cpu)
        inputs.check(k, cloud)

    # the threads=1 phase sees every frame first, so it sets the references
    # the multi-thread outputs must equal bit for bit
    times.start()
    single = with_setups(seconds * 3 / 4, SETUP_REPEATS, build,
                         lambda i: ops.run(step, i, 1, times))
    closed_loop(seconds * 3 / 4, len(inputs.images), single)
    closed_loop(seconds / 4, len(inputs.images),
                lambda i: ops.run(step, i, threads, times_mt))

    def miss(ts):
        return sum(t * 1e3 > wl.BUDGET_MS for t in ts) / max(len(ts), 1)

    extra = dict(wl.working_set(inputs, maps[0]), threads=threads,
                 budget_ms=round(wl.BUDGET_MS, 2), budget_miss_frac=miss(times.wall),
                 budget_miss_frac_mt=miss(times_mt.wall), mt_ops=len(times_mt.wall))
    if times_mt.wall:
        extra.update(mt_p50_ms=median(times_mt.wall) * 1e3,
                     mt_cpu_p50_ms=median(times_mt.cpu) * 1e3,
                     mt_tail_ms=tail([t * 1e3 for t in times_mt.wall])[0])
    return setup, times, ops, extra, inputs.check_oracle


def run_file(wl, seed, seconds, workdir):
    inputs = wl.StreamInputs(seed)
    case = wl.FileCase(inputs, workdir)
    setup = []
    umap, _ = inputs.fresh_maps()
    extra = wl.working_set(inputs, umap)
    del umap
    ops, times, last = Ops(), Timings(), []

    def step(i):
        k = i % len(inputs.images)
        wall, cpu, cloud = wl.timed(wl.file_op, case, k)
        times.add(wall, cpu)
        last[:] = [cloud]
        wl.check_file(case, k, cloud)

    times.start()
    closed_loop(seconds, MIN_FILE_OPS,
                with_setups(seconds, SETUP_REPEATS, lambda: setup.append(case.write()),
                            lambda i: ops.run(step, i)))

    def check():
        wrong = inputs.check_oracle()
        if last:
            try:
                wl.check_round_trip(case, last[0])
            except wl.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                wrong += 1
        return wrong

    return setup, times, ops, extra, check


def end_to_end(workload, seed, seconds, workdir):
    import machine
    import workloads as wl

    ticks = machine.cpu_ticks()
    if workload == "calib-accept":
        setup, times, ops, extra, check = run_calib(wl, seed, seconds, workdir)
    elif workload == "correct-file":
        setup, times, ops, extra, check = run_file(wl, seed, seconds, workdir)
    else:
        setup, times, ops, extra, check = run_stream(wl, seed, seconds)
    # What sets the peak: the ops and set-ups, or the inputs made before them.
    rss = {"inputs_mb": times.rss_before_mb, "peak_mb": peak_rss_mb()}
    steal = machine.steal_share(ticks, machine.cpu_ticks())
    ops.failed += check()
    rss["after_checks_mb"] = peak_rss_mb()
    info("rss", rss)
    if not times.cpu:
        times.add(float("nan"), float("nan"))
    # The tail is printed, not bounded: on a shared host other guests'
    # bursts set it, and it spread too far between runs for any bound. The
    # share of CPU time the host gave to other guests shows how busy it was.
    tail_ms, pct = tail([t * 1e3 for t in times.wall])
    if len(times.wall) <= 2 * TAIL_BEYOND:
        extra["op_ms"] = [round(t * 1e3, 3) for t in times.wall]
    info("samples", dict(extra, ops=len(times.wall), setup_samples=len(setup),
                         cpu_p50_ms=median(times.cpu) * 1e3, tail_ms=tail_ms,
                         tail_percentile=round(pct, 2),
                         steal_share=round(steal, 4)))
    values = {
        "setup_s": median(setup),
        "op_p50_ms": median(times.wall) * 1e3,
        "peak_rss_mb": rss["peak_mb"],
    }
    return ops, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# the traced run


def traced(workload, seed, seconds, workdir):
    """Every layer metric: a calibration untraced and then traced, then
    stream frames and file ops, each untraced and traced in turn."""
    import layers
    import workloads as wl
    from tracer import Tracer

    modules = {name: importlib.import_module(f"depthcal.{name}") for name in
               ("calib_undistort", "calib_global", "geometry", "maps", "pipeline")}
    tracer = Tracer()
    ops = Ops()
    values = dict.fromkeys(layers.PER_LAYER, 0.0)

    # calibration: the same dataset untraced, then traced
    case = wl.CalibCase(seed * CALIB_OPS, workdir)
    case.write()
    plain_out = os.path.join(workdir, "calib_untraced.txt")
    traced_out = os.path.join(workdir, "calib_traced.txt")

    def calib_pair():
        wall_plain, _, _ = wl.timed(wl.calib_op, case, None, plain_out)
        layers.install_calibration(tracer, modules)
        try:
            wall_traced, _, result = wl.timed(wl.calib_op, case, tracer, traced_out)
        finally:
            tracer.restore()
        values.update(layers.calibration_metrics(tracer, 1))
        accuracy = wl.calib_accuracy(case, result)
        # One pair, always in this order, so the overhead is printed and not
        # a metric: the host's drift between two calibrations outweighs it.
        info("traced calibration", dict(
            accuracy, untraced_s=wall_plain, traced_s=wall_traced,
            overhead=wall_traced / wall_plain - 1.0))
        values["calib_undistort.frames.skipped"] = accuracy.pop("frames_skipped")
        values.update({f"pipeline.{k}": v for k, v in accuracy.items()})
        with open(plain_out, "rb") as a, open(traced_out, "rb") as b:
            same = a.read() == b.read()
        values["trace.calib_bytes_equal"] = float(same)
        if not same:
            raise wl.CheckFailed("traced calibration wrote different bytes")
        if values["pipeline.calibrate.self.s"] < 0:
            raise wl.CheckFailed("child spans exceed the calibrate span")
        wl.check_calib(accuracy)

    ops.run(calib_pair)

    # corrections: each stream frame and each file op runs untraced and
    # traced in turn, the order flipped every pair, so that the host's drift
    # falls on both alike
    inputs = wl.StreamInputs(seed)
    threads = os.cpu_count() or 1
    _, umap, gmap = wl.stream_setup(inputs, threads)
    file_case = wl.FileCase(inputs, workdir)
    file_case.write()
    stream_s = seconds / 2 if workload == "correct-stream" else TRACE_SIDE_SECONDS
    file_s = seconds / 2 if workload == "correct-file" else 0.0
    file_min = TRACE_FILE_OPS if workload == "correct-file" else TRACE_SIDE_FILE_OPS
    plain_frames, plain_files, last = [], [], []

    def stream_frame(i, tr):
        k = i % len(inputs.images)
        wall, _, cloud = wl.timed(wl.stream_op, inputs, umap, gmap, k, 1, tr)
        inputs.check(k, cloud)
        if tr is None:
            plain_frames.append(wall)
            return
        inputs.check(k, wl.stream_op(inputs, umap, gmap, k, threads, tr))
        wl.stream_layer_evals(inputs, umap, gmap, k, tr)

    def file_step(i, tr):
        k = i % len(inputs.images)
        wall, _, cloud = wl.timed(wl.file_op, file_case, k, tr)
        if tr is None:
            plain_files.append(wall)
        last[:] = [cloud]
        wl.check_file(file_case, k, cloud)

    def in_turn(op):
        def plain(i):
            op(i, None)

        def with_tracer(i):
            layers.install_correction(tracer, modules)
            try:
                op(i, tracer)
            finally:
                tracer.restore()

        def pair(i):
            for step in ((plain, with_tracer) if i % 2 == 0 else (with_tracer, plain)):
                ops.run(step, i)

        return pair

    n_frames = closed_loop(stream_s, len(inputs.images), in_turn(stream_frame))
    n_files = closed_loop(file_s, file_min, in_turn(file_step))

    ops.failed += inputs.check_oracle()
    if last:
        ops.run(wl.check_round_trip, file_case, last[0])
    values.update(layers.stream_metrics(tracer, n_frames))
    values.update(layers.file_metrics(tracer, n_files))
    traced_frames = [s.duration for s in tracer.select("apply")]
    traced_files = [s.duration for s in tracer.select("file_op")]
    if plain_frames and traced_frames:
        values["trace.overhead.stream"] = median(traced_frames) / median(plain_frames) - 1.0
    if plain_files and traced_files:
        values["trace.overhead.file"] = median(traced_files) / median(plain_files) - 1.0
    if tracer.absent or tracer.hook_errors:
        info("absent bindings", sorted(set(tracer.absent)))
        info("hook errors", sorted(set(tracer.hook_errors)))
    info("samples", {"traced_frames": n_frames, "traced_file_ops": n_files,
                     "spans": len(tracer.spans)})
    return ops, {k: {"value": float(v), "unit": layers.PER_LAYER[k]}
                 for k, v in values.items()}


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "depthcal", "__init__.py")):
        print(f"benchmark: no depthcal sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on a small shared machine threaded BLAS made one
    # calibration slower and far noisier than a single thread did.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import machine

    info("run", {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace})
    info("machine", machine.describe())
    workdir = tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT)
    try:
        run = traced if args.trace else end_to_end
        ops, metrics = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
