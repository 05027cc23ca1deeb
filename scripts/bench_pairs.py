#!/usr/bin/env python3
"""Time one benchmark workload in two checkouts in alternating pairs.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs 10 --first-seed S

Pair k runs the command of PARENT_DIR's `BENCHMARK.json` with `--workload W
--seed S+k --seconds R --trace 0` in each checkout, where R is that file's
`run_seconds`, the parent first on even k and the change first on odd k,
and reads each run's last output line as its JSON result. For each
end-to-end metric it prints each side's median and quartiles (the
exclusive method of `statistics.quantiles(n=4)`, as the benchmark's README
measures spread) and the number of pairs the change won (ties count for
neither side), then a verdict:

* `better` or `worse` when one side won at least nine tenths of the pairs
  and its median is ahead by more than the parent's interquartile range;
* `unresolved` otherwise: the move, if any, is inside the host's spread.

It also says whether the change's median is within the metric's bound of
the parent's (worse by at most that fraction). It exits 1 when a run is
not correct or has a failed op, after printing the table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile) by the exclusive method."""
    return tuple(statistics.quantiles(values, n=4))


def ahead(a, b, better):
    """How far a is ahead of b on a metric where `better` ("lower" or
    "higher") values win; negative when a is behind."""
    return b - a if better == "lower" else a - b


def wins(parent, change, better):
    """The number of pairs in which the change is ahead of the parent."""
    return sum(ahead(c, p, better) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better):
    """`better`, `worse` or `unresolved` for the change, from the values
    of the same pairs in the same order."""
    q1, med_parent, q3 = quartiles(parent)
    gain = ahead(quartiles(change)[1], med_parent, better)
    if wins(parent, change, better) * 10 >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    if wins(change, parent, better) * 10 >= 9 * len(parent) and -gain > q3 - q1:
        return "worse"
    return "unresolved"


def within_bound(parent, change, better, bound):
    """Whether the change's median is worse than the parent's by at most
    `bound`, a fraction of the parent's median."""
    med_parent = quartiles(parent)[1]
    return ahead(quartiles(change)[1], med_parent, better) >= -bound * abs(med_parent)


def run_once(command, checkout, workload, seed, seconds):
    """The JSON result of one benchmark run in `checkout`."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    sides = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in sides}
    ok = True
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(bench["command"], sides[side], args.workload, seed,
                           bench["run_seconds"])
            results[side].append(out)
            if not out["correct"] or out["failed"]:
                ok = False
                print(f"pair {k} seed {seed} {side}: correct {out['correct']}, "
                      f"{out['failed']} of {out['attempted']} ops failed")
            print(f"pair {k} seed {seed} {side}: " + ", ".join(
                f"{m['name']} {out['metrics'][m['name']]['value']:.6g}"
                for m in bench["end_to_end"]), flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {bench['run_seconds']:g} s runs")
    for m in bench["end_to_end"]:
        name, better = m["name"], m["better"]
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in sides)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        won = wins(parent, change, better)
        bound = "within" if within_bound(parent, change, better, m["bound"]) else "OUTSIDE"
        print(f"{name}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}], change {cmed:.6g} "
              f"[{cq1:.6g}, {cq3:.6g}] {m['unit']} ({cmed / pmed - 1:+.1%}); change "
              f"{better} in {won} of {args.pairs}; {verdict(parent, change, better)}; "
              f"{bound} the {m['bound']:g} bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
