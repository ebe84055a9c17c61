"""Summarise one results file, or compare two, one row per workload and metric.

    python3 perfbench/diff.py RESULTS.jsonl              # medians, quartiles, spreads
    python3 perfbench/diff.py PARENT.jsonl CHANGE.jsonl  # before/after per workload

A results file holds one JSON object per line, as ``sweep.py`` writes them:
the run's result plus its ``workload``, ``seed`` and ``trace``.  The spread
of a metric is the distance between its quartiles as a share of its median.
A compared metric is ``unresolved`` when either side's spread exceeds the
metric's bound in BENCHMARK.json, unless every run of the change beats every
run of the parent; it is ``WORSE`` when the change's median is worse than the
parent's by more than the bound.  Metrics without a bound get no verdict.
Each workload's header gives both sides' failed_ratio and reads
``MORE FAILURES`` when the change's is higher than the parent's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Metric values per (workload, trace, metric), plus failed/attempted totals."""
    values, counts = {}, {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        key = (run["workload"], run["trace"])
        total = counts.setdefault(key, [0, 0])
        total[0] += run["failed"]
        total[1] += run["attempted"]
        for name, m in run["metrics"].items():
            values.setdefault(key + (name,), (m["unit"], []))[1].append(m["value"])
    return values, counts


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def fmt(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:12.4f} [{q1:.4f}, {q3:.4f}]"


def verdict(before, after, better, bound):
    sign = 1 if better == "lower" else -1
    if all(sign * (a - b) < 0 for a in after for b in before):
        return "better, every run"
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    worse = sign * (statistics.median(after) - statistics.median(before))
    return "WORSE" if worse > bound * statistics.median(before) else "within bound"


def failures(failed, attempted):
    return f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)"


def summary(path):
    values, counts = load(path)
    known = bounds()
    for (workload, trace), (failed, attempted) in sorted(counts.items()):
        print(f"\n{workload} (trace {trace}): {failures(failed, attempted)}")
        for (w, t, name), (unit, xs) in sorted(values.items()):
            if (w, t) != (workload, trace):
                continue
            note = ""
            if name in known:
                s, bound = spread(xs), known[name][1]
                note = f"spread {s:.4f} of bound {bound} ({s / bound:.2f})"
            print(f"  {name:42s} {unit:10s} n={len(xs):2d} {fmt(xs)}  {note}")


def compare(parent_path, change_path):
    before, parent_counts = load(parent_path)
    after, change_counts = load(change_path)
    known = bounds()
    workload = None
    for key in sorted(before.keys() & after.keys()):
        w, trace, name = key
        if (w, trace) != workload:
            workload = (w, trace)
            (pf, pa), (cf, ca) = parent_counts[workload], change_counts[workload]
            flag = "  MORE FAILURES" if cf / ca > pf / pa else ""
            print(f"\n{w} (trace {trace}): parent {failures(pf, pa)}, "
                  f"change {failures(cf, ca)}{flag}")
            print(f"  {'metric':42s} {'parent median [q1, q3]':>36s} "
                  f"{'change median [q1, q3]':>36s} {'change':>8s}")
        xs, ys = before[key][1], after[key][1]
        base = statistics.median(xs)
        delta = (statistics.median(ys) - base) / base if base else 0.0
        note = verdict(xs, ys, *known[name]) if name in known else ""
        print(f"  {name:42s} {fmt(xs):>36s} {fmt(ys):>36s} {delta:+8.2%}  {note}")


def main(argv):
    if len(argv) == 1:
        summary(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
