"""Closed-loop benchmark of the roundideal library and CLI.

One client in one thread sends its next operation when the previous one has
returned.  Usage, from the repository root::

    python3 perfbench/run.py --workload compactify-maps --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced and a
traced half and the JSON object holds the per-layer metrics and the tracing
overhead.  Times are reported at a reference machine speed: after every
operation and every set-up the run times a fixed pure-Python kernel, and each
time is scaled by how long that kernel took around it (see ``Sample``).  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# setup is repeated and its median reported, so one slow import or file
# write does not decide setup_s
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# The speed reference: the oracle's meet, join and pseudocomplement tables of
# boolean(5), the same kind of list-of-lists Python as the library.  Times are
# scaled to a machine on which it takes REFERENCE_S.
REFERENCE_ORDER = oracle.downset_order(5, [])[1]
REFERENCE_S = 0.010


def reference_kernel():
    """Seconds that one run of the speed reference takes now."""
    t0 = time.perf_counter()
    oracle.Tables(REFERENCE_ORDER)
    return time.perf_counter() - t0


def load_library():
    """Import roundideal afresh, so that every setup pays for the import."""
    for name in [m for m in sys.modules if m == "roundideal" or m.startswith("roundideal.")]:
        del sys.modules[name]
    package = importlib.import_module("roundideal")
    importlib.import_module("roundideal.cli")
    return package


def setup(workload, seed, pool, workdir):
    """Import, input generation, document writing and a warm-up operation."""
    package = load_library()
    cases = workload.cases(pool, random.Random(seed), workdir)
    warm = cases[0]
    try:
        workload.check(warm, workload.run(package, warm))
    except Exception:  # the measured loop counts failures; setup only warms up
        traceback.print_exc()
    return package, cases


class Sample:
    """Latencies of one measured stretch, and the machine's speed around each.

    The processor is shared, and for seconds to minutes at a time it runs
    the same code up to 1.7 times faster or slower.  The reference kernel is
    timed before the first operation and after every one; an operation's
    latency is scaled by ``REFERENCE_S`` over the mean of the kernel times
    just before and just after it.  Library and kernel slow down together,
    so the scaled latency keeps what the library costs and drops what the
    machine's speed did to it.

    The median latency is taken in each complete round and averaged over the
    rounds, so that a change in the mix of cheap and dear cases within a run
    cannot move it from one cost level to the other.
    """

    def __init__(self):
        self.latencies = []
        self.kernel = [reference_kernel()]
        self.rounds = []
        self.failed = 0

    def scaled(self):
        k = self.kernel
        return [lat * 2 * REFERENCE_S / (k[i] + k[i + 1]) for i, lat in enumerate(self.latencies)]

    @property
    def verified_per_s(self):
        return (len(self.latencies) - self.failed) / sum(self.scaled())

    def p50(self):
        scaled = self.scaled()
        return statistics.fmean(statistics.median(scaled[a:b]) for a, b in self.rounds)


def verified(workload, case, out, report):
    """Whether an operation passed its check; ``out`` is what it returned or raised."""
    try:
        if isinstance(out, Exception):
            raise out
        return workload.check(case, out)
    except Exception:
        if report:
            traceback.print_exc()
        return False


def measure(workload, package, cases, rng, seconds, after_op=None):
    """Run rounds of every case, each in seeded shuffled order, for ``seconds``.

    Rounds keep the mix of cases the same in every run.  The first round
    always completes, so that there is a round median; the last one is cut
    short.  The reference kernel runs after each operation, outside its time.
    """
    sample = Sample()
    clock = time.perf_counter
    deadline = clock() + seconds
    while not sample.rounds or clock() < deadline:
        order = list(cases)
        rng.shuffle(order)
        first = len(sample.latencies)
        for case in order:
            if sample.rounds and clock() >= deadline:
                break
            t0 = clock()
            try:
                out = workload.run(package, case)
            except Exception as exc:
                out = exc
            sample.latencies.append(clock() - t0)
            sample.failed += not verified(workload, case, out, report=not sample.failed)
            if after_op is not None:
                after_op()
            sample.kernel.append(reference_kernel())
        else:
            sample.rounds.append((first, len(sample.latencies)))
    return sample


def tail(latencies):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(-(-pct * n // 100), 1)  # nearest rank: ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def end_to_end(sample, setup_s):
    pct, tail_s, beyond = tail(sample.scaled())
    n = len(sample.latencies)
    print(f"operations {n} in {len(sample.rounds)} complete rounds, failed {sample.failed}, "
          f"failed_ratio {sample.failed / n:.4f} ratio")
    print(f"latency_tail_ms is p{pct} over {n} samples, {beyond} beyond it")
    print(f"as measured, unscaled: {(n - sample.failed) / sum(sample.latencies):.3f} "
          f"verified operations/s of operation time, median latency "
          f"{statistics.median(sample.latencies) * 1e3:.2f} ms; reference kernel median "
          f"{statistics.median(sample.kernel) * 1e3:.2f} ms against {REFERENCE_S * 1e3:g} ms")
    return {
        "instances_per_s": (sample.verified_per_s, "1/s"),
        "latency_p50_ms": (sample.p50() * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, package, cases, rng, seconds):
    plain = measure(workload, package, cases, rng, seconds / 2)
    trace = tracer.Tracer(package)
    with trace.installed():
        sample = measure(workload, package, cases, rng, seconds / 2, trace.end_operation)
    ops = len(sample.latencies)
    metrics = trace.layer_metrics(ops, sum(sample.latencies))
    untraced, with_trace = plain.verified_per_s, sample.verified_per_s
    metrics["trace.untraced_instances_per_s"] = (untraced, "1/s")
    metrics["trace.traced_instances_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_ratio"] = (1 - with_trace / untraced if untraced else 0.0, "ratio")
    share = metrics["framemap.validate_map.share"][0]
    print(f"traced {ops} operations; tracing overhead "
          f"{untraced - with_trace:.3f}/s of {untraced:.3f}/s untraced; "
          f"framemap.validate_map holds {100 * share:.1f}% of traced time")
    return [plain, sample], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roundideal" / "__init__.py").is_file():
        print(f"error: no roundideal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pool = json.loads((HERE / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = build / f"perfbench-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        reference_kernel()  # warm the kernel up before its times count
        kernel = [reference_kernel()]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            package, cases = setup(workload, args.seed, pool, workdir)
            took = time.perf_counter() - t0
            kernel.append(reference_kernel())
            setups.append(took * REFERENCE_S / statistics.fmean(kernel[-2:]))
        rng = random.Random(args.seed)
        if args.trace:
            samples, metrics = traced(workload, package, cases, rng, args.seconds)
        else:
            samples = [measure(workload, package, cases, rng, args.seconds)]
            metrics = end_to_end(samples[0], statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(s.failed for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(s.latencies) for s in samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
