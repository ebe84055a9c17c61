"""The benchmark's own tests: tracer hygiene, expected values, output contract.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import make_expected  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

POOL = json.loads((HERE / "expected.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def package():
    package = importlib.import_module("roundideal")
    importlib.import_module("roundideal.cli")
    return package


def members(frame):
    return [sorted(ideal.members) for ideal in frame.ideals]


def digest(name, out):
    """Everything a workload's operation produced, as plain comparable values."""
    if name == "compactify-maps":
        comp, extensions, rec, result = out
        return (members(comp.frame), [sorted(g.assignment.items()) for g in extensions],
                members(rec.frame), str(result.verdict))
    if name == "inclusions":
        n, report, wi, core, si, checked, subs = out
        return (n, report, sorted(wi.pairs), sorted(core.pairs), sorted(si.pairs), checked.ok,
                [(sorted(p.elements), sorted(c.pairs), sorted(s.pairs), sorted(x.pairs),
                  members(fr), cr.ok) for p, c, s, x, fr, cr in subs])
    return out


def sample_cases(name, tmp_path, count=6):
    cases = workloads.WORKLOADS[name].cases(POOL, random.Random(3), tmp_path)
    return random.Random(4).sample(cases, min(count, len(cases)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_identical_results_and_restores_bindings(name, package, tmp_path):
    workload = workloads.WORKLOADS[name]
    cases = sample_cases(name, tmp_path)
    before = tracer.bindings(package)
    plain = [digest(name, workload.run(package, c)) for c in cases]
    trace = tracer.Tracer(package)
    with trace.installed():
        assert tracer.bindings(package) != before
        traced = []
        for c in cases:
            out = workload.run(package, c)
            assert workload.check(c, out)
            traced.append(digest(name, out))
            trace.end_operation()
    assert tracer.bindings(package) == before
    assert traced == plain
    assert [digest(name, workload.run(package, c)) for c in cases] == plain


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_time_never_exceeds_wall_time(name, package, tmp_path):
    workload = workloads.WORKLOADS[name]
    trace = tracer.Tracer(package)
    wall = 0.0
    with trace.installed():
        for c in sample_cases(name, tmp_path):
            start = time.perf_counter()
            workload.run(package, c)
            wall += time.perf_counter() - start
            trace.end_operation()
    assert any(calls for calls, _, _ in trace.stats.values())
    for _, total, self_time in trace.stats.values():
        assert -1e-9 <= self_time <= total + 1e-9
    assert sum(self_time for _, _, self_time in trace.stats.values()) <= wall


def test_per_layer_metrics_match_the_spec(package, tmp_path):
    trace = tracer.Tracer(package)
    with trace.installed():
        for c in sample_cases("documents-cli", tmp_path, count=3):
            workloads.documents_run(package, c)
            trace.end_operation()
    names = set(trace.layer_metrics(3, 1.0))
    names |= {"trace.untraced_instances_per_s", "trace.traced_instances_per_s",
              "trace.overhead_ratio"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_layer_errors_count_exceptions_leaving_the_layer(package):
    trace = tracer.Tracer(package)
    with trace.installed():
        with pytest.raises(package.MalformedInput):
            package.boolean(9)
    assert trace.errors == {"lattice": 1}


def test_expected_values_are_reproduced_by_the_oracle():
    assert json.loads(json.dumps(make_expected.build(), sort_keys=True)) == POOL


def test_every_pool_case_passes_its_check(package, tmp_path):
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for case in workload.cases(POOL, random.Random(5), tmp_path):
            assert workload.check(case, workload.run(package, case)), name


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0, 10)
    assert run.tail([float(i) for i in range(57)]) == (82, 46.0, 10)
    assert run.tail([1.0, 2.0]) == (100, 2.0, 0)


def test_latency_is_scaled_by_the_kernel_times_around_it():
    sample = run.Sample()
    sample.latencies = [0.1, 0.2]
    sample.kernel = [0.01, 0.03, 0.01]
    sample.rounds = [(0, 2)]
    assert sample.scaled() == pytest.approx([0.05, 0.1])
    assert sample.verified_per_s == pytest.approx(2 / 0.15)
    assert sample.p50() == pytest.approx(0.075)


def _fails(*_):
    raise ValueError("no output")


@pytest.mark.parametrize("run_op, check", [
    (_fails, lambda case, out: True),
    (lambda package, case: "", _fails),
    (lambda package, case: "", lambda case, out: False),
])
def test_a_failed_operation_is_one_attempt_and_one_failure(run_op, check):
    workload = workloads.Workload(cases=None, run=run_op, check=check)
    sample = run.measure(workload, None, ["case"], random.Random(1), 0.0)
    assert (len(sample.latencies), sample.failed, len(sample.rounds)) == (1, 1, 1)
    assert sample.verified_per_s == 0


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(trace):
    proc = _run(ROOT, "--workload", "inclusions", "--seed", "7", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "inclusions", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
