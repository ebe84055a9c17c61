"""Run the benchmark on several workloads and seeds, one run at a time.

    python3 perfbench/sweep.py --out results.jsonl [--seeds 1-10] [--trace 0|1]

Each run is ``run.py`` in its own process; its result line is appended to
``--out`` together with its workload, seed and trace setting, and the file
is summarised by ``diff.py`` at the end.  The workloads and the run length
are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import diff

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.out, "a") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in args.seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=180)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
                result = json.loads(proc.stdout.splitlines()[-1])
                row = {"workload": workload, "seed": seed, "trace": args.trace, **result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
    diff.summary(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
