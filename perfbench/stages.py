"""Per-stage timings on boolean(3) and boolean(4), for comparison with ROADMAP.md.

    python3 perfbench/stages.py

Prints a markdown table with the median wall time, over REPEATS runs, of
each stage: build, validate, interpolative core, compactify
(``compactify_extending`` without maps), reconstruct
(``from_compactification``) and ``compare(k, k)``.
boolean(5) and boolean(6) are left out: their compactification needs more
than the 24 carrier elements that round-ideal enumeration accepts.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import roundideal as ri  # noqa: E402
from oracle import lattice_order  # noqa: E402

STAGES = ("build", "validate", "core", "compactify", "reconstruct", "compare")
REPEATS = 15


def stage_times(atoms):
    leq = lattice_order({"points": atoms, "le": []})
    names = [f"d{i}" for i in range(len(leq))]
    times = {}

    def timed(stage, func, *args):
        start = time.perf_counter()
        out = func(*args)
        times[stage] = time.perf_counter() - start
        return out

    lat = timed("build", ri.PcdLattice, names, leq)
    timed("validate", lat.validate)
    basis = ri.full_basis(lat)
    timed("core", ri.interpolative_core_on_basis, lat, basis)
    comp, _ = timed("compactify", ri.compactify_extending, lat, basis, [])
    timed("reconstruct", ri.from_compactification, comp)
    timed("compare", ri.compare, comp, comp)
    return times


def main():
    print("| instance | n | " + " | ".join(STAGES) + " |")
    print("| --- | --- |" + " --- |" * len(STAGES))
    for atoms in (3, 4):
        runs = [stage_times(atoms) for _ in range(REPEATS)]
        cells = [f"{statistics.median(r[s] for r in runs) * 1e3:.2f} ms" for s in STAGES]
        print(f"| boolean({atoms}) | {2 ** atoms} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
