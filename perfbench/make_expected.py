"""Write ``expected.json``: the benchmark's instance pool and expected results.

Run offline, from the repository root::

    python3 perfbench/make_expected.py

The pool is drawn once from ``POOL_SEED``; a workload seed later only
relabels and reorders pool instances, which leaves every expected count and
verdict unchanged.  Expected values come from ``oracle.py`` (naive, set-based
code that never imports ``roundideal``) or from theory: a finite Boolean
algebra is its own compactification, so it has one round ideal per element
and any two of its compactifications compare as ``iso``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

POOL_SEED = 7457
# Every input stays within the library's caps: lattices of at most 64
# elements (the band limits below), posets of at most 8 points, and round-ideal
# enumeration over carriers of at most 24 elements.
CARRIER_CAP = 24

# compactify-maps: Boolean sources with 0-2 atom-maps onto boolean(1..3).
MAP_SHAPES = [
    {"atoms": 3, "targets": []},
    {"atoms": 3, "targets": [2]},
    {"atoms": 3, "targets": [1, 3]},
    {"atoms": 4, "targets": []},
    {"atoms": 4, "targets": [2]},
    {"atoms": 4, "targets": [3]},
    {"atoms": 4, "targets": [1, 2]},
    {"atoms": 4, "targets": [2, 3]},
    {"atoms": 4, "targets": [3, 3]},
]
# inclusions: random posets per lattice-size band, on top of boolean(5..6).
INCLUSION_BANDS = [(12, 20, 3), (21, 40, 4), (41, 64, 3)]
# documents-cli
CHAINS = [32, 40, 48, 56, 64]
DOCUMENT_BANDS = [(20, 32, 2), (33, 64, 2)]
DOCUMENT_MAP_SHAPES = [{"atoms": 3, "targets": [2]}, {"atoms": 4, "targets": [1, 3]}]


def random_poset(rng):
    points = rng.choice([6, 7, 8])
    p = rng.uniform(0.15, 0.5)
    le = [[i, j] for i in range(points) for j in range(i + 1, points) if rng.random() < p]
    return {"points": points, "le": le}


def tables_of(lattice):
    return oracle.Tables(oracle.lattice_order(lattice))


def banded_posets(rng, bands, accept):
    """Random posets whose downset lattices fill each (low, high, count) band."""
    out = []
    for low, high, count in bands:
        while count:
            lattice = random_poset(rng)
            if not lattice["le"]:
                continue  # an antichain gives a Boolean lattice; those are listed apart
            t = tables_of(lattice)
            if low <= t.n <= high and accept(t):
                out.append((lattice, t))
                count -= 1
    return out


def lattice_summary(t):
    full = set(range(t.n))
    core = oracle.core(t, full)
    return {
        "n": t.n,
        "wi": len(oracle.well_inside(t)),
        "core": len(core),
        "si": len(oracle.least_strong_inclusion(t, full, core)),
    }


def subcarriers(rng, t, count):
    out = []
    while len(out) < count:
        seed = sorted(rng.sample(range(t.n), rng.choice([2, 3])))
        carrier = oracle.pcd_closure(t, seed)
        if len(carrier) > CARRIER_CAP:
            continue
        keep = sorted(rng.sample(range(t.n), t.n // 2))
        rel = oracle.core(t, carrier)
        seed_pairs = {(x, x) for x in keep if (x, x) in rel}
        si = oracle.least_strong_inclusion(t, carrier, seed_pairs)
        out.append(
            {
                "seed": seed,
                "keep": keep,
                "expected": {
                    "carrier": len(carrier),
                    "core": len(rel),
                    "seed": len(seed_pairs),
                    "si": len(si),
                    "ideals": len(oracle.round_ideals(t, carrier, si)),
                },
            }
        )
    return out


def boolean_expected(atoms):
    t = tables_of({"points": atoms, "le": []})
    full = set(range(t.n))
    ideals = len(oracle.round_ideals(t, full, oracle.core(t, full)))
    if ideals != 2**atoms:
        raise SystemExit("a finite Boolean algebra has one round ideal per element")
    return {"ideals": ideals, "reconstructed": ideals, "verdict": "iso"}


def document_expected(t, name):
    full = set(range(t.n))
    return {
        "name": name,
        "n": t.n,
        "wi": len(oracle.well_inside(t)),
        "core": len(oracle.core(t, full)),
        "si": len(oracle.least_strong_inclusion(t, full, ())),
        "covers": len(oracle.covers(t.leq)),
        "stars": t.pstar,
        "strongly_regular": oracle.strongly_regular(t),
    }


def build():
    rng = random.Random(POOL_SEED)
    maps = [dict(shape, expected=boolean_expected(shape["atoms"])) for shape in MAP_SHAPES]

    inclusions = []
    booleans = [({"points": k, "le": []}, None) for k in (5, 6)]
    for lattice, t in booleans + banded_posets(rng, INCLUSION_BANDS, lambda t: True):
        t = t or tables_of(lattice)
        inclusions.append(
            {
                "lattice": lattice,
                "expected": lattice_summary(t),
                "subcarriers": subcarriers(rng, t, 3 if t.n >= 32 else rng.randint(1, 3)),
            }
        )

    documents = []
    for k in CHAINS:
        lattice = {"chain": k}
        expected = document_expected(tables_of(lattice), f"chain{k}")
        documents.append({"lattice": lattice, "expected": expected})
    # a strongly regular lattice is compactified by 'validate --check-all',
    # which the enumeration cap refuses above 24 elements
    picked = banded_posets(rng, DOCUMENT_BANDS, lambda t: not oracle.strongly_regular(t))
    for i, (lattice, t) in enumerate(picked):
        documents.append({"lattice": lattice, "expected": document_expected(t, f"poset{i}")})
    boolean_docs = []
    for shape in DOCUMENT_MAP_SHAPES:
        t = tables_of({"points": shape["atoms"], "le": []})
        expected = document_expected(t, f"bool{shape['atoms']}")
        expected.update(boolean_expected(shape["atoms"]))
        boolean_docs.append(dict(shape, expected=expected))

    return {
        "pool_seed": POOL_SEED,
        "compactify-maps": maps,
        "inclusions": inclusions,
        "documents-cli": {"lattices": documents, "booleans": boolean_docs},
    }


def main():
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
