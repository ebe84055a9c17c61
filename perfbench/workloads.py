"""The benchmark's workloads: inputs from a seed, one operation, its check.

Each workload turns the instance pool in ``expected.json`` into a list of
cases for one run.  The workload seed relabels every instance (a random
permutation of its element indices, or of the declaration order in a
document) and draws the atom-maps; neither changes an expected count or
verdict.  ``run`` carries one case through the library's public API and
``check`` compares the outcome with values that never came from the library.
"""

from __future__ import annotations

import contextlib
import io
from collections import namedtuple

import oracle


Case = namedtuple("Case", "inputs expected")


def boolean_order(atoms):
    return oracle.lattice_order({"points": atoms, "le": []})


def permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(leq, perm):
    """Order matrix with element i moved to position perm[i]."""
    n = len(leq)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        row = out[perm[i]]
        for j in range(n):
            row[perm[j]] = leq[i][j]
    return out


def onto(rng, k, j):
    """A random function from k atoms onto j atoms."""
    phi = list(range(j)) + [rng.randrange(j) for _ in range(k - j)]
    rng.shuffle(phi)
    return phi


# -- compactify-maps ---------------------------------------------------------


def atom_map(rng, k, j, perm):
    """Assignment of a random map boolean(k) -> boolean(j), and its extension.

    The map is the inverse image of an onto function on atoms.  Through the
    compactification of a finite Boolean algebra, the extension sends a
    target element to the principal ideal below its preimage.
    """
    downs = oracle.downset_order(k, [])[0]
    position = {mask: i for i, mask in enumerate(downs)}
    phi = onto(rng, k, j)
    assignment, ideals = {}, {}
    for s, smask in enumerate(oracle.downset_order(j, [])[0]):
        pre = sum(1 << i for i in range(k) if (smask >> phi[i]) & 1)
        assignment[s] = perm[position[pre]]
        ideals[s] = frozenset(perm[c] for c, mask in enumerate(downs) if mask & ~pre == 0)
    return assignment, ideals


def compactify_maps_cases(pool, rng, workdir):
    cases = []
    for shape in pool["compactify-maps"]:
        k = shape["atoms"]
        leq = boolean_order(k)
        for relabelled in (False, True):
            perm = permutation(rng, len(leq)) if relabelled else list(range(len(leq)))
            targets, extensions = [], []
            for j in shape["targets"]:
                assignment, ideals = atom_map(rng, k, j, perm)
                targets.append((f"bool{j}", boolean_order(j), assignment))
                extensions.append(ideals)
            names = [f"d{perm.index(i)}" for i in range(len(leq))]
            cases.append(
                Case(
                    (f"bool{k}", names, relabel(leq, perm), targets),
                    dict(shape["expected"], extensions=extensions),
                )
            )
    return cases


def compactify_maps_run(ri, case):
    name, names, leq, targets = case.inputs
    lat = ri.PcdLattice(names, leq, name=name)
    maps = []
    for tname, tleq, assignment in targets:
        target = ri.PcdLattice([f"t{i}" for i in range(len(tleq))], tleq, name=tname)
        maps.append(ri.ContinuousMap(lat, target, ri.full_basis(target), assignment))
    basis = ri.full_basis(lat)
    comp, extensions = ri.compactify_extending(lat, basis, maps)
    rec = ri.from_compactification(comp)
    canonical, _ = ri.compactify_extending(lat, basis, [])
    return comp, extensions, rec, ri.compare(canonical, comp)


def compactify_maps_check(case, out):
    comp, extensions, rec, result = out
    ideals = comp.frame.ideals
    return case.expected == {
        "ideals": comp.frame.lattice.n,
        "reconstructed": rec.frame.lattice.n,
        "verdict": str(result.verdict),
        "extensions": [
            {a: ideals[i].members for a, i in g.assignment.items()} for g in extensions
        ],
    }


# -- inclusions --------------------------------------------------------------

INCLUSION_VARIANTS = 2


def inclusions_cases(pool, rng, workdir):
    cases = []
    for inst in pool["inclusions"]:
        leq = oracle.lattice_order(inst["lattice"])
        expected = dict(
            inst["expected"], subcarriers=[s["expected"] for s in inst["subcarriers"]]
        )
        for _ in range(INCLUSION_VARIANTS):
            perm = permutation(rng, len(leq))
            subs = [
                ([perm[x] for x in s["seed"]], sorted(perm[x] for x in s["keep"]))
                for s in inst["subcarriers"]
            ]
            names = [f"x{perm.index(i)}" for i in range(len(leq))]
            cases.append(Case((names, relabel(leq, perm), subs), expected))
    return cases


def inclusions_run(ri, case):
    names, leq, subcarriers = case.inputs
    lat = ri.PcdLattice(names, leq, name="inclusions")
    report = lat.validate()
    wi = ri.well_inside(lat)
    basis = ri.full_basis(lat)
    core = ri.interpolative_core_on_basis(lat, basis)
    si = ri.least_strong_inclusion(basis, core)
    checked = ri.check_strong_inclusion(si, basis)
    subs = []
    for seed, keep in subcarriers:
        p = ri.pcd_closure(lat, seed)
        sub_core = ri.interpolative_core_on_basis(lat, p)
        seed_rel = ri.Relation(
            lat, {(x, x) for x in keep if (x, x) in sub_core.pairs}, p.elements
        )
        sub_si = ri.least_strong_inclusion(p, seed_rel)
        frame = ri.enumerate_round_ideals(p, sub_si)
        ri.join_map(lat, frame)
        report_cr = ri.check_compact_regular(frame)
        subs.append((p, sub_core, seed_rel, sub_si, frame, report_cr))
    return lat.n, report, wi, core, si, checked, subs


def inclusions_check(case, out):
    n, report, wi, core, si, checked, subs = out
    got = {
        "n": n,
        "wi": len(wi),
        "core": len(core),
        "si": len(si),
        "subcarriers": [
            {
                "carrier": len(p.elements),
                "core": len(sub_core),
                "seed": len(seed_rel),
                "si": len(sub_si),
                "ideals": frame.lattice.n,
            }
            for p, sub_core, seed_rel, sub_si, frame, _ in subs
        ],
    }
    # a frame of round ideals is compact regular by the representation theorem
    return (
        not report
        and checked.ok
        and all(cr.ok for *_, cr in subs)
        and got == case.expected
    )


# -- documents-cli -----------------------------------------------------------

COMMANDS = {
    "validate": ["validate", "{doc}", "--check-all"],
    "core": ["derive", "{doc}", "core"],
    "wellinside": ["derive", "{doc}", "wellinside"],
    "pseudo": ["derive", "{doc}", "pseudo"],
    "si": ["si", "{doc}"],
    "dot": ["dot", "{doc}"],
}


def lattice_document(name, labels, leq, hasse, rng):
    """A ``lattice``-mode document with shuffled elements and Hasse pairs."""
    les = [f"le {labels[i]} {labels[j]}" for i, j in hasse]
    rng.shuffle(les)
    order = permutation(rng, len(labels))
    head = [f"lattice {name} lattice", "elements " + " ".join(labels[i] for i in order)]
    return "\n".join(head + les) + "\n"


def map_document(name, source, target, assignment):
    lines = [f"map {name}", f"source {source}", f"target {target}"]
    lines += [f"to t{b} d{x}" for b, x in sorted(assignment.items())]
    return "\n".join(lines) + "\n"


def documents_cases(pool, rng, workdir):
    cases = []
    for doc in pool["documents-cli"]["lattices"]:
        exp = doc["expected"]
        leq = oracle.lattice_order(doc["lattice"])
        prefix = "c" if "chain" in doc["lattice"] else "d"
        labels = [f"{prefix}{i}" for i in range(len(leq))]
        hasse = oracle.covers(leq)
        for kind, argv in COMMANDS.items():
            path = workdir / f"{exp['name']}-{kind}.lat"
            path.write_text(lattice_document(exp["name"], labels, leq, hasse, rng))
            argv = [a.format(doc=path) for a in argv]
            cases.append(Case(argv, (kind, exp, labels, None)))
    for shape in pool["documents-cli"]["booleans"]:
        exp = dict(shape["expected"], maps=len(shape["targets"]))
        k = shape["atoms"]
        leq = boolean_order(k)
        labels = [f"d{i}" for i in range(len(leq))]
        hasse = oracle.covers(leq)
        for j in set(shape["targets"]):
            tleq = boolean_order(j)
            tlabels = [f"t{i}" for i in range(len(tleq))]
            (workdir / f"bool{j}.lat").write_text(
                lattice_document(f"bool{j}", tlabels, tleq, oracle.covers(tleq), rng)
            )
        for kind in ("validate", "compactify", "compare"):
            stem = f"{exp['name']}-{kind}"
            path = workdir / f"{stem}.lat"
            path.write_text(lattice_document(exp["name"], labels, leq, hasse, rng))
            maps = []
            for i, j in enumerate(shape["targets"]):
                assignment, _ = atom_map(rng, k, j, list(range(len(leq))))
                maps.append(f"{stem}-m{i}.map")
                (workdir / maps[-1]).write_text(
                    map_document(f"m{i}", path.name, f"bool{j}.lat", assignment)
                )
            dot = None
            if kind == "validate":
                argv = ["validate", str(path), "--check-all"]
            elif kind == "compactify":
                dot = workdir / f"{stem}.dot"
                argv = ["compactify", str(path), "--maps"]
                argv += [str(workdir / m) for m in maps] + ["--dot", str(dot)]
            else:
                argv = ["compare", str(path), f"{path}:{','.join(maps)}"]
            cases.append(Case(argv, (kind, exp, labels, dot)))
    return cases


def documents_run(ri, case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ri.cli.main(case.inputs)
    return code, out.getvalue(), err.getvalue()


def _pairs(lines):
    return sum(line.startswith("pair ") for line in lines)


def documents_check(case, out):
    code, stdout, stderr = out
    kind, exp, labels, dot = case.expected
    if code != 0 or stderr:
        return False
    lines = stdout.splitlines()
    if kind == "validate":
        invariants = 8 if exp["strongly_regular"] else 6
        return (
            lines[0] == f"valid pcd-lattice '{exp['name']}' with {exp['n']} elements"
            and len(lines) == 1 + invariants
            and all(line.startswith("ok ") for line in lines[1:])
        )
    if kind in ("core", "wellinside"):
        key = "wi" if kind == "wellinside" else kind
        return lines[0] == f"relation {kind}" and _pairs(lines) == exp[key]
    if kind == "pseudo":
        stars = {(labels[i], labels[s]) for i, s in enumerate(exp["stars"])}
        return len(lines) == exp["n"] and {tuple(x.split()[1:]) for x in lines} == stars
    if kind == "si":
        return _pairs(lines) == exp["si"] and lines[-1] == "# conditions passing: 7/7"
    if kind == "dot":
        edges = sum("->" in line for line in lines)
        nodes = sum(line.startswith('  "') and "->" not in line for line in lines)
        return edges == exp["covers"] and nodes == exp["n"]
    if kind == "compactify":
        frame = dot.read_text().splitlines()
        nodes = sum(line.startswith('  "') and "->" not in line for line in frame)
        return (
            f"round ideals: {exp['ideals']}" in lines
            and "compact regular: yes" in lines
            and sum(line.startswith("extension ") for line in lines) == exp["maps"]
            and nodes == exp["ideals"]
        )
    return lines == [f"verdict: {exp['verdict']}"]


Workload = namedtuple("Workload", "cases run check")

WORKLOADS = {
    "compactify-maps": Workload(
        compactify_maps_cases, compactify_maps_run, compactify_maps_check
    ),
    "inclusions": Workload(inclusions_cases, inclusions_run, inclusions_check),
    "documents-cli": Workload(documents_cases, documents_run, documents_check),
}
