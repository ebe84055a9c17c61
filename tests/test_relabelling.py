"""Results do not depend on how a lattice's elements are numbered.

Each test permutes the element indices of a lattice and requires the
relation kernels to commute with the permutation: well-inside, the
interpolative core, pcd-closures, least strong inclusions and the verdicts
of the seven strong-inclusion conditions map through it, and the number of
round ideals stays the same.  Maps out of the lattice are carried along:
compactifying over them, reconstructing and comparing give the same sizes
and verdicts, and the same strong inclusion up to the permutation.
Witnesses may differ, since they are the first counterexample in index
order.
"""

import random

from hypothesis import given, settings, strategies as st

import util
from roundideal.compactify import (
    compactify_extending,
    compare,
    enumerate_round_ideals,
    from_compactification,
)
from roundideal.errors import RoundIdealError
from roundideal.framemap import ContinuousMap
from roundideal.lattice import PcdLattice, boolean, full_basis, pcd_closure, well_inside
from roundideal.relation import (
    Relation,
    check_strong_inclusion,
    interpolative_core_on_basis,
    least_strong_inclusion,
)


def permuted(lat, perm):
    """The same lattice with element i renumbered perm[i]."""
    n = lat.n
    names = [None] * n
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        names[perm[i]] = lat.names[i]
        for j in range(n):
            leq[perm[i]][perm[j]] = lat.leq(i, j)
    return PcdLattice(names, leq, name=lat.name)


def moved(perm, pairs):
    return {(perm[a], perm[b]) for a, b in pairs}


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_kernels_commute_with_relabelling(seed):
    rng = random.Random(seed)
    lat = util.downset_instance(seed, rng.randint(0, 4))
    perm = list(range(lat.n))
    rng.shuffle(perm)
    twin = permuted(lat, perm)
    assert well_inside(twin).pairs == moved(perm, well_inside(lat))

    closure_seed = rng.sample(range(lat.n), rng.randint(0, min(3, lat.n)))
    for p in (full_basis(lat), pcd_closure(lat, closure_seed)):
        q = pcd_closure(twin, [perm[x] for x in p.elements])
        assert q.elements == {perm[x] for x in p.elements}

        core = interpolative_core_on_basis(lat, p)
        assert interpolative_core_on_basis(twin, q).pairs == moved(perm, core)

        start = util.random_interpolative_seed(lat, p, rng)
        si = least_strong_inclusion(p, start)
        twin_si = least_strong_inclusion(q, Relation(twin, moved(perm, start), q.elements))
        assert twin_si.pairs == moved(perm, si)

        members = sorted(p.elements)
        for rel in (si, core, Relation(lat, [
            (rng.choice(members), rng.choice(members)) for _ in range(rng.randint(0, 12))
        ], p.elements)):
            verdicts = [c.holds for c in check_strong_inclusion(rel, p).conditions]
            twin_rel = Relation(twin, moved(perm, rel), q.elements)
            assert [c.holds for c in check_strong_inclusion(twin_rel, q).conditions] == verdicts

        if len(members) <= 24:
            count = enumerate_round_ideals(p, si).lattice.n
            assert enumerate_round_ideals(q, twin_si).lattice.n == count


def complement_maps(lat, rng):
    """Maps into boolean(2) sending its atoms to complemented pairs (c, c*)."""
    tgt = boolean(2)
    a, b = util.atoms(tgt)
    out = []
    for c in rng.sample(range(lat.n), min(3, lat.n)):
        s = lat.pstar[c]
        if lat.join[c][s] == lat.top:
            images = {tgt.bottom: lat.bottom, a: c, b: s, tgt.top: lat.top}
            out.append(ContinuousMap(lat, tgt, full_basis(tgt), images))
    return out


def compactified(lat, maps):
    """Ideal count, strong inclusion, reconstruction size and verdict of ``maps``."""
    k, _ = compactify_extending(lat, full_basis(lat), maps)
    canonical, _ = compactify_extending(lat, full_basis(lat), [])
    rec = from_compactification(k)
    verdict = compare(canonical, k).verdict
    return k.frame.lattice.n, k.frame.si.pairs, rec.frame.lattice.n, verdict


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_compactification_commutes_with_relabelling(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        lat = boolean(rng.randint(1, 3))
        k = len(util.atoms(lat))
        maps = []
        for _ in range(rng.randint(0, 2)):
            j = rng.randint(1, 2)
            maps.append(util.atom_map(lat, boolean(j), util.random_phi(rng, k, j)))
    else:
        lat = util.downset_instance(seed, rng.randint(0, 4))
        maps = complement_maps(lat, rng)
    perm = list(range(lat.n))
    rng.shuffle(perm)
    twin = permuted(lat, perm)
    twin_maps = [
        ContinuousMap(twin, f.target, f.basis, {b: perm[x] for b, x in f.assignment.items()})
        for f in maps
    ]
    try:
        ideals, si, rebuilt, verdict = compactified(lat, maps)
    except RoundIdealError as exc:
        try:
            compactified(twin, twin_maps)
        except RoundIdealError as twin_exc:
            assert type(twin_exc) is type(exc)
        else:
            raise AssertionError(f"only the original raised {exc!r}")
        return
    twin_ideals, twin_si, twin_rebuilt, twin_verdict = compactified(twin, twin_maps)
    assert (twin_ideals, twin_rebuilt, twin_verdict) == (ideals, rebuilt, verdict)
    assert len(twin_si) == len(si) and twin_si == moved(perm, si)
