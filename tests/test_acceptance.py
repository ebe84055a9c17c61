"""Acceptance criteria, one test per criterion.

Every criterion is checked exactly (no tolerances: all values are discrete)
against an independent oracle or a perturbation probe, within its stated
time budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
line per criterion.
"""

import random
import time
from contextlib import contextmanager

import oracles
import util
from roundideal.compactify import (
    Ordering,
    check_compact_regular,
    compare,
    enumerate_round_ideals,
    explicit_strong_inclusion,
    extension_map,
    from_compactification,
    compactify_extending,
    is_compatible,
    interpolated_subcover,
    join_map,
)
from roundideal.fixpoint import InductiveDefinition, Universe, gfp, lfp
from roundideal.framemap import (
    ContinuousMap,
    compose,
    extend,
    is_dense,
    is_embedding,
    maps_equal,
    validate_map,
)
from roundideal.lattice import boolean, full_basis, pcd_closure, well_inside
from roundideal.relation import (
    Relation,
    check_strong_inclusion,
    largest_interpolative,
    least_strong_inclusion,
)


@contextmanager
def criterion(number, name, budget):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number:02d} ({name}): {status} in {elapsed:.2f}s "
              f"[budget {budget}s]")
        if not failed:
            assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def random_defn(rng):
    n = rng.randint(1, 12)
    items = [f"t{i}" for i in range(n)]
    steps = []
    for _ in range(rng.randint(0, 2 * n)):
        concl = rng.choice(items)
        premises = [t for t in items if rng.random() < 0.2]
        steps.append((concl, premises))
    return InductiveDefinition(Universe(items), steps)


def test_criterion_01_fixpoint_oracle_equivalence():
    with criterion(1, "fixpoint oracle equivalence", 10):
        rng = random.Random(101)
        for _ in range(200):
            defn = random_defn(rng)
            assert lfp(defn) == oracles.brute_lfp(defn)
            assert gfp(defn) == oracles.brute_gfp(defn)


def test_criterion_02_largest_interpolative_subrelation():
    with criterion(2, "largest interpolative subrelation", 30):
        rng = random.Random(202)
        for _ in range(200):
            lat = util.downset_instance(rng.randrange(10_000), rng.randint(1, 4))
            count = min(rng.randint(0, 12), lat.n * lat.n)
            pairs = set()
            while len(pairs) < count:
                pairs.add((rng.randrange(lat.n), rng.randrange(lat.n)))
            rel = Relation(lat, pairs)
            assert largest_interpolative(rel).pairs == (
                oracles.brute_largest_interpolative(pairs)
            )


def test_criterion_03_strong_inclusion_generation():
    with criterion(3, "strong inclusion generation", 60):
        rng = random.Random(303)
        checked_minimal = 0
        for _ in range(100):
            lat = util.downset_instance(rng.randrange(10_000), rng.randint(0, 6))
            p = full_basis(lat)
            seed = util.random_interpolative_seed(lat, p, rng)
            got = least_strong_inclusion(p, seed)
            assert seed.pairs <= got.pairs
            assert check_strong_inclusion(got, p).ok
            if lat.n <= 6:
                naive = oracles.naive_closure_conditions_1_to_5(
                    lat, range(lat.n), seed.pairs
                )
                assert got.pairs == naive
                # least: contained in sampled closed supersets of the seed
                for _ in range(3):
                    extra = {
                        (rng.randrange(lat.n), rng.randrange(lat.n))
                        for _ in range(rng.randint(0, 3))
                    }
                    superset = oracles.naive_closure_conditions_1_to_5(
                        lat, range(lat.n), set(seed.pairs) | extra
                    )
                    assert got.pairs <= superset
                checked_minimal += 1
        assert checked_minimal >= 20


def _strong_inclusion_instances(rng, count, max_poset, carrier_cap=None):
    made = 0
    while made < count:
        lat = util.downset_instance(rng.randrange(100_000), rng.randint(0, max_poset))
        p = util.random_carrier(lat, rng)
        if carrier_cap is not None and len(p.elements) > carrier_cap:
            continue
        si = util.random_strong_inclusion(lat, p, rng)
        yield lat, p, si
        made += 1


def test_criterion_04_representation():
    with criterion(4, "round-ideal frames compact regular", 60):
        rng = random.Random(404)
        for lat, p, si in _strong_inclusion_instances(rng, 100, 4):
            fr = enumerate_round_ideals(p, si)  # validates the frame axioms
            report = check_compact_regular(fr)
            assert report.ok, report.problems
            assert fr.lattice.join_all(report.subcover) == fr.lattice.top


def test_criterion_05_boolean_fixed_point():
    with criterion(5, "Boolean algebras are fixed points", 5):
        for k in range(5):
            lat = boolean(k)
            p = full_basis(lat)
            wi = Relation(lat, well_inside(lat).pairs)
            assert check_strong_inclusion(wi, p).ok
            fr = enumerate_round_ideals(p, wi)
            j = join_map(lat, fr)
            # the join map sends each basic ideal to the join of its members
            for idx in sorted(fr.ideal_basis.elements):
                assert j.assignment[idx] == lat.join_all(fr.ideals[idx].members)
            images = [extend(j, m) for m in range(fr.lattice.n)]
            assert sorted(images) == list(range(lat.n))
            for m1 in range(fr.lattice.n):
                for m2 in range(fr.lattice.n):
                    assert fr.lattice.leq(m1, m2) == lat.leq(images[m1], images[m2])


def test_criterion_06_factorization_and_uniqueness():
    with criterion(6, "extension factorization with uniqueness probe", 60):
        rng = random.Random(606)
        for _ in range(50):
            k = rng.randint(1, 3)
            lat = boolean(k)
            p = full_basis(lat)
            si = least_strong_inclusion(p, Relation(lat, well_inside(lat).pairs))
            assert is_compatible(lat, p, si)
            fr = enumerate_round_ideals(p, si)
            m = join_map(lat, fr)
            kt = rng.randint(1, k + 1)
            tgt = boolean(kt)
            f = util.atom_map(lat, tgt, util.random_phi(rng, k, kt))
            g = extension_map(fr, f)
            assert maps_equal(compose(g, m), f)
            # perturbing any single assignment breaks continuity or factoring
            a = rng.choice(sorted(g.basis.elements))
            other = rng.choice(
                [i for i in range(fr.lattice.n) if i != g.assignment[a]]
            )
            perturbed = dict(g.assignment)
            perturbed[a] = other
            alt = ContinuousMap(fr.lattice, tgt, g.basis, perturbed)
            assert validate_map(alt) or not maps_equal(compose(alt, m), f)


def _compactification_instances(rng, count):
    for _ in range(count):
        k = rng.randint(0, 3)
        lat = boolean(k)
        n_maps = rng.randint(0, 2)
        maps = []
        for _ in range(n_maps):
            kt = rng.randint(1, 3)
            maps.append(
                util.atom_map(lat, boolean(kt), util.random_phi(rng, k, kt))
            )
        yield lat, maps


def test_criterion_07_reconstruction():
    with criterion(7, "reconstruction of compactifications", 60):
        rng = random.Random(707)
        for lat, maps in _compactification_instances(rng, 12):
            comp, _ = compactify_extending(lat, full_basis(lat), maps)
            rec = from_compactification(comp)
            klat = comp.codomain
            images = [extend(rec.iso, m) for m in range(klat.n)]
            assert len(set(images)) == klat.n
            assert set(images) == set(range(rec.frame.lattice.n))
            for m1 in range(klat.n):
                for m2 in range(klat.n):
                    assert klat.leq(m1, m2) == rec.frame.lattice.leq(
                        images[m1], images[m2]
                    )


def test_criterion_08_explicit_characterization():
    with criterion(8, "sandwich description of generated inclusions", 30):
        rng = random.Random(808)
        for i in range(50):
            k = rng.randint(0, 3)
            lat = boolean(k)
            if i % 2 == 0:
                tgt = util.relabelled_boolean(k, rng)
                phi = util.random_phi(rng, k, max(k, 1), injective=True) if k else []
                f = util.atom_map(lat, tgt, phi)
            else:
                comp, _ = compactify_extending(lat, full_basis(lat), [])
                f = comp.map
            assert is_dense(f) and is_embedding(f)
            p = pcd_closure(lat, {extend(f, b) for b in range(f.target.n)})
            rel = explicit_strong_inclusion(p, f)
            wi = well_inside(f.target).pairs
            seed = Relation(
                lat,
                {(extend(f, b), extend(f, a)) for b, a in wi},
                carrier=p.elements,
            )
            assert rel == least_strong_inclusion(p, seed)


def test_criterion_09_ordering_coherence():
    with criterion(9, "ordering of nested compactifications", 60):
        rng = random.Random(909)
        for _ in range(10):
            k = rng.randint(1, 3)
            lat = boolean(k)
            family2 = []
            for _ in range(rng.randint(1, 2)):
                kt = rng.randint(1, 3)
                family2.append(
                    util.atom_map(lat, boolean(kt), util.random_phi(rng, k, kt))
                )
            family1 = family2[: rng.randint(0, len(family2))]
            k1, _ = compactify_extending(lat, full_basis(lat), family1)
            k2, _ = compactify_extending(lat, full_basis(lat), family2)
            result = compare(k1, k2)
            assert result.verdict in (Ordering.LE, Ordering.ISO)
            h = result.le_witness
            assert h is not None
            assert maps_equal(compose(h, k2.map), k1.map)


def test_criterion_10_principal_round_ideal_law():
    with criterion(10, "round ideals are principal on self-related tops", 60):
        rng = random.Random(1010)
        for lat, p, si in _strong_inclusion_instances(rng, 100, 4, carrier_cap=10):
            exhaustive = oracles.exhaustive_round_ideals(p, si)
            principal = {
                frozenset(b for b in p.elements if lat.leq(b, t))
                for t in p.elements
                if (t, t) in si.pairs
            }
            assert exhaustive == principal
            fr = enumerate_round_ideals(p, si)
            assert {ideal.members for ideal in fr.ideals} == exhaustive


def test_criterion_11_dense_map_facts():
    with criterion(11, "dense map facts", 30):
        rng = random.Random(1111)
        for i in range(100):
            ks = rng.randint(1, 3)
            kt = rng.randint(1, ks)
            src, tgt = boolean(ks), boolean(kt)
            phi = util.random_phi(rng, ks, kt, surjective=True)
            f = util.atom_map(src, tgt, phi)
            assert is_dense(f)
            # (ii) dense into regular: the extension is one-one
            images = [extend(f, a) for a in range(tgt.n)]
            assert len(set(images)) == tgt.n
            # (i) dense embeddings preserve pseudocomplements
            if is_embedding(f):
                for a in range(tgt.n):
                    assert extend(f, tgt.pstar[a]) == src.pstar[extend(f, a)]
            # (iii) equalized composites with a dense head force equal maps
            kn = rng.randint(1, 3)
            n_lat = boolean(kn)
            g1 = util.atom_map(tgt, n_lat, util.random_phi(rng, kt, kn))
            g2 = util.atom_map(tgt, n_lat, util.random_phi(rng, kt, kn))
            if maps_equal(compose(g1, f), compose(g2, f)):
                assert maps_equal(g1, g2)
            else:
                assert not maps_equal(g1, g2)


def test_criterion_12_interpolated_subcover_witnesses():
    with criterion(12, "interpolated subcover witnesses", 30):
        rng = random.Random(1212)
        for _ in range(50):
            lat = boolean(rng.randint(1, 4))
            p = full_basis(lat)
            parts = sorted({rng.randrange(lat.n) for _ in range(rng.randint(1, 5))})
            total = lat.join_all(parts)
            b = rng.choice([x for x in range(lat.n) if lat.leq(x, total)])
            w = interpolated_subcover(lat, p, b, parts)
            if w is None:
                assert b == lat.bottom
                continue
            wi = well_inside(lat).pairs
            assert lat.leq(b, lat.join_all(w.lower))
            assert (lat.join_all(w.lower), lat.join_all(w.middle)) in wi
            assert (lat.join_all(w.middle), total) in wi
            for q, m, u in zip(w.lower, w.middle, w.upper):
                assert (q, m) in wi
                assert (m, u) in wi
                assert u in parts
