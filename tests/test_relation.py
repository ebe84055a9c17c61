import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from roundideal import lattice, relation
from roundideal.compactify import (
    RoundIdeal,
    enumerate_round_ideals,
    interpolated_subcover,
    is_compatible,
)
from roundideal.errors import (
    InvariantViolation,
    MalformedInput,
    NoScaleError,
    PreconditionError,
)
from roundideal.framemap import ContinuousMap, extend, finer_than, is_embedding
from roundideal.lattice import (
    Basis,
    Cover,
    PcdLattice,
    _transpose,
    boolean,
    chain,
    downset_lattice,
    full_basis,
    is_regular,
    minimal_subcover,
    pcd_closure,
    pseudocomplement,
    well_inside,
)
from roundideal.relation import (
    Relation,
    build_scale,
    check_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    largest_interpolative,
    least_strong_inclusion,
    ordered_sandwich,
)
from test_lattice import posets


def zigzag():
    # downsets of: a < c, b < c, b < d; well-inside fails interpolation here
    labels = ["a", "b", "c", "d"]
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 2), (1, 3)}
    leq = [[(i, j) in order for j in range(4)] for i in range(4)]
    return downset_lattice(labels, leq, name="zigzag")


def trivial_si_pairs(lat, carrier):
    return {
        (x, y)
        for x in carrier
        for y in carrier
        if x == lat.bottom or y == lat.top
    }


def random_relation(lat, rng, max_pairs=12):
    count = min(rng.randint(0, max_pairs), lat.n * lat.n)
    pairs = set()
    while len(pairs) < count:
        pairs.add((rng.randrange(lat.n), rng.randrange(lat.n)))
    return Relation(lat, pairs)


class TestLargestInterpolative:
    def test_reflexive_pair_survives(self):
        l = boolean(1)
        r = Relation(l, {(1, 1)})
        assert largest_interpolative(r).pairs == {(1, 1)}

    def test_strict_chain_dies(self):
        l = chain(3)
        r = Relation(l, {(0, 1), (1, 2), (0, 2)})
        got = largest_interpolative(r)
        assert got.pairs == frozenset()
        assert got.pairs == oracles.brute_largest_interpolative(r.pairs)

    def test_boolean_well_inside_fixed(self):
        l = boolean(3)
        wi = Relation(l, well_inside(l).pairs)
        assert largest_interpolative(wi) == wi

    def test_strict_chain_with_reflexive_top_prunes_gradually(self):
        # pruning cascades one pair per pass from the bottom of the chain;
        # only the top's reflexive pair and its immediate predecessor survive
        c = chain(6)
        pairs = {(i, i + 1) for i in range(5)} | {(5, 5)}
        got = largest_interpolative(Relation(c, pairs))
        assert got.pairs == {(4, 5), (5, 5)}
        assert got.pairs == oracles.brute_largest_interpolative(pairs)

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_union_of_interpolative_subsets(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(1, 4))
        r = random_relation(l, rng)
        got = largest_interpolative(r)
        assert got.pairs == oracles.brute_largest_interpolative(r.pairs)

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_contained_interpolative_idempotent_monotone(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(1, 4))
        r = random_relation(l, rng)
        got = largest_interpolative(r)
        assert got.pairs <= r.pairs
        for x, y in got.pairs:
            assert any((x, z) in got.pairs and (z, y) in got.pairs
                       for z in range(l.n))
        assert largest_interpolative(got) == got
        smaller = Relation(l, [q for q in sorted(r.pairs) if rng.random() < 0.6])
        assert largest_interpolative(smaller).pairs <= got.pairs


def brute_gaps(r):
    """Pairs (x, y) of ``r``, in index order, with no z such that x r z r y."""
    n = len(r.rows)
    return [(x, y) for x, y in sorted(r.pairs)
            if not any((x, z) in r.pairs and (z, y) in r.pairs for z in range(n))]


class TestRowInterpolation:
    """Gaps come from rows alone: y interpolates in row x exactly when it lies
    in the row of a member of row x.  Checked against a scan of every
    (x, z, y), the report's condition 7 and the union-of-subsets oracle."""

    def check(self, r):
        gaps = list(relation._uninterpolated(r))
        assert gaps == brute_gaps(r), sorted(r.pairs)
        l = r.lattice
        if not l.is_valid:
            return
        p = full_basis(l)
        seventh = check_strong_inclusion(r, p).condition(7)
        expected = oracles.reference_si_report(l, p.elements, r.pairs)[6]
        assert (seventh.holds, seventh.witness, seventh.detail) == expected
        assert seventh.holds == (not gaps)
        if len(r) <= 14:
            assert largest_interpolative(r).pairs == oracles.brute_largest_interpolative(r.pairs)

    def test_every_relation_on_a_3_chain(self):
        l = chain(3)
        square = sorted(itertools.product(range(l.n), repeat=2))
        for mask in range(1 << len(square)):
            self.check(Relation(l, [q for i, q in enumerate(square) if mask >> i & 1]))

    @pytest.mark.parametrize("kind", util.ORDER_KINDS)
    def test_random_relations_on_every_order_kind(self, kind):
        rng = random.Random(kind)
        for _ in range(40):
            l = PcdLattice(*util.random_order(rng, kind))
            density = rng.random()
            pairs = [(a, b) for a in range(l.n) for b in range(l.n) if rng.random() < density]
            self.check(Relation(l, pairs))


def report_fields(l, p, pairs):
    """``(holds, witness, detail)`` of each condition of the report of ``pairs`` on ``p``."""
    report = check_strong_inclusion(Relation(l, pairs, p.elements), p)
    return [(c.holds, c.witness, c.detail) for c in report.conditions]


class TestCheckStrongInclusion:
    def test_trivial_strong_inclusion_passes_everything(self):
        l = util.downset_instance(5, 4)
        b = full_basis(l)
        rel = Relation(l, trivial_si_pairs(l, range(l.n)))
        assert check_strong_inclusion(rel, b).ok

    def test_well_inside_on_chain(self):
        c = chain(3)
        rep = check_strong_inclusion(
            Relation(c, well_inside(c).pairs), full_basis(c)
        )
        for number in range(1, 7):
            assert rep.condition(number).holds
        assert rep.condition(7).holds  # the chain's well-inside interpolates

    def test_well_inside_can_fail_interpolation(self):
        l = zigzag()
        rep = check_strong_inclusion(
            Relation(l, well_inside(l).pairs), full_basis(l)
        )
        for number in range(1, 7):
            assert rep.condition(number).holds
        assert not rep.condition(7).holds
        assert rep.condition(7).witness is not None

    def test_conditions_are_numbered_one_to_seven(self):
        c = chain(3)
        rep = check_strong_inclusion(Relation(c, well_inside(c).pairs), full_basis(c))
        assert [rep.condition(k).number for k in range(1, 8)] == list(range(1, 8))
        for number in (0, -1, 8, 9, "x", None, 1.0, "7"):
            with pytest.raises(MalformedInput, match="^condition number"):
                rep.condition(number)

    def test_full_relation_fails_containment(self):
        c = chain(3)
        everything = Relation(c, [(i, j) for i in range(3) for j in range(3)])
        rep = check_strong_inclusion(everything, full_basis(c))
        bad = rep.condition(6)
        assert not bad.holds
        assert bad.witness not in well_inside(c).pairs

    def test_carrier_must_be_closed(self):
        l = boolean(2)
        open_carrier = Basis(l, frozenset({l.bottom, 1, l.top}))
        with pytest.raises(PreconditionError):
            check_strong_inclusion(Relation(l, (), open_carrier.elements), open_carrier)

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_report(self, seed):
        # every holds, witness and detail field equals the set-based report,
        # on well-inside subsets, random pair sets, full relations, strong
        # inclusions and strong inclusions with one or two pairs toggled (so
        # that each row test fails now and then and its scan names the
        # witness), over full bases and pcd-closure carriers
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 5))
        p = full_basis(l) if rng.random() < 0.5 else util.random_carrier(l, rng)
        members = sorted(p.elements)
        kind = rng.randrange(5)
        if kind == 0:
            pairs = [q for q in sorted(well_inside(l).pairs)
                     if q[0] in p.elements and q[1] in p.elements and rng.random() < 0.7]
        elif kind == 1:
            pairs = [(rng.choice(members), rng.choice(members))
                     for _ in range(rng.randint(0, 2 * len(members)))]
        elif kind == 2:
            pairs = [(a, b) for a in members for b in members]
        elif kind == 3:
            pairs = util.random_strong_inclusion(l, p, rng).pairs
        else:
            pairs = set(util.random_strong_inclusion(l, p, rng).pairs)
            for _ in range(rng.randint(1, 2)):
                pairs ^= {(rng.choice(members), rng.choice(members))}
        assert report_fields(l, p, pairs) == oracles.reference_si_report(l, p.elements, pairs)

    def test_every_relation_on_a_3_chain_matches_reference(self):
        l = chain(3)
        p = full_basis(l)
        square = sorted(itertools.product(range(l.n), repeat=2))
        for mask in range(1 << len(square)):
            pairs = {q for i, q in enumerate(square) if mask >> i & 1}
            assert report_fields(l, p, pairs) == \
                oracles.reference_si_report(l, p.elements, pairs), sorted(pairs)

    def test_sandwiches_on_boolean_2_and_their_one_pair_toggles_match_reference(self):
        # each sandwich passes the row tests of (3) and (4); a toggled pair
        # makes one of them fail now and then, or breaks (5) or (7) behind
        # them.  On every closed carrier of boolean(2) and every proper one
        # of boolean(3); on a proper carrier the rows and columns are
        # principal in the carrier but not in the lattice.
        carriers = []
        for l in (boolean(2), boolean(3)):
            for mask in range(1 << l.n):
                p = Basis(l, [x for x in range(l.n) if mask >> x & 1])
                if p.is_sub_pcd() and (l.n == 4 or len(p.elements) < l.n):
                    carriers.append(p)
        assert [len(p.elements) for p in carriers] == [2, 4, 2, 4, 4, 4]
        for p in carriers:
            l, members = p.lattice, sorted(p.elements)
            square = sorted(itertools.product(members, repeat=2))
            for r in range(len(members) + 1):
                for selves in itertools.combinations(members, r):
                    base = oracles.sandwich(l, p.elements, selves)
                    for pairs in [base, *(base ^ {q} for q in square)]:
                        assert report_fields(l, p, pairs) == \
                            oracles.reference_si_report(l, p.elements, pairs), \
                            (l.name, members, sorted(pairs))

    @pytest.mark.parametrize("pairs, number, witness, detail", [
        ({(0, 2), (1, 2)}, 5, (0, 0), "stars of (c1, c2)"),
        ({(0, 2)}, 7, (0, 2), "no interpolant"),
    ], ids=["star-reversal", "interpolation"])
    def test_failure_behind_passing_row_tests_is_named(self, pairs, number, witness, detail):
        # rows are up-cones and columns down-cones of the carrier here, so
        # (2) to (4) hold and the failing condition is found past them
        c = chain(3)
        report = check_strong_inclusion(Relation(c, pairs), full_basis(c))
        assert all(report.condition(k).holds for k in (2, 3, 4))
        bad = report.condition(number)
        assert (bad.holds, bad.witness, bad.detail) == (False, witness, detail)

    def test_failed_row_test_of_meets_is_decided_by_its_scan(self):
        # the row of c0 is not an up-cone, so (3)'s row test fails; as (2)
        # fails too that is not decisive, and the scan finds every meet
        c = chain(3)
        report = check_strong_inclusion(Relation(c, {(0, 0)}), full_basis(c))
        sandwich = report.condition(2)
        assert (sandwich.holds, sandwich.witness, sandwich.detail) == \
            (False, (0, 1), "derived from (c0, c0)")
        assert report.condition(3).holds


class TestLeastStrongInclusion:
    def test_empty_seed_gives_trivial(self):
        l = util.downset_instance(9, 3)
        b = full_basis(l)
        got = least_strong_inclusion(b, Relation(l, ()))
        assert got.pairs == trivial_si_pairs(l, range(l.n))

    def test_bounds_seed_same_as_empty(self):
        l = util.downset_instance(9, 3)
        b = full_basis(l)
        seed = Relation(l, {(l.bottom, l.bottom), (l.top, l.top)})
        assert least_strong_inclusion(b, seed) == least_strong_inclusion(
            b, Relation(l, ())
        )

    def test_order_seed_on_boolean_is_order(self):
        l = boolean(2)
        b = full_basis(l)
        wi = Relation(l, well_inside(l).pairs)
        got = least_strong_inclusion(b, wi)
        assert got == wi  # well-inside is the order there, already closed

    def test_seed_from_another_lattice_rejected(self):
        l = boolean(2)
        for other in (boolean(3), chain(4)):
            seed = Relation(other, {(other.top, other.top)})
            with pytest.raises(MalformedInput, match="different lattices"):
                least_strong_inclusion(full_basis(l), seed)

    def test_seed_outside_well_inside_rejected(self):
        c = chain(3)
        with pytest.raises(PreconditionError, match="not well-inside"):
            least_strong_inclusion(full_basis(c), Relation(c, {(1, 1)}))

    def test_non_interpolating_seed_rejected(self):
        l = zigzag()
        bad_pair = check_strong_inclusion(
            Relation(l, well_inside(l).pairs), full_basis(l)
        ).condition(7).witness
        with pytest.raises(PreconditionError, match="no interpolant"):
            least_strong_inclusion(full_basis(l), Relation(l, {bad_pair}))

    def test_seed_is_checked_once_per_key(self, monkeypatch):
        # the seed checks run inside the derivation: a warm call scans nothing,
        # and a seed that fails them stores nothing, so it fails every call;
        # the interpolation check starts with the cone-key test on every seed
        calls = []

        def counting(rows, filters):
            calls.append(rows)
            return real(rows, filters)

        real = relation._settled
        monkeypatch.setattr(relation, "_settled", counting)
        l = boolean(2)
        p = full_basis(l)
        seed = Relation(l, well_inside(l).pairs)
        first = least_strong_inclusion(p, seed)
        assert calls
        calls.clear()
        assert least_strong_inclusion(p, Relation(l, well_inside(l).pairs)) is first
        assert not calls
        bad = Relation(l, [(l.bottom, l.top)])
        for _ in range(3):
            with pytest.raises(PreconditionError) as caught:
                least_strong_inclusion(p, bad)
            assert str(caught.value) == "seed pair ({}, {a,b}) has no interpolant in the seed"
        assert len(calls) == 3

    def test_seed_settled_by_its_cone_keys_is_not_scanned(self, monkeypatch):
        # each row of well-inside on a Boolean algebra is a principal filter
        # up[m] lying inside row m, which interpolates it: no gap scan runs;
        # the row {0, a} is no filter, so that seed is scanned, and has no gap
        scanned = []
        real = relation._uninterpolated
        monkeypatch.setattr(relation, "_uninterpolated",
                            lambda rel: scanned.append(rel.rows) or real(rel))
        l = boolean(3)
        p = full_basis(l)
        least_strong_inclusion(p, Relation(l, well_inside(l).pairs))
        assert scanned == []
        seed = Relation(l, [(l.bottom, l.bottom), (l.bottom, l.element("{a}"))])
        least_strong_inclusion(p, seed)
        assert scanned == [seed.rows]

    @given(st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_closure_passes_all_conditions(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 5))
        p = full_basis(l)
        seed_rel = util.random_interpolative_seed(l, p, rng)
        got = least_strong_inclusion(p, seed_rel)
        assert seed_rel.pairs <= got.pairs
        assert check_strong_inclusion(got, p).ok

    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_closure_on_small_lattices(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 3))
        if l.n > 6:
            return
        p = full_basis(l)
        seed_rel = util.random_interpolative_seed(l, p, rng)
        got = least_strong_inclusion(p, seed_rel)
        naive = oracles.naive_closure_conditions_1_to_5(
            l, range(l.n), seed_rel.pairs
        )
        assert got.pairs == naive

    @given(st.integers(0, 3000))
    @settings(max_examples=20, deadline=None)
    def test_contained_in_sampled_closed_supersets(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 3))
        p = full_basis(l)
        seed_rel = util.random_interpolative_seed(l, p, rng)
        got = least_strong_inclusion(p, seed_rel)
        extra = {
            (rng.randrange(l.n), rng.randrange(l.n)) for _ in range(rng.randint(0, 3))
        }
        superset = oracles.naive_closure_conditions_1_to_5(
            l, range(l.n), set(seed_rel.pairs) | extra
        )
        assert got.pairs <= superset


class TestInterpolativeCore:
    def test_boolean_core_is_order(self):
        l = boolean(3)
        core = interpolative_core_on_basis(l, full_basis(l))
        assert core.pairs == {
            (y, x) for y in range(l.n) for x in range(l.n) if l.leq(y, x)
        }

    def test_chain_core_is_whole_well_inside(self):
        # the chain's well-inside interpolates already, so nothing is pruned;
        # confirmed against the exhaustive union-of-subrelations oracle
        c = chain(3)
        core = interpolative_core_on_basis(c, full_basis(c))
        assert core.pairs == oracles.brute_largest_interpolative(
            well_inside(c).pairs
        )
        assert core.pairs == well_inside(c).pairs
        assert (1, 2) in core.pairs

    def test_one_element_core(self):
        l = boolean(0)
        core = interpolative_core_on_basis(l, full_basis(l))
        assert core.pairs == {(0, 0)}

    def test_zigzag_core_proper(self):
        l = zigzag()
        core = interpolative_core_on_basis(l, full_basis(l))
        assert core.pairs < well_inside(l).pairs


def small_lattices():
    """Boolean algebras, chains and generated downset lattices of at most 32 elements."""
    yield from (boolean(k) for k in range(4))
    yield from (chain(k) for k in range(1, 6))
    for seed in range(30):
        yield util.downset_instance(seed, 1 + seed % 5)


def sub_pcd_carriers(l):
    """The distinct pcd-closures of the subsets of at most three elements of ``l``."""
    seen = set()
    for r in range(min(l.n, 3) + 1):
        for seed in itertools.combinations(range(l.n), r):
            p = pcd_closure(l, seed).elements
            if p not in seen:
                seen.add(p)
                yield p


class TestStructureTheorem:
    """On a finite carrier every strong inclusion is the order sandwich of its
    self-related elements; the kernels are checked against set-based oracles."""

    def test_every_strong_inclusion_is_the_sandwich_of_its_diagonal(self):
        carriers = candidates = found = 0
        for l in small_lattices():
            for p in sub_pcd_carriers(l):
                wi = sorted(oracles.reference_well_inside(l, p))
                if len(wi) > 10:
                    continue
                carriers += 1
                for mask in range(1 << len(wi)):
                    rel = {q for i, q in enumerate(wi) if mask >> i & 1}
                    candidates += 1
                    if not all(ok for ok, *_ in oracles.reference_si_report(l, p, rel)):
                        continue
                    found += 1
                    selves = {a for a, b in rel if a == b}
                    assert rel == oracles.sandwich(l, p, selves), (l.name, sorted(p))
                    assert {l.bottom, l.top} <= selves
                    assert all(
                        l.pstar[s] in selves and l.join[s][l.pstar[s]] == l.top
                        and {l.meet[s][t], l.join[s][t]} <= selves
                        for s in selves for t in selves
                    )
        assert carriers >= 100 and candidates >= 10000 and found >= 100

    def test_core_matches_brute_force_on_sub_pcd_carriers(self):
        checked = 0
        for l in small_lattices():
            for p in sub_pcd_carriers(l):
                wi = oracles.reference_well_inside(l, p)
                if len(wi) > 14:
                    continue
                core = interpolative_core_on_basis(l, Basis(l, p))
                assert core.pairs == oracles.brute_largest_interpolative(wi)
                assert core.carrier == p
                checked += 1
        assert checked >= 100

    def test_least_matches_naive_closure_on_proper_carriers(self):
        rng = random.Random(6)
        checked = 0
        for l in small_lattices():
            for p in sub_pcd_carriers(l):
                wi = sorted(oracles.reference_well_inside(l, p))
                if p == frozenset(range(l.n)) or len(wi) > 14:
                    continue
                chosen = [q for q in wi if rng.random() < 0.5]
                for start in ((), oracles.brute_largest_interpolative(chosen)):
                    got = least_strong_inclusion(Basis(l, p), Relation(l, start, p))
                    assert got.pairs == oracles.naive_closure_conditions_1_to_5(l, p, start)
                    assert got.carrier == p
                    checked += 1
        assert checked >= 100


def label_order(l):
    """The order of a chain or a downset lattice read off its labels alone:
    ``c<i>`` by i, a downset ``{a,b}`` by inclusion of the points it lists."""
    if l.names[0].startswith("c"):
        return [[int(x[1:]) <= int(y[1:]) for y in l.names] for x in l.names]
    points = [set(name.strip("{}").split(",")) - {""} for name in l.names]
    return [[x <= y for y in points] for x in points]


def test_sandwich_from_the_closure_map_matches_reference():
    # every S inside every carrier K, closed or not and S empty included: a
    # set of S that is no cone key is gathered, an empty one is 0
    lattices = [boolean(k) for k in range(4)] + [chain(k) for k in range(1, 6)]
    lattices += [downset_lattice("abc"[:k], leq) for k in range(4) for leq in posets(k)]
    sandwiches = gathered = 0
    for l in lattices:
        leq, n = label_order(l), l.n
        for keep in range(1 << n):
            p = Basis(l, [x for x in range(n) if keep >> x & 1])
            selves = keep
            while True:  # every submask of keep, down to 0
                rel = relation._sandwich(l, selves, p)
                rows, cols = [0] * n, [0] * n
                for x, y in oracles.reference_sandwich(
                        leq, p.elements, [s for s in range(n) if selves >> s & 1]):
                    rows[x] |= 1 << y
                    cols[y] |= 1 << x
                assert (rel.rows, rel._cols) == (tuple(rows), tuple(cols)), \
                    (l.name, sorted(p.elements), selves)
                assert rel._cols == tuple(_transpose(rel.rows, n))
                assert rel.carrier == p.elements
                filters = lattice._cone_keys(l, selves)[0]
                gathered += any(up & selves not in filters
                                for x, up in enumerate(l._up) if keep >> x & 1 and up & selves)
                sandwiches += 1
                if not selves:
                    break
                selves = (selves - 1) & keep
    assert sandwiches == 20043 and gathered > 3000


class TestStrongRegularity:
    def test_boolean_strongly_regular(self):
        l = boolean(3)
        assert is_strongly_regular_basis(l, full_basis(l))

    def test_chain_not_strongly_regular(self):
        c = chain(3)
        assert not is_strongly_regular_basis(c, full_basis(c))

    def test_one_element(self):
        l = boolean(0)
        assert is_strongly_regular_basis(l, full_basis(l))

    def test_atoms_of_boolean_strongly_regular(self):
        l = boolean(3)
        b = Basis(l, frozenset(util.atoms(l)))
        # atoms alone generate a Boolean algebra
        assert b.is_basis()
        assert is_strongly_regular_basis(l, b)

    @given(st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_extension_stability(self, seed):
        rng = random.Random(seed)
        l = boolean(rng.randint(0, 3))
        small = frozenset(util.atoms(l)) | {
            x for x in range(l.n) if rng.random() < 0.3
        }
        b_small = Basis(l, small)
        if not b_small.is_basis():
            return
        if not is_strongly_regular_basis(l, b_small):
            return
        bigger = small | {x for x in range(l.n) if rng.random() < 0.5}
        assert is_strongly_regular_basis(l, Basis(l, bigger))

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_regular_implies_strongly_regular(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 5))
        if is_regular(l, full_basis(l)):
            assert is_strongly_regular_basis(l, full_basis(l))

    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_hereditary_under_embeddings(self, seed):
        rng = random.Random(seed)
        k_src = rng.randint(0, 2)
        k_tgt = rng.randint(k_src, 3)
        src = boolean(k_src)
        tgt = boolean(k_tgt)
        phi = util.random_phi(rng, len(util.atoms(src)), max(len(util.atoms(tgt)), 1),
                              injective=True) if k_src else []
        f = util.atom_map(src, tgt, phi)
        assert is_embedding(f)
        images = frozenset(extend(f, b) for b in range(tgt.n))
        assert is_strongly_regular_basis(src, Basis(src, images))


class TestOrderedSandwich:
    def test_empty(self):
        l = boolean(2)
        assert ordered_sandwich(Relation(l, ())).pairs == frozenset()

    def test_order_on_boolean_fixed(self):
        l = boolean(2)
        leq_rel = Relation(
            l, {(y, x) for y in range(l.n) for x in range(l.n) if l.leq(y, x)}
        )
        assert ordered_sandwich(leq_rel) == leq_rel

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_cores_are_sandwich_stable(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 5))
        p = util.random_carrier(l, rng)
        core = interpolative_core_on_basis(l, p)
        assert ordered_sandwich(core) == core

    def test_full_carrier_extends_a_strong_inclusion(self):
        l = boolean(2)
        p = pcd_closure(l, ())
        si = least_strong_inclusion(p, Relation(l, (), p.elements))
        widened = ordered_sandwich(si, carrier=range(l.n))
        assert widened.pairs == trivial_si_pairs(l, range(l.n))


class TestScales:
    def test_constant_scale(self):
        l = boolean(1)
        core = interpolative_core_on_basis(l, full_basis(l))
        s = build_scale(core, 1, 1, 2)
        assert set(s.values) == {1}

    def test_boolean_bottom_to_top(self):
        l = boolean(2)
        core = interpolative_core_on_basis(l, full_basis(l))
        s = build_scale(core, l.bottom, l.top, 2)
        assert s.values[0] == l.bottom and s.values[-1] == l.top
        wi = well_inside(l).pairs
        vals = s.values
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert (vals[i], vals[j]) in wi
        # midpoint between bottom and top is the lowest-index interpolant
        assert s.values[2] == min(
            z for z in range(l.n)
            if (l.bottom, z) in core.pairs and (z, l.top) in core.pairs
        )

    def test_no_scale_for_unrelated_pair(self):
        c = chain(3)
        core = interpolative_core_on_basis(c, full_basis(c))
        with pytest.raises(NoScaleError):
            build_scale(core, 1, 1, 1)  # the middle is not inside itself

    def test_scale_exists_for_middle_to_top(self):
        # (middle, top) is well-inside and interpolates through the top
        c = chain(3)
        core = interpolative_core_on_basis(c, full_basis(c))
        s = build_scale(core, 1, 2, 2)
        assert s.values[0] == 1 and s.values[-1] == 2

    def test_fractions_view(self):
        l = boolean(1)
        core = interpolative_core_on_basis(l, full_basis(l))
        s = build_scale(core, l.bottom, l.top, 1)
        from fractions import Fraction

        keys = sorted(s.as_fractions())
        assert keys == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_depth_cap(self):
        l = boolean(1)
        core = interpolative_core_on_basis(l, full_basis(l))
        with pytest.raises(MalformedInput):
            build_scale(core, 0, 1, 40)

    def test_endpoints_must_be_elements(self):
        l = boolean(1)
        core = interpolative_core_on_basis(l, full_basis(l))
        for y, x in [(2, 0), (0, 2), (-1, 1), (1, -1)]:
            with pytest.raises(MalformedInput, match="endpoints"):
                build_scale(core, y, x, 1)

    def test_depth_cap_within_budget(self):
        l = boolean(2)
        core = interpolative_core_on_basis(l, full_basis(l))
        start = time.perf_counter()
        s = build_scale(core, l.bottom, l.top, 16)
        assert time.perf_counter() - start < 10
        assert len(s.values) == 2**16 + 1
        assert s.values[0] == l.bottom and s.values[-1] == l.top

    def test_preconditions_name_labels(self):
        c = chain(3)
        with pytest.raises(PreconditionError, match=r"pair \(c1, c1\) is not well-inside"):
            build_scale(Relation(c, {(1, 1)}), 1, 1, 1)
        l = zigzag()
        wi = Relation(l, well_inside(l).pairs)
        x, y = check_strong_inclusion(wi, full_basis(l)).condition(7).witness
        with pytest.raises(
            PreconditionError,
            match=rf"pair \({l.names[x]}, {l.names[y]}\) has no interpolant",
        ):
            build_scale(wi, l.bottom, l.top, 1)


class TestReallyInsideViaScales:
    """The pairs of the core joined by a dyadic scale are the whole core."""

    def test_one_element(self):
        l = boolean(0)
        core = interpolative_core_on_basis(l, full_basis(l))
        assert oracles.scale_pairs(core, 2) == {(0, 0)}

    def test_boolean_is_order(self):
        l = boolean(3)
        core = interpolative_core_on_basis(l, full_basis(l))
        assert oracles.scale_pairs(core, 2) == {
            (y, x) for y in range(l.n) for x in range(l.n) if l.leq(y, x)
        }

    @given(st.integers(0, 2000), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_equals_core_at_any_depth(self, seed, depth):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        core = interpolative_core_on_basis(l, full_basis(l))
        assert oracles.scale_pairs(core, depth) == core.pairs


class TestRelationType:
    def test_pairs_must_fit_carrier(self):
        l = boolean(2)
        with pytest.raises(MalformedInput):
            Relation(l, {(0, 1)}, carrier={0})

    def test_pair_elements_must_be_indices(self):
        l = boolean(2)
        with pytest.raises(MalformedInput, match="not an integer"):
            Relation(l, [("a", 1)])
        with pytest.raises(MalformedInput, match="out of range"):
            Relation(l, [(0, l.n)])

    @pytest.mark.parametrize("build", [
        lambda l: Relation(l, [5]),
        lambda l: Relation(l, [(1, 2, 3)]),
        lambda l: Relation(l, 5),
        lambda l: Relation(l, [], carrier=5),
        lambda l: ContinuousMap(l, boolean(1), full_basis(boolean(1)), [0, 1]),
        lambda l: Basis(l, 3),
        lambda l: Cover(0, 5),
        lambda l: pcd_closure(l, 3),
    ], ids=["pair-not-a-pair", "pair-too-long", "pairs-not-a-collection",
            "carrier-not-a-collection", "assignment-not-a-mapping",
            "basis-not-a-collection", "parts-not-a-collection", "seed-not-a-collection"])
    def test_malformed_containers_are_malformed_input(self, build):
        with pytest.raises(MalformedInput, match="collection|pair|mapping"):
            build(boolean(2))

    @pytest.mark.parametrize("build", [
        lambda l: pseudocomplement(l, -1),
        lambda l: pseudocomplement(l, 9),
        lambda l: minimal_subcover(l, [-1], 3),
        lambda l: minimal_subcover(l, [9], 3),
        lambda l: build_scale(interpolative_core_on_basis(l, full_basis(l)), "a", 0, 1),
        lambda l: ContinuousMap(l, l, Basis(l, {1, 2, 3}), {1: 1, 2: 2, 3: 3})(0),
        lambda l: enumerate_round_ideals(
            full_basis(l), interpolative_core_on_basis(l, full_basis(l))).down(99),
        lambda l: enumerate_round_ideals(
            pcd_closure(l, ()), interpolative_core_on_basis(l, pcd_closure(l, ()))).down(1),
        lambda l: Cover(0, [[1]]),
    ], ids=["star-negative", "star-too-large", "subcover-negative", "subcover-too-large",
            "scale-endpoint-not-an-index", "call-outside-the-basis", "down-out-of-range",
            "down-outside-the-carrier", "cover-part-unhashable"])
    def test_unchecked_elements_are_malformed_input(self, build):
        with pytest.raises(MalformedInput, match="integer|range|endpoints|basis|carrier"):
            build(boolean(2))

    @pytest.mark.parametrize("call", [
        lambda l, b, r: check_strong_inclusion(r, 3),
        lambda l, b, r: check_strong_inclusion(3, b),
        lambda l, b, r: least_strong_inclusion(b, 5),
        lambda l, b, r: least_strong_inclusion(5, r),
        lambda l, b, r: interpolative_core_on_basis(l, 3),
        lambda l, b, r: interpolative_core_on_basis(3, b),
        lambda l, b, r: ordered_sandwich(3),
        lambda l, b, r: build_scale(3, 0, 3, 1),
        lambda l, b, r: enumerate_round_ideals(3, r),
        lambda l, b, r: enumerate_round_ideals(b, 3),
        lambda l, b, r: is_strongly_regular_basis(l, 3),
        lambda l, b, r: largest_interpolative(3),
        lambda l, b, r: is_regular(l, 3),
        lambda l, b, r: is_regular(3, b),
    ], ids=["si-carrier", "si-relation", "least-seed", "least-carrier", "core-basis",
            "core-lattice", "sandwich-relation", "scale-relation", "ideals-carrier",
            "ideals-relation", "strongly-regular-basis", "largest-relation",
            "regular-basis", "regular-lattice"])
    def test_wrong_typed_arguments_are_malformed_input(self, call):
        l = boolean(2)
        b = full_basis(l)
        with pytest.raises(MalformedInput, match="must be a"):
            call(l, b, interpolative_core_on_basis(l, b))

    def test_equality_is_matrix_equality(self):
        l = boolean(2)
        assert Relation(l, {(0, 1)}) == Relation(l, {(0, 1)}, carrier={0, 1, 2})
        assert Relation(l, {(0, 1)}) != Relation(l, {(1, 0)})

    def test_relation_or_basis_from_another_lattice_is_malformed(self):
        small, big = boolean(1), boolean(3)
        si = interpolative_core_on_basis(small, full_basis(small))
        with pytest.raises(MalformedInput):
            is_regular(small, full_basis(big))
        with pytest.raises(MalformedInput):
            is_compatible(big, full_basis(big), si)
        with pytest.raises(MalformedInput):
            RoundIdeal(full_basis(big), frozenset({0, 1})).violations(si)
        with pytest.raises(MalformedInput):
            interpolated_subcover(small, full_basis(big), small.top, [small.top])
        with pytest.raises(MalformedInput, match="^basis belongs to another lattice$"):
            interpolative_core_on_basis(small, full_basis(big))

    def test_membership_outside_the_lattice_is_false(self):
        l = boolean(2)
        r = Relation(l, {(0, 0), (0, 3), (3, 3)})
        for pair in [(-1, 0), (0, -1), (-1, -1), (4, 0), (0, 4), (0, 10**6), (10**6, 0),
                     ("x", 1), (0, "3"), (0.0, 3), (1,), (0, 3, 3), 5, None, "03"]:
            assert pair not in r
        assert (0, 3) in r and (3, 0) not in r
        # a raw row-mask test on a negative index would raise instead
        with pytest.raises(ValueError):
            r.rows[0] >> -1

    def test_views_of_the_rows(self):
        l = boolean(2)
        pairs = [(3, 3), (0, 2), (1, 3), (0, 0), (2, 3), (0, 1)]
        r = Relation(l, pairs)
        assert list(r) == sorted(pairs)
        assert len(r) == len(pairs)
        assert r.pairs == frozenset(pairs)
        assert r.rows[0] == 0b111 and r.cols[3] == 0b1110
        assert repr(r) == (
            "Relation{({},{}), ({},{a}), ({},{b}), ({a},{a,b}), ({b},{a,b}), "
            "({a,b},{a,b})}"
        )

    def test_carrier_ignored_by_equality_and_hash(self):
        l = boolean(2)
        pairs = {(0, 1), (1, 3)}
        small = Relation(l, pairs, carrier={0, 1, 3})
        full = Relation(l, pairs)
        assert small.carrier != full.carrier
        assert small == full and hash(small) == hash(full)
        assert small != Relation(l, pairs | {(0, 0)})


class TestWitnessLabels:
    """Messages built from a strong-inclusion report name its witness by label."""

    def test_round_ideal_enumeration(self):
        l = boolean(2)
        with pytest.raises(PreconditionError) as err:
            enumerate_round_ideals(full_basis(l), Relation(l, [(1, 1)]))
        assert str(err.value) == (
            "not a strong inclusion: condition 1 (bounds are self-related) fails at ({}, {})"
        )

    def test_extension_class_search(self):
        l = boolean(2)
        with pytest.raises(PreconditionError) as err:
            finer_than(Relation(l, [(0, 0), (3, 3), (1, 2)]), ContinuousMap.identity(l))
        assert str(err.value) == (
            "not a strong inclusion: condition 2 (order sandwich) fails at ({}, {a})"
        )

    def test_least_strong_inclusion_postcondition(self, monkeypatch):
        l = boolean(2)
        p = full_basis(l)
        bottom_only = Relation(l, [(l.bottom, l.bottom)])
        monkeypatch.setattr(relation, "_sandwich_of", lambda *args: bottom_only)
        with pytest.raises(InvariantViolation) as err:
            least_strong_inclusion(p, Relation(l, []))
        assert str(err.value) == (
            "closure is not a strong inclusion: condition 1 (bounds are self-related) "
            "fails at ({a,b}, {a,b})"
        )

    def test_report_text(self):
        l = boolean(2)
        report = check_strong_inclusion(Relation(l, [(l.bottom, l.bottom)]), full_basis(l))
        lines = str(report).splitlines()
        assert lines[0] == (
            "condition 1 (bounds are self-related): FAIL at ({a,b}, {a,b}): 0<|0 or 1<|1 missing"
        )
        assert lines[2] == "condition 3 (meets on the right): pass"
