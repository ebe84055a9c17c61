import functools
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from roundideal import compactify, framemap, io as rio, lattice, relation
from roundideal.compactify import (
    RoundIdeal,
    compactify_extending,
    enumerate_round_ideals,
    from_compactification,
)
from roundideal.errors import (
    InvariantViolation,
    MalformedInput,
    NotACoverError,
    PreconditionError,
    ValidationFailure,
)
from roundideal.framemap import ContinuousMap, validate_map
from roundideal.lattice import (
    Basis,
    Cover,
    PcdLattice,
    boolean,
    chain,
    downset_lattice,
    full_basis,
    is_compact,
    is_regular,
    minimal_subcover,
    pcd_closure,
    pseudocomplement,
    well_inside,
)
from roundideal.relation import (
    Relation,
    check_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    least_strong_inclusion,
)
from test_io import FORMATS, N5_DOC, random_document


def pentagon():
    # 0 < a < 1 and 0 < b < c < 1 with a incomparable to b, c
    names = ["0", "a", "b", "c", "1"]
    order = {
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 4), (2, 3), (2, 4), (3, 4),
    }
    leq = [[(i, j) in order for j in range(5)] for i in range(5)]
    return PcdLattice(names, leq, name="N5")


def posets(k):
    """Every partial order on k labelled points, as a 0/1 matrix."""
    off = [(i, j) for i in range(k) for j in range(k) if i != j]
    for bits in range(1 << len(off)):
        leq = [[int(i == j) for j in range(k)] for i in range(k)]
        for t, (i, j) in enumerate(off):
            leq[i][j] = bits >> t & 1
        antisymmetric = not any(leq[i][j] and leq[j][i] for i, j in off)
        transitive = all(leq[i][m] or not (leq[i][j] and leq[j][m])
                         for i in range(k) for j in range(k) for m in range(k))
        if antisymmetric and transitive:
            yield leq


def small_lattices():
    """The downset lattices of every poset on at most 3 points, and chain(1..5)."""
    by_size = [list(posets(k)) for k in range(4)]
    assert [len(ps) for ps in by_size] == [1, 1, 3, 19]
    lattices = [downset_lattice("abc"[:k], leq) for k, ps in enumerate(by_size) for leq in ps]
    return lattices + [chain(k) for k in range(1, 6)]


def family_order(rng):
    """A random set family on at most 4 points holding the full set and at
    least one other set, closed under intersection: labels and inclusion
    order, in a shuffled order."""
    k = rng.randint(1, 4)
    full, p = (1 << k) - 1, rng.random()
    family = {full, rng.randrange(full)} | {m for m in range(full) if rng.random() < p}
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            break
        family = grown
    members = sorted(family)
    names = ["{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in members]
    leq = [[a & ~b == 0 for b in members] for a in members]
    return util.relabel(names, leq, rng)


class TestValidate:
    def test_one_element_lattice_valid(self):
        assert boolean(0).validate() == []

    def test_boolean_square_valid(self):
        assert boolean(2).validate() == []

    def test_pentagon_fails_distributivity(self):
        report = pentagon().validate()
        assert any("distributivity" in line for line in report)

    def test_dimension_mismatch(self):
        with pytest.raises(MalformedInput):
            PcdLattice(["a", "b"], [[True]])

    def test_duplicate_labels(self):
        with pytest.raises(MalformedInput):
            PcdLattice(["a", "a"], [[True, False], [False, True]])

    def test_missing_bound_reported(self):
        # two incomparable points: no bottom, no top, no meets/joins
        leq = [[True, False], [False, True]]
        report = PcdLattice(["a", "b"], leq).validate()
        assert any("bottom" in line for line in report)
        assert any("top" in line for line in report)

    def test_broken_order_reported(self):
        leq = [[False, True], [True, True]]
        report = PcdLattice(["a", "b"], leq).validate()
        assert any("reflexivity" in line for line in report)

    def test_intransitive_order_bounds_are_cone_owners(self):
        # e0 <= e1 <= e2 but not e0 <= e2: the common up cone {e1} of e0 and
        # e1 is no element's up cone, nor is the common down cone {e1} of e1
        # and e2 any element's down cone, so neither has a bound
        leq = [[True, True, False], [False, True, True], [False, False, True]]
        l = PcdLattice(["e0", "e1", "e2"], leq)
        assert l.validate() == [
            "transitivity fails at (e0, e1, e2)",
            "no bottom element",
            "no top element",
            "no greatest lower bound for (e0, e2)",
            "no least upper bound for (e0, e1)",
        ]
        assert l.join[0][1] is None
        assert l.meet[1][2] is None

    def test_operations_require_validity(self):
        bad = pentagon()
        with pytest.raises(PreconditionError):
            pseudocomplement(bad, 1)


class TestBasicQueries:
    @pytest.mark.parametrize("query, message", [
        (lambda l: l.leq(0, -1), "element -1 out of range"),
        (lambda l: l.leq(9, 0), "element 9 out of range"),
        (lambda l: l.down_list(9), "element 9 out of range"),
        (lambda l: l.leq(0, 9), "element 9 out of range"),
        (lambda l: l.join_all([-1]), "element -1 out of range"),
        (lambda l: l.join_all([9]), "element 9 out of range"),
    ], ids=["leq-negative", "leq-first", "down-list", "leq-second",
            "join-all-negative", "join-all-high"])
    def test_element_out_of_range(self, query, message):
        with pytest.raises(MalformedInput, match=message):
            query(boolean(2))

    def test_element_by_label(self):
        l = boolean(1)
        assert [l.element(x) for x in l.names] == [0, 1]
        for label in ("{b}", 0, None, {}, [], ["{a}"]):
            with pytest.raises(MalformedInput, match="^unknown element label"):
                l.element(label)


class TestPseudocomplement:
    def test_bottom_goes_to_top(self):
        l = boolean(2)
        assert pseudocomplement(l, l.bottom) == l.top

    def test_top_goes_to_bottom(self):
        l = boolean(2)
        assert pseudocomplement(l, l.top) == l.bottom

    def test_chain_middle_kills_everything(self):
        c = chain(3)
        assert pseudocomplement(c, 1) == c.bottom

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_star_laws(self, seed):
        l = util.downset_instance(seed, 4)
        for x in range(l.n):
            s = l.pstar[x]
            assert l.meet[x][s] == l.bottom
            assert l.leq(x, l.pstar[s])
        for x in range(l.n):
            for y in range(l.n):
                if l.leq(x, y):
                    assert l.leq(l.pstar[y], l.pstar[x])


class TestWellInside:
    def test_bottom_inside_everything(self):
        l = util.downset_instance(3, 4)
        wi = well_inside(l)
        for x in range(l.n):
            assert (l.bottom, x) in wi

    def test_boolean_well_inside_is_order(self):
        l = boolean(3)
        wi = well_inside(l)
        expected = {
            (y, x) for y in range(l.n) for x in range(l.n) if l.leq(y, x)
        }
        assert wi.pairs == expected

    def test_chain_middle_not_inside_itself(self):
        c = chain(3)
        assert (1, 1) not in well_inside(c)

    @pytest.mark.parametrize("lat", [chain(256), boolean(8)], ids=["chain256", "boolean8"])
    def test_rows_at_the_byte_edge_match_reference(self, lat):
        # the top has index 255, the largest a byte row holds
        assert lat.top == 255
        assert well_inside(lat).pairs == oracles.reference_well_inside(lat, range(lat.n))

    def test_every_small_downset_lattice_matches_reference(self):
        count = 0
        for k in range(5):
            for leq in posets(k):
                lat = downset_lattice("abcd"[:k], leq)
                assert well_inside(lat).pairs == oracles.reference_well_inside(lat, range(lat.n))
                count += 1
        assert count == 1 + 1 + 3 + 19 + 219

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_strong_inclusion_shaped_properties(self, seed):
        l = util.downset_instance(seed, 4)
        wi = well_inside(l).pairs
        for y, x in wi:
            assert l.leq(y, x)
        items = sorted(wi)
        rng = random.Random(seed)
        sample = items if len(items) <= 40 else rng.sample(items, 40)
        for a, b in sample:
            for x in range(l.n):
                if not l.leq(x, a):
                    continue
                for y in range(l.n):
                    if l.leq(b, y):
                        assert (x, y) in wi
        for x1, y1 in sample:
            for x2, y2 in sample:
                if y1 == y2:
                    assert (l.join[x1][x2], y1) in wi
                if x1 == x2:
                    assert (x1, l.meet[y1][y2]) in wi


class TestIsRegular:
    def test_boolean_regular(self):
        l = boolean(3)
        assert is_regular(l, full_basis(l))

    def test_chain_not_regular(self):
        c = chain(3)
        assert not is_regular(c, full_basis(c))

    def test_one_element_regular(self):
        assert is_regular(boolean(0), full_basis(boolean(0)))


class TestIsCompact:
    def test_top_alone(self):
        l = boolean(2)
        got = is_compact(l, full_basis(l), Cover(l.top, frozenset({l.top})))
        assert got == [l.top]

    def test_complementary_atoms(self):
        l = boolean(2)
        a, b = util.atoms(l)
        got = is_compact(l, full_basis(l), Cover(l.top, frozenset({a, b})))
        assert sorted(got) == sorted([a, b])

    def test_top_beats_atoms(self):
        l = boolean(2)
        a, b = util.atoms(l)
        got = is_compact(l, full_basis(l), Cover(l.top, frozenset({a, b, l.top})))
        assert got == [l.top]

    def test_not_a_cover(self):
        l = boolean(2)
        with pytest.raises(NotACoverError):
            is_compact(l, full_basis(l), Cover(l.top, frozenset({l.bottom})))

    def test_degenerate_lattice_covered_by_empty_family(self):
        l = boolean(0)
        got = is_compact(l, full_basis(l), Cover(l.top, frozenset()))
        assert got == []

    def test_target_must_be_the_top(self):
        l = boolean(2)
        with pytest.raises(PreconditionError, match=re.escape("cover target {} is not the top")):
            is_compact(l, full_basis(l), Cover(l.bottom, frozenset({l.top})))

    def test_target_out_of_range(self):
        l = boolean(2)
        with pytest.raises(MalformedInput, match="cover target 4 out of range"):
            is_compact(l, full_basis(l), Cover(4, frozenset({l.top})))

    def test_target_must_be_an_integer(self):
        with pytest.raises(MalformedInput, match="cover target 'x' is not an integer"):
            Cover("x", frozenset({3}))

    def test_parts_must_be_basic(self):
        l = boolean(2)
        b = Basis(l, frozenset({l.bottom, l.top}))
        with pytest.raises(PreconditionError):
            is_compact(l, b, Cover(l.top, frozenset({1})))

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_witness_is_minimal_and_first(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, 4)
        parts = {l.top} | {x for x in range(l.n) if rng.random() < 0.5}
        got = is_compact(l, full_basis(l), Cover(l.top, frozenset(parts)))
        oracles.assert_minimal_subcover(l, parts, l.top, got)

    def test_basis_of_another_lattice(self):
        with pytest.raises(MalformedInput, match="basis belongs to another lattice"):
            is_compact(boolean(2), full_basis(boolean(3)), Cover(3, range(4)))


class TestMinimalSubcover:
    @pytest.mark.parametrize("build, parts, target, message", [
        (pentagon, [1, 3], 4, "distributivity fails"),
        (lambda: PcdLattice(["a", "b"], [[True, False], [False, True]]), [0, 1], 1,
         "no bottom element"),
    ], ids=["n5", "antichain"])
    def test_invalid_lattice_refused(self, build, parts, target, message):
        with pytest.raises(PreconditionError, match=f"invalid lattice: {message}"):
            minimal_subcover(build(), parts, target)


class TestPcdClosure:
    def test_empty_seed_gives_bounds(self):
        l = boolean(2)
        assert pcd_closure(l, ()).elements == frozenset({l.bottom, l.top})

    def test_full_seed_fixed(self):
        l = boolean(2)
        assert pcd_closure(l, range(l.n)).elements == frozenset(range(l.n))

    def test_chain_middle(self):
        c = chain(3)
        assert pcd_closure(c, (1,)).elements == frozenset({0, 1, 2})

    def test_seed_index_checked(self):
        l = boolean(2)
        with pytest.raises(MalformedInput, match="not an integer"):
            pcd_closure(l, ["a"])
        with pytest.raises(MalformedInput, match="out of range"):
            pcd_closure(l, [0, l.n])

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_closure_laws(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, 4)
        small = [x for x in range(l.n) if rng.random() < 0.3]
        big = small + [x for x in range(l.n) if rng.random() < 0.3]
        c_small = pcd_closure(l, small)
        c_big = pcd_closure(l, big)
        assert c_small.elements <= c_big.elements
        assert pcd_closure(l, c_small.elements).elements == c_small.elements
        assert c_small.is_sub_pcd()

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_closure_is_valid_sublattice(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, 4)
        seeds = [x for x in range(l.n) if rng.random() < 0.4]
        sub = sorted(pcd_closure(l, seeds).elements)
        leq = [[l.leq(a, b) for b in sub] for a in sub]
        sublat = PcdLattice([l.names[a] for a in sub], leq, name="sub")
        assert sublat.validate() == []
        # restricted operations stay inside and agree
        pos = {a: i for i, a in enumerate(sub)}
        for a in sub:
            assert sublat.pstar[pos[a]] == pos[l.pstar[a]]
            for b in sub:
                assert sublat.meet[pos[a]][pos[b]] == pos[l.meet[a][b]]
                assert sublat.join[pos[a]][pos[b]] == pos[l.join[a][b]]


class TestGenerators:
    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_downset_lattices_always_valid(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 5))
        assert l.validate() == []

    def test_chain_and_boolean_shapes(self):
        assert chain(4).n == 4
        assert boolean(3).n == 8
        assert downset_lattice(["p"], [[True]]).n == 2


class TestConstructionCap:
    """No lattice has more than 256 elements, the downsets of 8 points."""

    @staticmethod
    def antichain(k):
        return downset_lattice(list("abcdefghi"[:k]), [[i == j for j in range(k)] for i in range(k)])

    def test_largest_lattices_build(self):
        assert chain(256).n == 256
        assert self.antichain(8).validate() == []

    def test_chain_outside_1_to_256_refused(self):
        with pytest.raises(MalformedInput, match="between 1 and 256, got 257"):
            chain(257)
        with pytest.raises(MalformedInput, match="between 1 and 256, got 0"):
            chain(0)

    def test_order_matrix_of_257_refused(self):
        with pytest.raises(MalformedInput, match="capped at 256 elements, got 257"):
            PcdLattice([str(i) for i in range(257)], [[]])

    def test_9_point_poset_refused(self):
        with pytest.raises(MalformedInput, match="capped at 8 points, got 9"):
            self.antichain(9)


class TestExplain:
    """The one decide-then-explain helper and the one report-raise path."""

    def test_first_witness_of_the_scan(self):
        assert lattice._explain(iter([(1, 2), (3, 4)]), "x") == (1, 2)

    def test_exact_test_with_an_empty_scan_is_an_internal_fault(self):
        with pytest.raises(InvariantViolation, match="^x fails its row test, yet the scan"):
            lattice._explain(iter(()), "x")

    def test_inexact_test_with_an_empty_scan_gives_none(self):
        assert lattice._explain(iter(()), "x", exact=False) is None

    def test_passing_row_tests_never_start_their_scans(self, monkeypatch):
        def refuse(scan, what, exact=True):
            raise AssertionError(f"{what} was scanned")

        for module in (lattice, relation, framemap, compactify):
            monkeypatch.setattr(module, "_explain", refuse)
        l = boolean(3)  # fresh: built and validated under the patch
        assert l.validate() == []
        core = interpolative_core_on_basis(l, full_basis(l))
        assert check_strong_inclusion(core, full_basis(l)).ok
        assert validate_map(ContinuousMap.identity(l)) == []
        assert RoundIdeal(full_basis(l), range(l.n)).violations(core) == []

    def test_require_raises_the_first_entry(self):
        lattice._require([], PreconditionError, "what")
        with pytest.raises(PreconditionError, match="^what: first$"):
            lattice._require(["first", "second"], PreconditionError, "what")


def generation_lattices():
    """The distinct valid lattices on at most 16 elements among boolean(0..4),
    chain(1..8) and the downset lattices of generate(0..199, 0..4)."""
    out, seen = [], set()
    for l in [*(boolean(k) for k in range(5)), *(chain(k) for k in range(1, 9)),
              *(rio.generate(seed, k) for seed in range(200) for k in range(5))]:
        key = (l.names, tuple(l._up))
        if l.n <= 16 and l.is_valid and key not in seen:
            seen.add(key)
            out.append(l)
    return out


class TestGeneration:
    """A subset generates exactly when it holds every join-irreducible."""

    def test_join_irreducibles_match_reference(self):
        lattices = generation_lattices()
        assert max(l.n for l in lattices) == 16
        for l in lattices:
            j = oracles.reference_join_irreducibles(util.order_of(l)[1])
            assert l._irreducibles == sum(1 << x for x in j), l.name

    def test_is_basis_and_basis_gap_match_reference_on_every_subset(self):
        for l in generation_lattices():
            leq = util.order_of(l)[1]
            irreducibles = oracles.reference_join_irreducibles(leq)
            join = functools.cache(lambda items: oracles.reference_join(leq, items))
            for mask in range(1 << l.n):
                members = [x for x in range(l.n) if mask >> x & 1]
                b = Basis(l, members)
                generates = oracles.reference_joins_of_related(
                    leq, range(l.n), members, lambda x, a: leq[x][a], join)
                missing = [j for j in irreducibles if not mask >> j & 1]
                assert b.is_basis() == generates == (not missing), (l.name, members)
                # the gap reads a map's target and basis alone: no map is built
                gap = framemap._basis_gap(SimpleNamespace(target=l, basis=b))
                expected = (f"map basis does not generate {l.name}: "
                            f"it misses {l.names[missing[0]]}") if missing else None
                assert gap == expected, (l.name, members)


class TestBasis:
    def test_is_basis_requires_a_valid_lattice(self):
        l = pentagon()
        with pytest.raises(PreconditionError, match="invalid lattice: distributivity"):
            Basis(l, range(l.n)).is_basis()

    def test_is_sub_pcd_requires_a_valid_lattice(self):
        l = pentagon()
        with pytest.raises(PreconditionError, match="invalid lattice: distributivity"):
            Basis(l, range(l.n)).is_sub_pcd()

    def test_is_sub_pcd_matches_the_definition(self):
        # every subset of boolean(3), chain(4) and two downset lattices
        for l in [boolean(3), chain(4), util.downset_instance(3, 3), util.downset_instance(8, 3)]:
            assert l.n <= 10
            meet, join, pstar = l.meet, l.join, l.pstar
            for mask in range(1 << l.n):
                els = {x for x in range(l.n) if mask >> x & 1}
                closed = {l.bottom, l.top} <= els and all(
                    pstar[a] in els and meet[a][b] in els and join[a][b] in els
                    for a in els for b in els
                )
                assert Basis(l, els).is_sub_pcd() == closed, (l.name, sorted(els))

    def test_full_basis_is_basis(self):
        l = util.downset_instance(11, 4)
        assert full_basis(l).is_basis()

    def test_bounds_only_not_a_basis(self):
        l = boolean(2)
        assert not Basis(l, frozenset({l.bottom, l.top})).is_basis()

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInput):
            Basis(boolean(1), frozenset({9}))

    def test_non_integer_rejected(self):
        with pytest.raises(MalformedInput, match="not an integer"):
            Basis(boolean(2), {"a"})

    def test_mask_is_the_elements_mask(self):
        l = util.downset_instance(5, 4)
        bases = [Basis(l, [0, l.n - 1]), Basis(l, ()), Basis._derived(l, frozenset({1, 2})),
                 full_basis(l), pcd_closure(l, ()), pcd_closure(l, [1])]
        for b in bases:
            assert b.mask == sum(1 << x for x in b.elements)

    def test_mask_not_part_of_equality_hash_or_repr(self):
        l = boolean(2)
        built, derived = Basis(l, range(l.n)), Basis._derived(l, frozenset(range(l.n)))
        assert built == derived == full_basis(l) == pcd_closure(l, range(l.n))
        assert hash(built) == hash(derived) == hash((l, frozenset(range(l.n))))
        assert repr(built) == f"Basis(lattice={l!r}, elements={frozenset(range(l.n))!r})"
        # a mask that disagrees changes nothing the value compares
        object.__setattr__(derived, "mask", 0)
        assert derived == built and hash(derived) == hash(built)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_generating_pcd_sublattice_is_everything(self, seed):
        # join closure absorbs the joins that generation demands, so the
        # only pcd-sublattice that is also a basis is the full element set
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        for _ in range(6):
            carrier = pcd_closure(
                l, [x for x in range(l.n) if rng.random() < 0.4]
            )
            assert carrier.is_sub_pcd()
            if carrier.is_basis():
                assert carrier.elements == frozenset(range(l.n))

    def test_no_proper_subset_is_a_generating_pcd_sublattice(self):
        # every subset of every small lattice (at most 2^8 subsets each)
        for l in small_lattices():
            assert l.n <= 8
            whole = full_basis(l)
            assert whole.is_sub_pcd() and whole.is_basis()
            for mask in range((1 << l.n) - 1):
                b = Basis(l, frozenset(x for x in range(l.n) if mask >> x & 1))
                assert not (b.is_sub_pcd() and b.is_basis()), (l.name, sorted(b.elements))

    def test_join_predicate_matches_reference(self):
        # is_basis, is_regular and is_compatible against joins read off the
        # order matrix, on every subset of every small lattice; a subset's
        # members pass by their principal ideals, the rest are folded
        for l in small_lattices():
            leq = util.order_of(l)[1]
            wi = oracles.reference_well_inside_order(leq)
            rng = random.Random(l.n)
            for mask in range(1 << l.n):
                members = [x for x in range(l.n) if mask >> x & 1]
                b = Basis(l, members)
                assert b.is_basis() == oracles.reference_joins_of_related(
                    leq, range(l.n), members, lambda x, a: leq[x][a]), (l.name, members)
                assert is_regular(l, b) == oracles.reference_joins_of_related(
                    leq, members, members, lambda x, a: (x, a) in wi), (l.name, members)
                if not b.is_sub_pcd():
                    continue
                # the order, the strict order and seeded pair sets on the carrier
                relations = [{(x, a) for x in members for a in members if leq[x][a]},
                             {(x, a) for x in members for a in members if leq[x][a] and x != a}]
                relations += [{(x, a) for x in members for a in members if rng.random() < 0.5}
                              for _ in range(4)]
                for pairs in relations:
                    rel = Relation(l, pairs, members)
                    assert compactify.is_compatible(l, b, rel) == \
                        oracles.reference_joins_of_related(
                            leq, members, members, lambda x, a: (x, a) in pairs
                        ), (l.name, members, sorted(pairs))


class TestAgainstReference:
    """Tables and reports equal the set-based definitions in ``oracles``."""

    @given(st.sampled_from(util.ORDER_KINDS), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_tables_and_report_match_reference(self, kind, seed):
        assert_tables_match(*util.random_order(random.Random(seed), kind))


    @pytest.mark.parametrize("kind", util.ORDER_KINDS)
    def test_covers_and_transitivity_witness_match_reference(self, kind):
        for seed in range(150):
            names, leq = util.random_order(random.Random(seed), kind)
            # rows as truth values, and as 0/1 bytes
            for rows in (leq, [bytes(map(bool, row)) for row in leq]):
                lat = PcdLattice(names, rows)
                assert lat.covers() == oracles.reference_covers(leq)
                assert lat._intransitive == oracles.reference_transitivity_witness(leq)


def every_order(n, reflexive=False):
    """Every n x n truth matrix, or every reflexive one, with labels."""
    cells = [(i, j) for i in range(n) for j in range(n) if not (reflexive and i == j)]
    for bits in range(1 << len(cells)):
        leq = [[reflexive and i == j for j in range(n)] for i in range(n)]
        for t, (i, j) in enumerate(cells):
            leq[i][j] = bool(bits >> t & 1)
        yield [f"e{i}" for i in range(n)], leq


def assert_tables_match(names, leq):
    lat = PcdLattice(names, leq)
    ref = oracles.reference_tables(names, leq)
    assert (lat.bottom, lat.top) == (ref["bottom"], ref["top"])
    # rows by value: bytes in a complete table, lists with None otherwise
    assert ([list(r) for r in lat.meet], [list(r) for r in lat.join], lat.pstar) == (
        ref["meet"], ref["join"], ref["pstar"])
    assert lat.validate() == ref["report"]
    # a table is flagged complete exactly when it holds every bound
    assert lat._meets == all(None not in row for row in ref["meet"])
    assert lat._joins == all(None not in row for row in ref["join"])
    return lat


def assert_bounds_match(names, leq):
    """``meet``, ``join``, ``_meets`` and ``_joins`` are the matrix reading of
    ``oracles.reference_bound_tables``, and a complete table has ``bytes`` rows."""
    lat = PcdLattice(names, leq)
    meet, join, meets, joins = oracles.reference_bound_tables(leq)
    assert ([list(r) for r in lat.meet], [list(r) for r in lat.join]) == (meet, join)
    assert (lat._meets, lat._joins) == (meets, joins)
    for table, complete in ((lat.meet, meets), (lat.join, joins)):
        assert {type(row) for row in table} <= {bytes if complete else list}
    return lat


class TestBoundTables:
    """Meet and join tables built by subscript, or on a partial order from a
    cover's row, complete by construction."""

    def test_every_small_order_matches_reference(self):
        # every matrix on at most 3 elements and every reflexive one on 4,
        # each also with 2 for True against the matrix reading: a truthy
        # entry is a pair of the order, and no row is taken from the matrix
        orders = [order for n in range(4) for order in every_order(n)]
        orders += every_order(4, reflexive=True)
        assert len(orders) == 1 + 2 + 16 + 512 + 4096
        complete = 0
        for names, leq in orders:
            complete += assert_tables_match(names, leq)._meets
            assert_bounds_match(names, leq)
            assert_bounds_match(names, [[x and 2 for x in row] for row in leq])
        assert 0 < complete < len(orders)

    def test_relabelled_lattices_match_the_matrix_reading(self):
        # chains derive all but two rows of each table from a cover's row,
        # Boolean algebras none, downset lattices some; listed in a shuffled
        # order, a cover's index may lie above or below its own
        rng = random.Random(35)
        lattices = [chain(k) for k in range(1, 65)] + [boolean(k) for k in range(6)]
        lattices += [rio.generate(seed, size) for seed in range(50) for size in range(1, 7)]
        for lat in lattices:
            assert_bounds_match(*util.relabel(*util.order_of(lat), rng))

    def test_missing_meet_below_an_irreducible_rebuilds_the_table(self):
        # a, b < c < d: d is join-irreducible with lower cover c, not a
        # bottom, so its meet row would come from c's; a and b have no meet,
        # and the whole table is rebuilt with None entries and scanned
        names = ["d", "c", "b", "a"]
        above = {"a": "cd", "b": "cd", "c": "d"}
        leq = [[x == y or y in above.get(x, "") for y in names] for x in names]
        lat = assert_bounds_match(names, leq)
        assert lat._intransitive is None and lat._irreducibles == 1  # d alone
        assert (lat._meets, lat._joins) == (False, True)
        assert lat.meet[0] == [0, 1, 2, 3] and lat.meet[2][3] is None
        assert lat.validate() == ["no bottom element", "no greatest lower bound for (b, a)"]

    @pytest.mark.parametrize("above, meets, joins, missing", [
        # a and b below i, with no bottom: only a meet is missing
        ({"a": "i", "b": "i"}, False, True,
         ["no bottom element", "no greatest lower bound for (a, b)"]),
        # a and b above o, with no top: only a join is missing
        ({"o": "ab"}, True, False, ["no top element", "no least upper bound for (a, b)"]),
        # a and b share both cones, so neither is a key: no bound at all
        ({"a": "b", "b": "a"}, False, False,
         ["antisymmetry fails at (a, b)", "no bottom element", "no top element",
          "no greatest lower bound for (a, a)", "no least upper bound for (a, a)"]),
        # a <= b <= c but not a <= c: the common cones {b} are no element's
        ({"a": "b", "b": "c"}, False, False,
         ["transitivity fails at (a, b, c)", "no bottom element", "no top element",
          "no greatest lower bound for (a, c)", "no least upper bound for (a, b)"]),
    ], ids=["meet-only", "join-only", "shared-cone", "intransitive"])
    def test_named_incomplete_tables(self, above, meets, joins, missing):
        names = sorted(set(above).union(*above.values()))
        leq = [[x == y or y in above.get(x, "") for y in names] for x in names]
        lat = assert_tables_match(names, leq)
        assert (lat._meets, lat._joins) == (meets, joins)
        assert lat.validate() == missing

    def test_owner_dict_missing_a_cone_still_reports_the_bound(self, monkeypatch):
        # planted fault: the last element's cones lose their owner, so its
        # meet with itself (the whole down cone) and its joins are missing
        owners = lattice._owners

        def drop_last(cone):
            owner = owners(cone)
            del owner[cone[-1]]
            return owner

        monkeypatch.setattr(lattice, "_owners", drop_last)
        lat = chain(3)
        assert not lat._meets and not lat._joins
        assert lat.meet[2][2] is None
        assert lat.validate() == ["no greatest lower bound for (c2, c2)",
                                  "no least upper bound for (c0, c2)"]

    def test_complete_table_flag_without_none_is_an_internal_fault(self):
        with pytest.raises(InvariantViolation, match="^bound table completeness"):
            lattice._first_none([[0, 1], [1, 1]])


class TestPcdClosureIsLeast:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_least_closed_set(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        seeds = [x for x in range(l.n) if rng.random() < 0.25]
        assert pcd_closure(l, seeds).elements == oracles.brute_pcd_closure(l, seeds)


class TestDistributivity:
    """The join-prime test against the n^3 definition in ``oracles``."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_intersection_closed_families_match_reference(self, seed):
        names, leq = util.intersection_closed_order(random.Random(seed))
        assert PcdLattice(names, leq).validate() == oracles.reference_tables(names, leq)["report"]

    @pytest.mark.parametrize("names, above, expected", [
        # pentagon: 0 < a < 1, 0 < b < c < 1, listed out of order
        ("c1a0b", {"0": "abc1", "a": "1", "b": "c1", "c": "1"},
         ["distributivity fails at (c, a, b)"]),
        # diamond: 0 < p, q, r < 1, listed out of order
        ("qr10p", {"0": "pqr1", "p": "1", "q": "1", "r": "1"},
         ["distributivity fails at (q, r, p)",
          "pseudocomplement fails at q: y and y* do not meet at 0"]),
    ])
    def test_first_failure_named_on_relabelled_n5_and_m3(self, names, above, expected):
        leq = [[a == b or b in above.get(a, "") for b in names] for a in names]
        report = PcdLattice(list(names), leq).validate()
        assert report == expected
        assert report == oracles.reference_tables(list(names), leq)["report"]

    def test_small_families_and_products_match_reference(self):
        # intersection-closed families on at most 4 points (2 to 16 sets,
        # about one in six not distributive), and N5 x 2 and M3 x 2, whose
        # first failing triples lie below the top, each in a shuffled order
        rng = random.Random(12)
        orders = [family_order(rng) for _ in range(600)]
        for above in ({0: {1, 2, 3, 4}, 1: {4}, 2: {3, 4}, 3: {4}},
                      {0: {1, 2, 3, 4}, 1: {4}, 2: {4}, 3: {4}}):
            pairs = [(x, i) for x in range(5) for i in range(2)]
            names = [f"{x}{i}" for x, i in pairs]
            leq = [[(x == y or y in above.get(x, ())) and i <= j for y, j in pairs]
                   for x, i in pairs]
            orders += [util.relabel(names, leq, rng) for _ in range(20)]
        failing = 0
        for names, leq in orders:
            report = PcdLattice(names, leq).validate()
            assert report == oracles.reference_tables(names, leq)["report"]
            failing += any(line.startswith("distributivity") for line in report)
        assert failing >= 120


def assert_same_lattice(lat, leq):
    """``lat`` is, field by field, what the public constructor builds from its
    labels and the order matrix ``leq``."""
    ref = PcdLattice(lat.names, leq, name=lat.name)
    assert (lat.n, lat.names, lat.name) == (ref.n, ref.names, ref.name)
    cells = [(i, j) for i, row in enumerate(leq) for j, x in enumerate(row) if x]
    up, down = [0] * lat.n, [0] * lat.n
    for i, j in cells:
        up[i] |= 1 << j
        down[j] |= 1 << i
    assert (lat._up, lat._down) == (ref._up, ref._down) == (up, down)
    assert (lat.bottom, lat.top) == (ref.bottom, ref.top)
    assert (lat.meet, lat._meets) == (ref.meet, ref._meets)
    assert (lat.join, lat._joins) == (ref.join, ref._joins)
    assert (lat.pstar, lat._intransitive) == (ref.pstar, ref._intransitive)
    assert lat.validate() == ref.validate()
    assert lat == ref and hash(lat) == hash(ref)


def inclusion(sets):
    """The order matrix of a list of sets under inclusion."""
    return [[a <= b for b in sets] for a in sets]


def downset_points(lat):
    """The points of each downset, read off its label ``{p,q}``."""
    return [frozenset(x[1:-1].split(",")) - {""} for x in lat.names]


def document_order(doc):
    """Labels and ``le`` pairs of a lattice-mode document, as indices."""
    lines = [line.split() for line in doc.splitlines() if line.strip()]
    labels = next(line[1:] for line in lines if line[0] == "elements")
    index = {x: i for i, x in enumerate(labels)}
    return labels, [(index[a], index[b]) for _, a, b in
                    (line for line in lines if line[0] == "le")]


class TestConeConstructor:
    """Every producer hands ``PcdLattice._from_cones`` the up cones of the
    order that the public constructor builds from its matrix."""

    def test_chains(self):
        for k in [*range(1, 65), 256]:
            assert_same_lattice(chain(k), [[i <= j for j in range(k)] for i in range(k)])

    def test_boolean_algebras(self):
        for k in range(9):
            lat = boolean(k)
            assert_same_lattice(lat, inclusion(downset_points(lat)))

    def test_generated_downset_lattices(self):
        for seed in range(200):
            for size in range(9):
                lat = rio.generate(seed, size)
                assert_same_lattice(lat, inclusion(downset_points(lat)))

    def test_lattice_mode_documents(self):
        # valid and invalid: cycles, missing bounds, failing axioms
        orders = [document_order(doc) for doc in (
            N5_DOC, FORMATS["lattice"][2],
            "lattice square lattice\nelements 0 a b 1\nle 0 a\nle 0 b\nle a 1\nle b 1\n",
            rio.serialize_lattice(chain(64)), rio.serialize_lattice(chain(256)))]
        orders += [random_document(random.Random(seed), "lattice") for seed in range(300)]
        for labels, pairs in orders:
            k = len(labels)
            leq = oracles.reference_closure(k, pairs)
            built = PcdLattice._from_cones(labels, rio._reflexive_transitive_closure(k, pairs), "t")
            assert_same_lattice(built, leq)
            doc = "\n".join(["lattice t lattice", "elements " + " ".join(labels)] +
                            [f"le {labels[a]} {labels[b]}" for a, b in pairs])
            try:
                parsed = rio.parse_lattice(doc)
            except ValidationFailure as exc:
                assert exc.report == built.validate() != []
            else:
                assert_same_lattice(parsed, leq)

    def test_round_ideal_frames(self):
        sources = [boolean(k) for k in range(1, 7)]
        sources += [rio.generate(seed, size) for seed in range(40) for size in range(1, 6)]
        for lat in sources:
            b = full_basis(lat)
            frames = [enumerate_round_ideals(b, least_strong_inclusion(b, Relation(lat, ()))),
                      enumerate_round_ideals(b, interpolative_core_on_basis(lat, b))]
            if is_strongly_regular_basis(lat, b):
                comp, _ = compactify_extending(lat, b, [])
                frames += [comp.frame, from_compactification(comp).frame]
            for fr in frames:
                assert_same_lattice(fr.lattice, inclusion([i.members for i in fr.ideals]))
