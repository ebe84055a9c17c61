import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from roundideal import compactify, framemap
from roundideal.compactify import (
    Compactification,
    Ordering,
    RoundIdeal,
    check_compact_regular,
    compare,
    strong_downset,
    enumerate_round_ideals,
    explicit_strong_inclusion,
    extension_map,
    from_compactification,
    compactify_extending,
    is_compatible,
    interpolated_subcover,
    strong_inclusion_from_maps,
    join_map,
)
from roundideal.errors import MalformedInput, PreconditionError
from roundideal.framemap import (
    ContinuousMap,
    compose,
    extend,
    finer_than,
    is_dense,
    is_embedding,
    maps_equal,
    validate_map,
)
from roundideal.lattice import (
    Basis,
    PcdLattice,
    boolean,
    chain,
    downset_lattice,
    full_basis,
    pcd_closure,
    well_inside,
)
from roundideal.relation import (
    Relation,
    least_strong_inclusion,
)


def trivial_si(lat, p):
    return least_strong_inclusion(p, Relation(lat, (), p.elements))


def order_si(lat):
    # on a Boolean algebra the order is the largest strong inclusion
    p = full_basis(lat)
    return least_strong_inclusion(p, Relation(lat, well_inside(lat).pairs))


def identity_compactification(lat):
    return Compactification(map=ContinuousMap.identity(lat))


class TestDownArrow:
    def test_trivial_inclusion_below_non_top(self):
        l = boolean(2)
        p = full_basis(l)
        si = trivial_si(l, p)
        a = util.atoms(l)[0]
        assert strong_downset(p, si, a).members == {l.bottom}

    def test_trivial_inclusion_below_top(self):
        l = boolean(2)
        p = full_basis(l)
        si = trivial_si(l, p)
        assert strong_downset(p, si, l.top).members == frozenset(range(l.n))

    def test_order_inclusion_gives_principal_downsets(self):
        l = boolean(2)
        p = full_basis(l)
        si = order_si(l)
        a = util.atoms(l)[0]
        assert strong_downset(p, si, a).members == {l.bottom, a}

    def test_requires_strong_inclusion(self):
        c = chain(3)
        bad = Relation(c, {(1, 1)})
        with pytest.raises(PreconditionError):
            strong_downset(full_basis(c), bad, 1)


class TestEnumerateRoundIdeals:
    def test_boolean_order_gives_all_principal_downsets(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        assert fr.lattice.n == 4
        got = {ideal.members for ideal in fr.ideals}
        assert got == {frozenset(l.down_list(t)) for t in range(l.n)}

    def test_trivial_inclusion_gives_two_chain(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), trivial_si(l, full_basis(l)))
        assert fr.lattice.n == 2
        assert {i.members for i in fr.ideals} == {
            frozenset({l.bottom}),
            frozenset(range(l.n)),
        }

    def test_degenerate_lattice_one_ideal(self):
        l = boolean(0)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        assert fr.lattice.n == 1

    def test_carrier_cap(self):
        # the one element cap is the lattice's own: any carrier enumerates
        l = boolean(5)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        assert fr.lattice.n == 32
        with pytest.raises(MalformedInput, match="between 0 and 8, got 9"):
            boolean(9)

    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        fr = enumerate_round_ideals(p, si)
        got = {ideal.members for ideal in fr.ideals}
        assert got == oracles.exhaustive_round_ideals(p, si)

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_violations_match_set_definitions(self, seed):
        # random member sets (principal, below an element, or arbitrary) on
        # pcd-closed carriers and on arbitrary element sets
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        carrier = p
        if rng.random() < 0.3:
            carrier = Basis(l, [x for x in range(l.n) if rng.random() < 0.6])
        t = rng.randrange(l.n)
        members = rng.choice([
            [x for x in carrier.elements if l.leq(x, t)],
            [x for x in range(l.n) if l.leq(x, t) and rng.random() < 0.5],
            [x for x in carrier.elements if rng.random() < 0.5],
        ])
        got = RoundIdeal(carrier, frozenset(members)).violations(si)
        assert got == oracles.reference_round_ideal_violations(
            l, carrier.elements, members, si.pairs
        )

    def test_violations_need_a_valid_lattice(self):
        # the pentagon is a lattice but not distributive
        names = ["0", "a", "b", "c", "1"]
        above = {0: {1, 2, 3, 4}, 1: {4}, 2: {3, 4}, 3: {4}}
        l = PcdLattice(names, [[i == j or j in above.get(i, ()) for j in range(5)]
                               for i in range(5)])
        si = Relation(l, ())
        with pytest.raises(PreconditionError, match="invalid lattice"):
            RoundIdeal(full_basis(l), frozenset({0})).violations(si)

    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_principal_characterization(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        fr = enumerate_round_ideals(p, si)
        principal = {
            frozenset(b for b in p.elements if l.leq(b, t))
            for t in p.elements
            if (t, t) in si.pairs
        }
        assert {ideal.members for ideal in fr.ideals} == principal

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_tables_match_set_semantics(self, seed):
        # order is inclusion, meet intersection, join the carrier elements
        # under the join of the union; joins and the order come from the
        # reference tables
        rng = random.Random(seed)
        if rng.random() < 0.4:
            l = boolean(rng.randint(0, 4))
        else:
            l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        fr = enumerate_round_ideals(p, si)
        tables = oracles.reference_tables(*util.order_of(l))
        meet, join = tables["meet"], tables["join"]
        ideals = [ideal.members for ideal in fr.ideals]
        assert ideals == sorted(ideals, key=sorted)
        frame = fr.lattice
        for i, a in enumerate(ideals):
            for j, b in enumerate(ideals):
                assert frame.leq(i, j) == (a <= b)
                assert ideals[frame.meet[i][j]] == a & b
                top = tables["bottom"]
                for x in sorted(a | b):
                    top = join[top][x]
                assert ideals[frame.join[i][j]] == {x for x in p.elements if meet[x][top] == x}
        assert set(fr.down_index) == p.elements
        for a in p.elements:
            assert ideals[fr.down(a)] == {x for x in p.elements if (x, a) in si.pairs}
        assert fr.ideal_basis.elements == set(fr.down_index.values())


class TestCheckCompactRegular:
    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_every_frame_compact_regular(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        fr = enumerate_round_ideals(p, si)
        report = check_compact_regular(fr)
        assert report.ok, report.problems
        assert fr.lattice.join_all(report.subcover) == fr.lattice.top


class TestCompatibility:
    def test_order_on_boolean_compatible(self):
        l = boolean(2)
        assert is_compatible(l, full_basis(l), order_si(l))

    def test_trivial_on_two_chain_compatible(self):
        c = chain(2)
        p = full_basis(c)
        assert is_compatible(c, p, trivial_si(c, p))

    def test_trivial_on_boolean_square_incompatible(self):
        l = boolean(2)
        p = full_basis(l)
        assert not is_compatible(l, p, trivial_si(l, p))


class TestMu:
    def test_compatible_gives_embedding(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        m = join_map(l, fr)
        assert is_dense(m)
        assert is_embedding(m)

    def test_incompatible_not_embedding(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), trivial_si(l, full_basis(l)))
        m = join_map(l, fr)
        assert is_dense(m)
        assert not is_embedding(m)

    def test_degenerate_embedding(self):
        l = boolean(0)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        assert is_embedding(join_map(l, fr))

    @given(st.integers(0, 3000))
    @settings(max_examples=20, deadline=None)
    def test_mu_always_dense_and_continuous(self, seed):
        rng = random.Random(seed)
        l = util.downset_instance(seed, rng.randint(0, 4))
        p = util.random_carrier(l, rng)
        si = util.random_strong_inclusion(l, p, rng)
        fr = enumerate_round_ideals(p, si)
        m = join_map(l, fr)
        assert validate_map(m) == []
        assert is_dense(m)
        assert is_embedding(m) == (is_compatible(l, p, si) and p.is_basis())


class TestExtensionMap:
    def test_extending_mu_gives_identity(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        m = join_map(l, fr)
        g = extension_map(fr, m)
        assert maps_equal(g, ContinuousMap.identity(fr.lattice))

    def test_terminal_map_extends(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        tgt = chain(2)
        f = ContinuousMap(l, tgt, full_basis(tgt), {0: l.bottom, 1: l.top})
        g = extension_map(fr, f)
        assert maps_equal(compose(g, join_map(l, fr)), f)

    def test_identity_extension_is_join_isomorphism(self):
        l = boolean(3)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        g = extension_map(fr, ContinuousMap.identity(l))
        # the witness sends each basic ideal to the join of its members
        for a in range(l.n):
            idx = fr.down(a)
            members = fr.ideals[idx].members
            assert extend(g, a) == idx or True  # direction: g goes frame -> l
        for idx in sorted(fr.ideal_basis.elements):
            joined = l.join_all(sorted(fr.ideals[idx].members))
            assert g.assignment[joined] == idx

    def test_outside_class_rejected(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), trivial_si(l, full_basis(l)))
        with pytest.raises(PreconditionError, match="outside the extension class"):
            extension_map(fr, ContinuousMap.identity(l))

    def test_uniqueness_probe(self):
        rng = random.Random(11)
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        tgt = boolean(1)
        f = util.atom_map(l, tgt, [0, 0])
        g = extension_map(fr, f)
        m = join_map(l, fr)
        assert maps_equal(compose(g, m), f)
        for a in sorted(g.basis.elements):
            for other in range(fr.lattice.n):
                if other == g.assignment[a]:
                    continue
                perturbed = dict(g.assignment)
                perturbed[a] = other
                alt = ContinuousMap(fr.lattice, tgt, g.basis, perturbed)
                broken = validate_map(alt)
                assert broken or not maps_equal(compose(alt, m), f)

    @pytest.mark.parametrize("own", [{0, 3}, {0, 1, 3}, {0, 1, 2, 3}],
                             ids=["narrow", "wider", "whole-lattice"])
    def test_relation_carrier_wider_than_the_frame_carrier(self, own):
        # the frame holds its strong inclusion on p, so the extension checks
        # it on p whatever carrier the relation was built with
        l = boolean(2)
        p = pcd_closure(l, ())
        assert p.elements == {0, 3}
        fr = enumerate_round_ideals(p, Relation(l, trivial_si(l, p), own))
        assert fr.si.carrier == p.elements
        assert fr is enumerate_round_ideals(p, trivial_si(l, p))
        assert extension_map(fr, util.atom_map(l, boolean(1), [0, 0])).ext == (0, 1)

    def test_every_atom_map_extends_as_the_paper_defines(self):
        """Each a goes to the round ideal of carrier elements below f(b) for
        some b well-inside a: every atom map boolean(k) -> boolean(j), k and
        j at most 4, through the canonical frame and through the frame of
        the map's own strong inclusion, often on a carrier smaller than L."""
        maps = narrow = 0
        for k, j in itertools.product(range(5), repeat=2):
            l, tgt = boolean(k), boolean(j)
            canonical = compactify_extending(l, full_basis(l), [])[0].frame
            for phi in itertools.product(range(j), repeat=k):
                f = util.atom_map(l, tgt, list(phi))
                p, si = strong_inclusion_from_maps(l, (), [f])
                for fr in (canonical, enumerate_round_ideals(p, si)):
                    g = extension_map(fr, f)
                    expected = oracles.reference_extension(f, fr.p.elements)
                    assert [fr.ideals[i].members for i in g.ext] == expected
                maps += 1
                narrow += p.elements != frozenset(range(l.n))
        assert (maps, narrow) == (499, 410)

    def test_every_map_the_library_builds_is_the_fold(self):
        """The join map, each extension, the reconstruction witness and both
        mediating maps hold the fold of their assignment, computed apart from
        ``framemap``: over every atom map boolean(k) -> boolean(j), k and j at
        most 4, its extensions through the canonical frame and through the
        frame of its own strong inclusion, and a comparison of the canonical
        compactification with the identity."""
        tables = {}

        def fold(g):
            if g.source not in tables:
                tables[g.source] = oracles.reference_tables(*util.order_of(g.source))
            return oracles.reference_fold(g, tables[g.source])

        maps = 0
        for k, j in itertools.product(range(5), repeat=2):
            l, tgt = boolean(k), boolean(j)
            identity = Compactification(map=ContinuousMap.identity(l))
            for phi in itertools.product(range(j), repeat=k):
                f = util.atom_map(l, tgt, list(phi))
                comp, (g,) = compactify_extending(l, full_basis(l), [f])
                own_frame = enumerate_round_ideals(*strong_inclusion_from_maps(l, (), [f]))
                own = extension_map(own_frame, f)
                result = compare(comp, identity)
                built = (comp.map, g, own, from_compactification(comp).iso,
                         result.le_witness, result.ge_witness)
                assert [h.ext for h in built] == [fold(h) for h in built]
                maps += 1
        assert maps == 499


class TestLhdFromMaps:
    def test_empty_family_gives_bounds_and_trivial(self):
        l = boolean(2)
        p, si = strong_inclusion_from_maps(l, (), [])
        assert p.elements == {l.bottom, l.top}
        assert si.pairs == {
            (x, y)
            for x in p.elements
            for y in p.elements
            if x == l.bottom or y == l.top
        }

    def test_identity_gives_full_carrier_and_order(self):
        l = boolean(2)
        p, si = strong_inclusion_from_maps(l, (), [ContinuousMap.identity(l)])
        assert p.elements == frozenset(range(l.n))
        assert si.pairs == well_inside(l).pairs

    def test_seed_elements_enter_carrier(self):
        c = chain(3)
        p, si = strong_inclusion_from_maps(c, (1,), [])
        assert p.elements == frozenset({0, 1, 2})
        assert si.pairs == {
            (x, y) for x in range(3) for y in range(3) if x == 0 or y == 2
        }

    def test_non_regular_target_rejected(self):
        c = chain(3)
        with pytest.raises(PreconditionError, match="not regular"):
            strong_inclusion_from_maps(c, (), [ContinuousMap.identity(c)])


class TestGammaCompactification:
    def test_boolean_no_maps_isomorphic_to_source(self):
        l = boolean(2)
        comp, exts = compactify_extending(l, full_basis(l), [])
        assert exts == []
        assert comp.frame.lattice.n == l.n
        assert is_dense(comp.map) and is_embedding(comp.map)

    def test_degenerate_source(self):
        l = boolean(0)
        comp, _ = compactify_extending(l, full_basis(l), [])
        assert comp.frame.lattice.n == 1

    def test_projections_factor_exactly(self):
        l = boolean(3)
        t1, t2 = boolean(2), boolean(2)
        f1 = util.atom_map(l, t1, [0, 1, 1])
        f2 = util.atom_map(l, t2, [0, 0, 1])
        comp, (g1, g2) = compactify_extending(l, full_basis(l), [f1, f2])
        assert maps_equal(compose(g1, comp.map), f1)
        assert maps_equal(compose(g2, comp.map), f2)

    def test_atom_basis_works(self):
        l = boolean(2)
        b = Basis(l, frozenset(util.atoms(l)))
        comp, _ = compactify_extending(l, b, [])
        assert is_embedding(comp.map)

    def test_requires_strongly_regular_basis(self):
        c = chain(3)
        with pytest.raises(PreconditionError, match="strongly regular"):
            compactify_extending(c, full_basis(c), [])

    @pytest.mark.parametrize("l, message", [
        (chain(3), "c1 is not complemented (c1 v c1* is c1, not the top)"),
        # a <= c, b: {a}* is {b}, and {a} v {b} is {a,b}
        (downset_lattice("abc", [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
         "{a} is not complemented ({a} v {a}* is {a,b}, not the top)"),
    ])
    def test_names_the_lowest_uncomplemented_element(self, l, message):
        # the bottom is the empty join, so the other elements are a basis too
        for b in (full_basis(l), Basis(l, range(1, l.n))):
            with pytest.raises(PreconditionError) as caught:
                compactify_extending(l, b, [])
            assert str(caught.value) == "basis is not strongly regular: " + message


class TestExplicitDescription:
    def test_identity_on_boolean_gives_order(self):
        l = boolean(2)
        p = pcd_closure(l, range(l.n))
        rel = explicit_strong_inclusion(p, ContinuousMap.identity(l))
        assert rel.pairs == {
            (y, x) for y in range(l.n) for x in range(l.n) if l.leq(y, x)
        }

    def test_degenerate_source_full_relation(self):
        src = boolean(0)
        tgt = chain(2)
        f = ContinuousMap(src, tgt, full_basis(tgt), {0: 0, 1: 0})
        p = pcd_closure(src, (0,))
        rel = explicit_strong_inclusion(p, f)
        assert rel.pairs == {(0, 0)}

    def test_star_preservation_required(self):
        # maps between Boolean algebras always preserve stars (complements
        # are unique), so the failing instance needs a chain codomain
        src, tgt = boolean(2), chain(3)
        atom = util.atoms(src)[0]
        f = ContinuousMap(
            src, tgt, full_basis(tgt), {0: src.bottom, 1: atom, 2: src.top}
        )
        assert validate_map(f) == []
        assert extend(f, tgt.pstar[1]) != src.pstar[extend(f, 1)]
        p = pcd_closure(src, range(src.n))
        with pytest.raises(PreconditionError, match="pseudocomplement"):
            explicit_strong_inclusion(p, f)

    @pytest.mark.parametrize("lat", [boolean(3), chain(4)], ids=["larger", "same-size"])
    def test_carrier_on_another_lattice_is_malformed(self, lat):
        # one message whether or not the carrier's indices fit the source
        with pytest.raises(MalformedInput) as caught:
            explicit_strong_inclusion(full_basis(lat), ContinuousMap.identity(boolean(2)))
        assert str(caught.value) == "carrier and map source live on different lattices"

    @given(st.integers(0, 3000))
    @settings(max_examples=20, deadline=None)
    def test_matches_generated_inclusion_on_dense_embeddings(self, seed):
        rng = random.Random(seed)
        k = rng.randint(0, 3)
        src = boolean(k)
        tgt = util.relabelled_boolean(k, rng)
        phi = util.random_phi(rng, k, max(k, 1), injective=True) if k else []
        f = util.atom_map(src, tgt, phi)
        p = pcd_closure(src, {extend(f, b) for b in range(tgt.n)})
        rel = explicit_strong_inclusion(p, f)
        wi = well_inside(tgt).pairs
        seed_rel = Relation(
            src,
            {(extend(f, b), extend(f, a)) for b, a in wi},
            carrier=p.elements,
        )
        assert rel == least_strong_inclusion(p, seed_rel)


class TestFromCompactification:
    def test_identity_compactification_roundtrip(self):
        l = boolean(3)
        rec = from_compactification(identity_compactification(l))
        assert rec.frame.lattice.n == l.n
        assert rec.p.elements == frozenset(range(l.n))
        images = [extend(rec.iso, m) for m in range(l.n)]
        assert sorted(images) == list(range(rec.frame.lattice.n))

    def test_degenerate(self):
        l = boolean(0)
        rec = from_compactification(identity_compactification(l))
        assert rec.frame.lattice.n == 1

    def test_canonical_roundtrip(self):
        l = boolean(2)
        comp, _ = compactify_extending(l, full_basis(l), [])
        rec = from_compactification(comp)
        assert rec.frame.lattice.n == comp.frame.lattice.n

    def test_rejects_non_compactifications(self):
        src, tgt = boolean(3), boolean(2)
        f = util.atom_map(src, tgt, [0, 1, 1])  # dense but not an embedding
        with pytest.raises(PreconditionError):
            from_compactification(Compactification(map=f))


class TestCompare:
    def test_reflexive(self):
        l = boolean(2)
        comp, _ = compactify_extending(l, full_basis(l), [])
        result = compare(comp, comp)
        assert result.verdict is Ordering.ISO
        assert maps_equal(result.le_witness, ContinuousMap.identity(comp.codomain))

    def test_nested_families_ordered(self):
        l = boolean(2)
        f = util.atom_map(l, boolean(1), [0, 0])
        k1, _ = compactify_extending(l, full_basis(l), [])
        k2, _ = compactify_extending(l, full_basis(l), [f])
        result = compare(k1, k2)
        assert result.verdict in (Ordering.LE, Ordering.ISO)
        h = result.le_witness
        assert maps_equal(compose(h, k2.map), k1.map)

    def test_two_compactifications_of_boolean_isomorphic(self):
        l = boolean(2)
        k1, _ = compactify_extending(l, full_basis(l), [])
        k2 = identity_compactification(l)
        result = compare(k1, k2)
        assert result.verdict is Ordering.ISO

    def test_relabelled_codomain_compares_isomorphic(self):
        rng = random.Random(17)
        l = boolean(2)
        tgt = util.relabelled_boolean(2, rng)
        f = util.atom_map(l, tgt, [0, 1])
        assert is_dense(f) and is_embedding(f)
        k1 = Compactification(map=f)
        k2, _ = compactify_extending(l, full_basis(l), [])
        result = compare(k1, k2)
        assert result.verdict is Ordering.ISO
        assert maps_equal(compose(result.le_witness, k2.map), k1.map)

    def test_transitive_on_nested_families(self):
        l = boolean(2)
        f1 = util.atom_map(l, boolean(1), [0, 0])
        f2 = util.atom_map(l, boolean(2), [0, 1])
        k1, _ = compactify_extending(l, full_basis(l), [])
        k2, _ = compactify_extending(l, full_basis(l), [f1])
        k3, _ = compactify_extending(l, full_basis(l), [f1, f2])
        r12 = compare(k1, k2)
        r23 = compare(k2, k3)
        r13 = compare(k1, k3)
        assert r12.verdict in (Ordering.LE, Ordering.ISO)
        assert r23.verdict in (Ordering.LE, Ordering.ISO)
        assert r13.verdict in (Ordering.LE, Ordering.ISO)

    @pytest.mark.parametrize("atoms", range(4))
    def test_witnesses_are_the_extensions_after_the_inverse_isomorphism(self, atoms):
        # the reference inverts the reconstruction isomorphism as a map over
        # the full basis of the frame and composes the extension with it
        rng = random.Random(atoms)
        l = boolean(atoms)
        comps = [compactify_extending(l, full_basis(l), [])[0], identity_compactification(l)]
        for j in (1, 2):
            f = util.atom_map(l, boolean(j), util.random_phi(rng, atoms, j))
            comps.append(compactify_extending(l, full_basis(l), [f])[0])

        def reference(ka, kb):
            rec = from_compactification(kb)
            frame = rec.frame.lattice
            inverse = ContinuousMap(kb.codomain, frame, full_basis(frame),
                                    {v: m for m, v in enumerate(rec.iso.ext)})
            try:
                return compose(extension_map(rec.frame, ka.map), inverse)
            except PreconditionError:  # kb's strong inclusion cannot factor ka
                return None

        for k1 in comps:
            for k2 in comps:
                result = compare(k1, k2)
                for got, want in ((result.le_witness, reference(k1, k2)),
                                  (result.ge_witness, reference(k2, k1))):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.ext == want.ext
                        assert got.assignment == want.assignment
                        assert got.basis == want.basis

    def test_source_mismatch(self):
        k1 = identity_compactification(boolean(1))
        k2 = identity_compactification(boolean(2))
        with pytest.raises(MalformedInput):
            compare(k1, k2)


class TestCheckedOnce:
    def test_compare_checks_each_map_once(self, monkeypatch):
        checked = []
        real = framemap._continuity_report

        def counting(f):
            checked.append(f)
            return real(f)

        monkeypatch.setattr(framemap, "_continuity_report", counting)
        l = boolean(3)
        k, _ = compactify_extending(l, full_basis(l), [util.atom_map(l, boolean(2), [0, 1, 1])])
        assert compare(k, k).verdict is Ordering.ISO
        assert checked
        # the list keeps every checked map alive, so ids cannot be reused
        assert len({id(f) for f in checked}) == len(checked)

    def test_warm_compare_decides_each_extension_class_once(self, monkeypatch):
        # each mediating map reuses its own verdict instead of going back
        # through extension_map's checks
        decided = []
        real = compactify._finer

        def counting(si, f):
            decided.append(f)
            return real(si, f)

        monkeypatch.setattr(compactify, "_finer", counting)
        l = boolean(3)
        k, _ = compactify_extending(l, full_basis(l), [util.atom_map(l, boolean(2), [0, 1, 1])])
        compare(k, k)
        decided.clear()
        assert compare(k, k).verdict is Ordering.ISO
        assert len(decided) == 2

    def test_reconstruction_memoised_for_default_basis(self, monkeypatch):
        built = []
        real = compactify._reconstruct

        def counting(k):
            built.append(k)
            return real(k)

        monkeypatch.setattr(compactify, "_reconstruct", counting)
        l = boolean(2)
        k, _ = compactify_extending(l, full_basis(l), [])
        first = from_compactification(k)
        assert from_compactification(k) is first
        assert len(built) == 1

    def test_join_map_built_once_per_frame(self):
        l = boolean(2)
        fr = enumerate_round_ideals(full_basis(l), order_si(l))
        assert join_map(l, fr) is join_map(l, fr)

    def test_caches_not_part_of_equality_or_repr(self):
        l = boolean(2)
        k1 = identity_compactification(l)
        k2 = identity_compactification(l)
        fresh = repr(k1)
        assert k1.violations() == []
        from_compactification(k1)
        assert k1 == k2 and hash(k1) == hash(k2)
        assert repr(k1) == repr(k2) == fresh

    def test_violations_list_is_fresh(self):
        src, tgt = boolean(3), boolean(2)
        k = Compactification(map=util.atom_map(src, tgt, [0, 1, 1]))
        out = k.violations()
        assert out == ["map is not an embedding"]
        out.clear()
        assert k.violations() == ["map is not an embedding"]


def _bottom_and_top(l):
    a, b = util.atoms(l)
    return ContinuousMap(l, l, full_basis(l), {l.bottom: l.bottom, a: l.bottom,
                                               b: l.top, l.top: l.top})


@pytest.mark.parametrize("build, lines", [
    (lambda: Compactification(ContinuousMap(boolean(1), boolean(1), full_basis(boolean(1)),
                                            {0: 1, 1: 0})),
     ["meets: images of ({}, {a}) meet at {} but common refinements join to {a}",
      "cover refinement: assignment not monotone at ({}, {a})"]),
    (lambda: Compactification(_bottom_and_top(boolean(2))),
     ["map is not dense", "map is not an embedding"]),
    (lambda: Compactification(ContinuousMap(boolean(1), chain(3), full_basis(chain(3)),
                                            {0: 0, 1: 1, 2: 1})),
     ["codomain is not regular"]),
    (lambda: Compactification(ContinuousMap.identity(boolean(2)),
                              enumerate_round_ideals(full_basis(boolean(1)),
                                                     order_si(boolean(1)))),
     ["frame does not match the codomain"]),
], ids=["not-continuous", "not-dense-nor-embedding", "codomain-not-regular",
        "frame-of-another-codomain"])
def test_violations_name_each_failure(build, lines):
    assert build().violations() == lines


class TestInterpolatedSubcover:
    def test_boolean_cover(self):
        l = boolean(3)
        p = full_basis(l)
        a1, a2, a3 = util.atoms(l)
        parts = [a1, a2, a3]
        b = l.join[a1][a2]
        w = interpolated_subcover(l, p, b, parts)
        assert w is not None
        assert l.leq(b, l.join_all(w.lower))
        wi = well_inside(l).pairs
        assert (l.join_all(w.lower), l.join_all(w.middle)) in wi
        assert (l.join_all(w.middle), l.join_all(parts)) in wi
        for q, m, u in zip(w.lower, w.middle, w.upper):
            assert (q, m) in wi and (m, u) in wi and u in parts

    def test_bottom_edge(self):
        l = boolean(2)
        p = full_basis(l)
        assert interpolated_subcover(l, p, l.bottom, [l.bottom]) is None

    def test_not_well_inside_rejected(self):
        c = chain(3)
        with pytest.raises(PreconditionError):
            interpolated_subcover(c, full_basis(c), 1, [1])

    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_random_boolean_covers(self, seed):
        rng = random.Random(seed)
        l = boolean(rng.randint(1, 4))
        p = full_basis(l)
        parts = sorted({rng.randrange(l.n) for _ in range(rng.randint(1, 4))})
        total = l.join_all(parts)
        below = [x for x in range(l.n) if l.leq(x, total)]
        b = rng.choice(below)
        w = interpolated_subcover(l, p, b, parts)
        if w is None:
            assert b == l.bottom
            return
        wi = well_inside(l).pairs
        assert l.leq(b, l.join_all(w.lower))
        assert (l.join_all(w.lower), l.join_all(w.middle)) in wi
        assert (l.join_all(w.middle), total) in wi
        for q, m, u in zip(w.lower, w.middle, w.upper):
            assert (q, m) in wi and (m, u) in wi and u in parts


def _frame(l):
    return enumerate_round_ideals(full_basis(l), order_si(l))


def _identity(l):
    return ContinuousMap.identity(l)


def _into_chain3(l, middle):
    """The map from ``l`` into the non-regular chain c0 < c1 < c2 with c1 -> ``middle``."""
    c = chain(3)
    return ContinuousMap(l, c, full_basis(c), {0: l.bottom, 1: middle, 2: l.top})


def _vee():
    """Downsets of z <= x, z <= y: 0 < {z} < {x,z}, {y,z} < 1, not regular."""
    return downset_lattice("zxy", [[1, 1, 1], [0, 1, 0], [0, 0, 1]], name="vee")


@pytest.mark.parametrize("call, error, message", [
    (lambda l: strong_downset(pcd_closure(l, ()), trivial_si(l, pcd_closure(l, ())), 1),
     MalformedInput, "element outside the carrier"),
    (lambda l: join_map(boolean(1), _frame(l)),
     MalformedInput, "frame was not built over this lattice"),
    (lambda l: extension_map(_frame(l), _identity(boolean(1))),
     MalformedInput, "frame and map sources do not match"),
    (lambda l: strong_inclusion_from_maps(l, (), [_identity(boolean(1))]),
     MalformedInput, "map source does not match the lattice"),
    (lambda l: compactify_extending(l, full_basis(l), [_identity(boolean(1))]),
     MalformedInput, "map source does not match the lattice"),
    (lambda l: compactify_extending(l, Basis(boolean(1), [0]), []),
     MalformedInput, "^basis belongs to another lattice$"),
    (lambda l: compactify_extending(l, full_basis(PcdLattice("ab", [[1, 0], [0, 1]])), []),
     MalformedInput, "^basis belongs to another lattice$"),
    (lambda l: compactify_extending(l, full_basis(l), [_into_chain3(l, l.bottom)]),
     PreconditionError, "map codomain is not regular"),
    (lambda l: explicit_strong_inclusion(full_basis(l), _into_chain3(l, l.top)),
     PreconditionError, "codomain is not regular"),
    (lambda l: explicit_strong_inclusion(pcd_closure(l, ()), _identity(l)),
     PreconditionError, "carrier does not contain the basis preimages"),
    (lambda l: interpolated_subcover(l, pcd_closure(l, ()), l.bottom, [1]),
     PreconditionError, "cover parts must lie in the carrier"),
    (lambda l: interpolated_subcover(_vee(), full_basis(_vee()), 1, [2, 3]),
     PreconditionError, "carrier is not regular enough to refine the cover"),
], ids=["strong-downset-outside", "join-map-foreign-frame", "extension-foreign-map",
        "maps-source", "extending-source", "extending-foreign-basis",
        "extending-invalid-foreign-basis", "extending-codomain-regular",
        "explicit-codomain-regular", "explicit-carrier", "subcover-parts", "subcover-regular"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message) as info:
        call(boolean(2))
    assert type(info.value) is error


def _top_only(l, keep=()):
    """The map from ``l`` into boolean(2) on the basis {top} plus ``keep``,
    sending each basis element to the top: every line of ``validate_map``
    holds, but a basis without both atoms does not generate."""
    t = boolean(2)
    basis = {t.top, *keep}
    return ContinuousMap(l, t, Basis(t, basis), dict.fromkeys(basis, l.top))


class TestNonGeneratingMapBasis:
    """A map whose basis misses a join-irreducible of its target is refused
    as a caller's fault, naming the lowest one it misses."""

    MESSAGE = "map basis does not generate bool2: it misses {a}"

    @pytest.mark.parametrize("call", [
        lambda l, f: compose(f, ContinuousMap.identity(l)),
        lambda l, f: compose(ContinuousMap.identity(f.target), f),
        lambda l, f: extension_map(_frame(l), f),
        lambda l, f: compactify_extending(l, full_basis(l), [f]),
        lambda l, f: strong_inclusion_from_maps(l, (), [f]),
        lambda l, f: is_dense(f),
        lambda l, f: finer_than(order_si(l), f),
    ], ids=["compose-first", "compose-second", "extension-map", "compactify-extending",
            "from-maps", "is-dense", "finer-than"])
    def test_refused(self, call):
        l = boolean(2)
        f = _top_only(l)
        assert validate_map(f) == []
        with pytest.raises(PreconditionError) as info:
            call(l, f)
        assert type(info.value) is PreconditionError
        assert str(info.value) == self.MESSAGE

    def test_compactification_lists_the_gap(self):
        assert Compactification(_top_only(boolean(2))).violations() == [self.MESSAGE]

    def test_names_the_lowest_missing_join_irreducible(self):
        l = boolean(2)
        with pytest.raises(PreconditionError, match=r"^map basis does not generate bool2: "
                                                   r"it misses \{b\}$"):
            is_dense(_top_only(l, keep=[1]))
        with pytest.raises(PreconditionError, match=r"it misses \{a\}$"):
            is_dense(_top_only(l, keep=[2]))


def test_map_declared_on_atoms_acts_as_on_every_element():
    # a map's own basis may be a generating set that is not a pcd-sublattice
    src, tgt = boolean(3), boolean(2)
    full = util.atom_map(src, tgt, [0, 1, 1])
    tgt_atoms = util.atoms(tgt)
    on_atoms = ContinuousMap(src, tgt, Basis(tgt, tgt_atoms),
                             {a: full.assignment[a] for a in tgt_atoms})
    assert on_atoms.basis.is_basis() and not on_atoms.basis.is_sub_pcd()
    k_full, (g_full,) = compactify_extending(src, full_basis(src), [full])
    k_atoms, (g_atoms,) = compactify_extending(src, full_basis(src), [on_atoms])
    assert maps_equal(g_atoms, g_full)
    assert k_atoms.frame.lattice == k_full.frame.lattice
    assert maps_equal(extension_map(k_full.frame, on_atoms), g_full)
    r_full, r_atoms = from_compactification(k_full), from_compactification(k_atoms)
    assert r_atoms.frame.lattice == r_full.frame.lattice
    assert maps_equal(r_atoms.iso, r_full.iso)
    assert compare(k_atoms, k_full).verdict is Ordering.ISO
    # the same for a compactification whose own map is declared on atoms
    src_atoms = util.atoms(src)
    k_id = Compactification(map=ContinuousMap(src, src, Basis(src, src_atoms),
                                              {a: a for a in src_atoms}))
    k_full_id = identity_compactification(src)
    r_id, r_full_id = from_compactification(k_id), from_compactification(k_full_id)
    assert r_id.frame.lattice == r_full_id.frame.lattice
    assert compare(k_id, k_full_id).verdict is Ordering.ISO


def _bases(l):
    """Every basis of a Boolean ``l``: the sets that hold all its atoms."""
    atoms = set(util.atoms(l))
    rest = [x for x in range(l.n) if x not in atoms]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            yield Basis(l, atoms.union(extra))


@pytest.mark.parametrize("k", range(5))
def test_every_compactification_of_a_finite_boolean_is_the_canonical_one(k):
    """The closure of any basis and the maps' preimages is L, and ``compare``
    answers ``iso`` against the canonical, a relabelled-codomain and an
    atom-basis compactification, on every basis of ``boolean(k)`` with 0-2
    seeded atom-maps."""
    rng = random.Random(k)
    l = boolean(k)
    canonical, _ = compactify_extending(l, full_basis(l), [])
    relabelled = util.relabelled_boolean(k, rng)
    atoms = util.atoms(l)
    others = [
        canonical,
        Compactification(map=util.iso_map(l, relabelled, rng.sample(range(k), k))),
        Compactification(map=ContinuousMap(l, l, Basis(l, atoms), {a: a for a in atoms})),
    ]
    count = 0
    for b in _bases(l):
        maps = [util.atom_map(l, boolean(j), util.random_phi(rng, k, j))
                for j in (rng.randint(1, 2) for _ in range(rng.randrange(3)))]
        comp, _ = compactify_extending(l, b, maps)
        preimages = {x for f in maps for x in f.ext}
        assert comp.frame.p == pcd_closure(l, b.elements | preimages) == full_basis(l)
        for other in others:
            assert compare(comp, other).verdict is Ordering.ISO
        count += 1
    assert count == 2 ** (l.n - k)
