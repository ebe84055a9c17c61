import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import util
from roundideal import framemap
from roundideal.compactify import enumerate_round_ideals, join_map
from roundideal.errors import InvariantViolation, MalformedInput, PreconditionError
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
    full_basis,
    is_regular,
    pcd_closure,
    well_inside,
)
from roundideal.relation import (
    Relation,
    interpolative_core_on_basis,
    least_strong_inclusion,
)


def to_terminal(src):
    """The unique map into the two-element frame."""
    tgt = chain(2)
    return ContinuousMap(src, tgt, full_basis(tgt), {0: src.bottom, 1: src.top})


class TestValidateMap:
    def test_identity_valid(self):
        l = util.downset_instance(4, 4)
        assert validate_map(ContinuousMap.identity(l)) == []

    def test_terminal_map_valid(self):
        assert validate_map(to_terminal(boolean(2))) == []

    def test_meets_violation_reported(self):
        l = boolean(2)
        a = util.atoms(l)[0]
        astar = l.pstar[a]
        assignment = {x: l.top for x in range(l.n)}
        assignment[l.bottom] = l.bottom
        f = ContinuousMap(l, l, full_basis(l), assignment)
        report = validate_map(f)
        assert any("meets" in line for line in report)
        assert extend(f, a) == extend(f, astar) == l.top

    def test_no_maps_into_degenerate_frame(self):
        # the one-element frame forces image-of-bottom = image-of-top
        src = boolean(1)
        tgt = boolean(0)
        f = ContinuousMap(src, tgt, full_basis(tgt), {0: src.top})
        report = validate_map(f)
        assert report
        g = ContinuousMap(src, tgt, full_basis(tgt), {0: src.bottom})
        assert any("covering" in line for line in validate_map(g))

    def test_degenerate_to_degenerate_valid(self):
        src = boolean(0)
        f = ContinuousMap(src, src, full_basis(src), {0: 0})
        assert validate_map(f) == []

    def test_assignment_must_cover_basis(self):
        l = boolean(1)
        with pytest.raises(MalformedInput):
            ContinuousMap(l, l, full_basis(l), {0: 0})

    def test_extension_out_of_step_with_a_monotone_assignment_is_a_fault(self):
        # ext[{a}] tampered to the top: the exact monotonicity test fails,
        # yet no pair of the identity assignment breaks monotonicity
        l = boolean(2)
        f = ContinuousMap.identity(l)
        f.ext = (f.ext[0], l.top, *f.ext[2:])
        with pytest.raises(InvariantViolation, match="monotonicity on the basis fails its row"):
            validate_map(f)

    @pytest.mark.parametrize("call, error, message", [
        (lambda l: ContinuousMap(l, l, full_basis(boolean(1)), {0: 0, 1: 3}),
         MalformedInput, "basis must belong to the target lattice"),
        (lambda l: compose(ContinuousMap.identity(l),
                           ContinuousMap(l, l, full_basis(l), {0: 0, 1: 1, 2: 1, 3: 3})),
         PreconditionError, r"invalid continuous map: meets: images of \(\{a\}, \{b\}\)"),
    ], ids=["foreign-basis", "compose-invalid-map"])
    def test_input_checks(self, call, error, message):
        with pytest.raises(error, match=message) as info:
            call(boolean(2))
        assert type(info.value) is error

    def test_non_integer_assignment_key_is_malformed(self):
        l, t = boolean(2), boolean(1)
        with pytest.raises(MalformedInput, match="not an integer"):
            ContinuousMap(l, t, full_basis(t), {"x": 0})
        with pytest.raises(MalformedInput, match="out of range"):
            ContinuousMap(l, t, full_basis(t), {0: 0, 1: l.n})


def random_lattice(rng):
    """A Boolean algebra, chain or generated lattice, its elements often shuffled
    so that index order is not a linear extension."""
    kind = rng.choice(["boolean", "chain", "generate"])
    if kind == "boolean":
        lat = boolean(rng.randint(0, 3))
    elif kind == "chain":
        lat = chain(rng.randint(1, 5))
    else:
        lat = util.downset_instance(rng.randrange(10**6), rng.randint(0, 4))
    if rng.random() < 0.5:
        return PcdLattice(*util.relabel(*util.order_of(lat), rng))
    return lat


def random_map(rng):
    """A map between random valid lattices over a full or partial basis.

    The assignment is uniform, or built up the order (each image joins the
    images already drawn below it with a random element, so it is often
    monotone), so that every condition fails on some draws.
    """
    src, tgt = random_lattice(rng), random_lattice(rng)
    full = rng.random() < 0.5
    basis = [b for b in range(tgt.n) if full or rng.random() < 0.6]
    assignment = {}
    for b in sorted(basis, key=lambda b: tgt._down[b].bit_count()):
        if rng.random() < 0.5:
            assignment[b] = rng.randrange(src.n)
        else:
            below = [assignment[c] for c in assignment if tgt.leq(c, b)]
            assignment[b] = src.join_all(below + [rng.randrange(src.n)])
    return ContinuousMap(src, tgt, Basis(tgt, basis), assignment)


class TestReferenceReport:
    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_pair_scan(self, seed):
        f = random_map(random.Random(seed))
        assert validate_map(f) == oracles.reference_continuity_report(f)

    def test_draws_fail_every_condition(self):
        conditions = ("covering:", "meets:", "cover refinement: assignment not monotone",
                      "cover refinement: image of the bottom",
                      "cover refinement: extension misses")
        seen = set()
        for seed in range(300):
            f = random_map(random.Random(seed))
            report = validate_map(f)
            assert report == oracles.reference_continuity_report(f)
            seen.update(c for c in conditions for line in report if line.startswith(c))
        assert seen == set(conditions)


class TestValidateOnce:
    def test_assignment_is_read_only(self):
        f = to_terminal(boolean(2))
        with pytest.raises(TypeError):
            f.assignment[0] = 1
        assert f.assignment == {0: 0, 1: 3}

    def test_report_list_is_fresh(self):
        f = to_terminal(boolean(2))
        first = validate_map(f)
        first.append("meets: tampered")
        assert validate_map(f) == []
        l = boolean(2)
        bad = ContinuousMap(l, l, full_basis(l), {x: l.top for x in range(l.n)})
        report = validate_map(bad)
        report.clear()
        assert validate_map(bad)

    def test_continuity_checked_once_per_object(self, monkeypatch):
        checked = []
        real = framemap._continuity_report

        def counting(f):
            checked.append(f)
            return real(f)

        monkeypatch.setattr(framemap, "_continuity_report", counting)
        f = to_terminal(boolean(2))
        g = to_terminal(boolean(2))
        for _ in range(3):
            assert validate_map(f) == validate_map(g) == []
        assert len(checked) == 2 and checked[0] is f and checked[1] is g

    def test_cache_not_part_of_equality(self):
        f = to_terminal(boolean(2))
        g = to_terminal(boolean(2))
        validate_map(f)
        extend(f, 1)
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


class TestExtend:
    def test_bottom_and_top(self):
        l = boolean(2)
        f = to_terminal(l)
        assert extend(f, 0) == l.bottom
        assert extend(f, 1) == l.top

    def test_index_outside_the_target_is_malformed(self):
        f = to_terminal(boolean(2))
        for a in (99, -1, "x", 1.0):
            with pytest.raises(MalformedInput):
                extend(f, a)

    def test_identity_fixes_everything(self):
        l = util.downset_instance(8, 4)
        f = ContinuousMap.identity(l)
        for a in range(l.n):
            assert extend(f, a) == a

    def test_agrees_with_assignment_on_basis(self):
        rng = random.Random(3)
        src, tgt = boolean(3), boolean(2)
        f = util.atom_map(src, tgt, util.random_phi(rng, 3, 2))
        for b in sorted(f.basis.elements):
            assert extend(f, b) == f.assignment[b]

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_frame_homomorphism_laws(self, seed):
        rng = random.Random(seed)
        ks, kt = rng.randint(0, 3), rng.randint(0, 3)
        src, tgt = boolean(ks), boolean(kt)
        phi = util.random_phi(rng, len(util.atoms(src)), max(len(util.atoms(tgt)), 1))
        if ks and not kt:
            return  # no map into the degenerate frame from a bigger source
        f = util.atom_map(src, tgt, phi)
        assert validate_map(f) == []
        assert extend(f, tgt.bottom) == src.bottom
        assert extend(f, tgt.top) == src.top
        for m1 in range(tgt.n):
            for m2 in range(tgt.n):
                assert extend(f, tgt.meet[m1][m2]) == src.meet[extend(f, m1)][extend(f, m2)]
                assert extend(f, tgt.join[m1][m2]) == src.join[extend(f, m1)][extend(f, m2)]

    @given(st.integers(0, 10**6))
    @example(298)  # orders whose joins do not associate: the fold order shows
    @example(399)
    @settings(max_examples=60, deadline=None)
    def test_vector_is_the_join_extension(self, seed):
        # ext[a] joins the assignment over the basis elements below a, read
        # off the reference tables; over invalid orders too, where a missing
        # join makes the entry None
        rng = random.Random(seed)

        def order():
            if rng.random() < 0.5:
                return util.random_order(rng, rng.choice(util.ORDER_KINDS))
            return util.order_of(util.downset_instance(rng.randrange(10**6), rng.randint(0, 3)))

        src_names, src_leq = order()
        src = PcdLattice(src_names, src_leq)
        if rng.random() < 0.3:
            # the identity on a sub-basis: continuous when the sub-basis generates
            tgt_leq, tgt = src_leq, src
            basis = [b for b in range(tgt.n) if rng.random() < 0.8]
            assignment = {b: b for b in basis}
        else:
            tgt_names, tgt_leq = order()
            tgt = PcdLattice(tgt_names, tgt_leq)
            basis = [b for b in range(tgt.n) if src.n and rng.random() < 0.7]
            assignment = {b: rng.randrange(src.n) for b in basis}
        f = ContinuousMap(src, tgt, Basis(tgt, basis), assignment)
        tables = oracles.reference_tables(src_names, src_leq)
        for a in range(tgt.n):
            value = tables["bottom"]
            for b in sorted(assignment):
                if tgt_leq[b][a]:
                    value = None if value is None else tables["join"][value][assignment[b]]
            assert f.ext[a] == value == extend(f, a)
        assert len(f.ext) == tgt.n


class TestCoverRefinementReformulation:
    """validate_map replaces the subset-quantified cover condition with a
    finite equivalent; compare the two verdicts literally on small targets."""

    @staticmethod
    def literal_cover_condition(f):
        from itertools import combinations

        src, tgt = f.source, f.target
        basis = sorted(f.basis.elements)
        for a in basis:
            for r in range(len(basis) + 1):
                for u in combinations(basis, r):
                    if tgt.leq(a, tgt.join_all(u)):
                        bound = src.join_all(f.assignment[b] for b in u)
                        if not src.leq(f.assignment[a], bound):
                            return False
        return True

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_condition(self, seed):
        rng = random.Random(seed)
        src = util.downset_instance(seed, rng.randint(0, 3))
        tgt = util.downset_instance(seed ^ 0x5A5A, rng.randint(0, 2))
        if tgt.n > 4:
            return
        assignment = {a: rng.randrange(src.n) for a in range(tgt.n)}
        f = ContinuousMap(src, tgt, full_basis(tgt), assignment)
        report = validate_map(f)
        refinement_ok = not any("cover refinement" in line for line in report)
        assert refinement_ok == self.literal_cover_condition(f)


class TestMeetsIdentity:
    """validate_map takes the meets right-hand side as extend(f, a ^ b);
    compare its meets line with the literal triple loop over the basis, for
    arbitrary assignments over arbitrary (often non-generating) sub-bases."""

    @staticmethod
    def literal_meets_line(f):
        src, tgt = f.source, f.target
        basis = sorted(f.basis.elements)
        for a in basis:
            for b in basis:
                lhs = src.meet[f.assignment[a]][f.assignment[b]]
                rhs = src.join_all(
                    f.assignment[c] for c in basis if tgt.leq(c, a) and tgt.leq(c, b)
                )
                if lhs != rhs:
                    return (
                        f"meets: images of ({tgt.names[a]}, {tgt.names[b]}) "
                        f"meet at {src.names[lhs]} but common refinements join to "
                        f"{src.names[rhs]}"
                    )
        return None

    @given(st.integers(0, 10**6), st.sampled_from(["random", "identity", "restricted"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_triple_loop(self, seed, kind):
        rng = random.Random(seed)
        if kind == "restricted":
            # a valid map cut down to a sub-basis of its target
            src, tgt = boolean(rng.randint(0, 3)), boolean(rng.randint(1, 3))
            phi = util.random_phi(rng, len(util.atoms(src)), len(util.atoms(tgt)))
            whole = util.atom_map(src, tgt, phi).assignment
        else:
            tgt = util.downset_instance(seed, rng.randint(0, 4))
            src = tgt if kind == "identity" else util.downset_instance(
                seed ^ 0x5A5A, rng.randint(0, 4))
        basis = Basis(tgt, frozenset(x for x in range(tgt.n) if rng.random() < 0.6))
        if kind == "random":
            assignment = {a: rng.randrange(src.n) for a in basis.elements}
        elif kind == "identity":
            assignment = {a: a for a in basis.elements}
        else:
            assignment = {a: whole[a] for a in basis.elements}
        f = ContinuousMap(src, tgt, basis, assignment)
        meets = [line for line in validate_map(f) if line.startswith("meets:")]
        expected = self.literal_meets_line(f)
        assert meets == ([expected] if expected else [])


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(5)
        src, tgt = boolean(3), boolean(2)
        g = util.atom_map(src, tgt, util.random_phi(rng, 3, 2))
        assert maps_equal(compose(ContinuousMap.identity(tgt), g), g)
        assert maps_equal(compose(g, ContinuousMap.identity(src)), g)

    @given(st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_associativity(self, seed):
        rng = random.Random(seed)
        a, b, c, d = (boolean(rng.randint(1, 3)) for _ in range(4))
        g = util.atom_map(a, b, util.random_phi(rng, len(util.atoms(a)), len(util.atoms(b))))
        f = util.atom_map(b, c, util.random_phi(rng, len(util.atoms(b)), len(util.atoms(c))))
        e = util.atom_map(c, d, util.random_phi(rng, len(util.atoms(c)), len(util.atoms(d))))
        left = compose(e, compose(f, g))
        right = compose(compose(e, f), g)
        assert maps_equal(left, right)

    def test_lattice_mismatch(self):
        f = to_terminal(boolean(2))
        g = to_terminal(boolean(3))
        with pytest.raises(MalformedInput):
            compose(f, f)
        with pytest.raises(MalformedInput):
            compose(g, f)


class TestDenseEmbedding:
    def test_identity_dense_embedding(self):
        l = util.downset_instance(2, 4)
        f = ContinuousMap.identity(l)
        assert is_dense(f)
        assert is_embedding(f)

    def test_collapsing_map_not_dense(self):
        # atom map that misses a target atom sends it to bottom
        src, tgt = boolean(1), boolean(2)
        f = util.atom_map(src, tgt, [0])
        assert not is_dense(f)

    def test_surjective_atom_map_dense_not_embedding(self):
        src, tgt = boolean(3), boolean(2)
        f = util.atom_map(src, tgt, [0, 1, 1])
        assert is_dense(f)
        assert not is_embedding(f)

    def test_injective_atom_map_embedding(self):
        src, tgt = boolean(2), boolean(3)
        f = util.atom_map(src, tgt, [0, 2])
        assert is_embedding(f)
        assert not is_dense(f)

    def test_degenerate_identity_dense(self):
        l = boolean(0)
        assert is_dense(ContinuousMap.identity(l))


class TestFinerThan:
    def test_degenerate_target_trivially_fine(self):
        l = boolean(0)
        p = full_basis(l)
        si = least_strong_inclusion(p, Relation(l, (), p.elements))
        tag = finer_than(si, ContinuousMap.identity(l))
        assert tag.finer
        assert tag.witnesses == (((0, 0), (0, 0)),)

    def test_trivial_inclusion_too_coarse(self):
        l = boolean(2)
        p = pcd_closure(l, ())
        si = least_strong_inclusion(p, Relation(l, (), p.elements))
        tag = finer_than(si, ContinuousMap.identity(l))
        assert not tag.finer
        assert tag.failing is not None

    def test_order_inclusion_fine_for_identity(self):
        l = boolean(2)
        p = full_basis(l)
        wi = Relation(l, well_inside(l).pairs)
        si = least_strong_inclusion(p, wi)
        tag = finer_than(si, ContinuousMap.identity(l))
        assert tag.finer
        assert len(tag.witnesses) == len(well_inside(l).pairs)

    def test_witnesses_lowest_index_first(self):
        l = boolean(2)
        p = full_basis(l)
        si = least_strong_inclusion(p, Relation(l, well_inside(l).pairs))
        tag = finer_than(si, ContinuousMap.identity(l))
        for (y, x), (pw, qw) in tag.witnesses:
            best_p = min(m for m in range(l.n) if l.leq(y, m)
                         and any((m, q) in si.pairs and l.leq(q, x) for q in range(l.n)))
            assert pw == best_p

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_relation(self, seed):
        rng = random.Random(seed)
        l = boolean(rng.randint(1, 3))
        p = full_basis(l)
        small = least_strong_inclusion(p, util.random_interpolative_seed(l, p, rng))
        big = least_strong_inclusion(p, Relation(l, well_inside(l).pairs))
        assert small.pairs <= big.pairs
        f = util.atom_map(l, l, util.random_phi(
            rng, len(util.atoms(l)), len(util.atoms(l))))
        if finer_than(small, f).finer:
            assert finer_than(big, f).finer

    @pytest.mark.parametrize("lat", [boolean(3), chain(4)], ids=["larger", "same-size"])
    def test_relation_on_another_lattice_is_malformed(self, lat):
        # one message whether or not the relation's carrier fits the source
        core = interpolative_core_on_basis(lat, full_basis(lat))
        with pytest.raises(MalformedInput) as caught:
            finer_than(core, ContinuousMap.identity(boolean(2)))
        assert str(caught.value) == "relation and map source live on different lattices"


class TestDenseMapFacts:
    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_dense_embeddings_preserve_stars(self, seed):
        rng = random.Random(seed)
        k = rng.randint(0, 3)
        src = boolean(k)
        tgt = util.relabelled_boolean(k, rng)
        phi = util.random_phi(rng, k, max(k, 1), injective=True) if k else []
        f = util.atom_map(src, tgt, phi)
        assert is_dense(f) and is_embedding(f)
        for a in range(tgt.n):
            assert extend(f, tgt.pstar[a]) == src.pstar[extend(f, a)]

    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_dense_into_regular_gives_one_one_extension(self, seed):
        rng = random.Random(seed)
        ks = rng.randint(1, 3)
        kt = rng.randint(1, ks)
        src, tgt = boolean(ks), boolean(kt)
        phi = util.random_phi(rng, ks, kt, surjective=True)
        f = util.atom_map(src, tgt, phi)
        assert is_dense(f)
        assert is_regular(tgt, full_basis(tgt))
        images = [extend(f, a) for a in range(tgt.n)]
        assert len(set(images)) == tgt.n

    @given(st.integers(0, 3000))
    @settings(max_examples=20, deadline=None)
    def test_dense_maps_are_epimorphisms(self, seed):
        rng = random.Random(seed)
        kl, km, kn = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        L, M, N = boolean(kl), boolean(km), boolean(kn)
        if kl < km:
            return
        h = util.atom_map(L, M, util.random_phi(rng, kl, km, surjective=True))
        assert is_dense(h)
        f = util.atom_map(M, N, util.random_phi(rng, km, kn))
        g = util.atom_map(M, N, util.random_phi(rng, km, kn))
        if maps_equal(compose(f, h), compose(g, h)):
            assert maps_equal(f, g)
        else:
            assert not maps_equal(f, g)


SMALL = [boolean(0), boolean(1), boolean(2), *(chain(k) for k in range(1, 5)),
         *(util.downset_instance(seed, k) for seed, k in [(0, 2), (0, 3), (5, 3), (7, 3)])]


def join_irreducibles(lat):
    return oracles.reference_join_irreducibles(util.order_of(lat)[1])


def checked_report(f):
    """``validate_map(f)``, required to equal the per-pair scans, and the
    verdict on the join-irreducibles, where the basis holds them, to agree."""
    report = validate_map(f)
    assert report == list(framemap._continuity_failures(f))
    gens = join_irreducibles(f.target)
    on_gens = f.basis.elements.issuperset(gens)
    if on_gens:
        assert framemap._continuous_on(f, gens) == (not report)
    return report, on_gens


def sandwich_reference(si, f):
    """(finer, failing, witnesses) by definition: per well-inside pair (y, x)
    of the target in index order, the least (p, q) in ``si`` with f(y) <= p
    and q <= f(x)."""
    src, ext, witnesses = f.source, f.ext, []
    for y, x in sorted(well_inside(f.target).pairs):
        found = [(p, q) for p, q in si.pairs if src.leq(ext[y], p) and src.leq(q, ext[x])]
        if not found:
            return False, (y, x), tuple(witnesses)
        witnesses.append(((y, x), min(found)))
    return True, None, tuple(witnesses)


class TestVerdictsOnGenerators:
    """Continuity decided on the join-irreducibles and the extension class on
    one pair per target element, against the per-pair scans."""

    def test_every_assignment_between_small_lattices(self):
        assert all(l.is_valid for l in SMALL)
        seen = {True: 0, False: 0}
        for src, tgt in product(SMALL, SMALL):
            if src.n ** tgt.n > 4096:
                continue
            basis = full_basis(tgt)
            for images in product(range(src.n), repeat=tgt.n):
                report, on_gens = checked_report(
                    ContinuousMap(src, tgt, basis, dict(enumerate(images))))
                assert on_gens
                seen[not report] += 1
        assert min(seen.values()) > 100, seen

    def test_random_maps_on_random_bases(self):
        seen = set()
        for seed in range(400):
            rng = random.Random(seed)
            src, tgt = random_lattice(rng), random_lattice(rng)
            gens = join_irreducibles(tgt)
            kind = rng.choice(["full", "gens and more", "missing one", "random"])
            if kind == "full":
                basis = set(range(tgt.n))
            elif kind == "random":
                basis = {b for b in range(tgt.n) if rng.random() < 0.6}
            else:
                basis = set(gens) | {b for b in range(tgt.n) if rng.random() < 0.4}
                if kind == "missing one" and gens:
                    basis.discard(rng.choice(gens))
            assignment = {}
            for b in sorted(basis, key=lambda b: tgt._down[b].bit_count()):
                below = [assignment[c] for c in assignment if tgt.leq(c, b)]
                extra = rng.randrange(src.n) if rng.random() < 0.3 else src.bottom
                assignment[b] = src.join_all(below + [extra])
            f = ContinuousMap(src, tgt, Basis(tgt, basis), assignment)
            report, on_gens = checked_report(f)
            assert report == oracles.reference_continuity_report(f)
            seen.add((on_gens, not report, on_gens and len(basis) > len(gens)))
        # both paths give both verdicts, and bases larger than J take the first
        assert {(on, valid) for on, valid, _ in seen} == set(product([True, False], repeat=2))
        assert (True, True, True) in seen and (True, False, True) in seen

    def test_join_maps_into_frames_of_least_strong_inclusions(self):
        finer = set()
        for seed in range(60):
            rng = random.Random(seed)
            l = random_lattice(rng)
            p = pcd_closure(l, rng.sample(range(l.n), rng.randint(0, min(l.n, 3))))
            sis = [least_strong_inclusion(p, util.random_interpolative_seed(l, p, rng))
                   for _ in range(3)]
            for target_si in sis:
                f = join_map(l, enumerate_round_ideals(p, target_si))
                assert checked_report(f)[0] == []
                for si in sis:
                    tag = finer_than(si, f)
                    assert (tag.finer, tag.failing, tag.witnesses) == sandwich_reference(si, f)
                    finer.add(tag.finer)
        assert finer == {True, False}

    def test_a_continuity_verdict_the_scans_do_not_confirm_is_a_fault(self, monkeypatch):
        monkeypatch.setattr(framemap, "_continuous_on", lambda f, gens: False)
        with pytest.raises(InvariantViolation, match="continuity on the join-irreducibles"):
            validate_map(ContinuousMap.identity(boolean(2)))

    def test_an_extension_class_verdict_the_scan_does_not_confirm_is_a_fault(
            self, monkeypatch):
        l, t = boolean(2), boolean(2)
        f = util.atom_map(l, t, [0, 1])
        si = least_strong_inclusion(full_basis(l), Relation(l, well_inside(l).pairs))
        assert validate_map(f) == [] and well_inside(t)
        # the verdict reads the top as the widest element well inside each x;
        # the scan, over the well-inside pairs, finds every witness
        monkeypatch.setattr(t, "_down_owner", dict.fromkeys(t._down_owner, t.top))
        with pytest.raises(InvariantViolation, match="extension class"):
            finer_than(si, f)
        monkeypatch.undo()
        assert finer_than(si, f).finer  # the error stored nothing
