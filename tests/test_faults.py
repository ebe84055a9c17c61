"""Every postcondition of the relation, map and compactification layers fires on a fault.

Each test breaks one derived value (a cached vector, a frame field, a
relation's column view), one collaborator (through ``monkeypatch``) or the
data one kernel is handed, after the arguments have passed their checks,
and requires the matching ``InvariantViolation``: the check is wired to
the result it guards, so a fault there cannot pass silently.  The last
test does the same for the lattice's own derivation of pseudocomplements,
whose check is a line of ``validate()``.
"""

import copy

import pytest

from roundideal import compactify, relation
from roundideal.compactify import (
    Compactification,
    compactify_extending,
    compare,
    enumerate_round_ideals,
    explicit_strong_inclusion,
    extension_map,
    from_compactification,
    interpolated_subcover,
    join_map,
    strong_downset,
)
from roundideal.errors import InvariantViolation
from roundideal.framemap import (
    ContinuousMap,
    MapClassTag,
    _continuity_failures,
    compose,
    finer_than,
    validate_map,
)
from roundideal.lattice import PcdLattice, boolean, full_basis, well_inside
from roundideal.relation import (
    Relation,
    build_scale,
    interpolative_core_on_basis,
    least_strong_inclusion,
)

import util


def order_si(lat):
    # on a Boolean algebra the order is the largest strong inclusion
    return least_strong_inclusion(full_basis(lat), Relation(lat, well_inside(lat).pairs))


def trivial_si(lat, p):
    return least_strong_inclusion(p, Relation(lat, (), p.elements))


def frame_of(lat):
    return enumerate_round_ideals(full_basis(lat), order_si(lat))


def canonical(lat):
    return compactify_extending(lat, full_basis(lat), [])[0]


def atom_map(lat):
    return util.atom_map(lat, boolean(2), [0, 1, 1])


def tampered(f, ext):
    """A copy of the map ``f`` whose extension vector is ``ext``."""
    out = copy.copy(f)
    out.ext = tuple(ext)
    return out


def raises(message):
    return pytest.raises(InvariantViolation, match=message)


def bend_vectors(monkeypatch, picked, whole):
    """Hand ``ContinuousMap._built`` each vector of a map that
    ``picked(target)`` selects with its top entry moved to the source's
    bottom; with ``whole`` the assignment moves with it, as a full-basis
    vector is its assignment.  Returns the list of the bent maps'
    ``(source, target, basis, assignment)``, filled as they are built."""
    real, seen = ContinuousMap._built.__func__, []

    def bent(cls, source, target, basis, assignment, ext=None):
        if ext is not None and picked(target):
            ext = (*ext[:target.top], source.bottom, *ext[target.top + 1:])
            if whole:
                assignment = dict(enumerate(ext))
            seen.append((source, target, basis, assignment))
        return real(cls, source, target, basis, assignment, ext)

    monkeypatch.setattr(ContinuousMap, "_built", classmethod(bent))
    return seen


class TestMaps:
    def test_composite_of_a_tampered_map_is_not_continuous(self):
        l = boolean(2)
        g = ContinuousMap.identity(l)
        validate_map(g)  # checked before its vector is broken
        g.ext = (l.top, *g.ext[1:])
        with raises("composite map is not continuous"):
            compose(ContinuousMap.identity(l), g)

    def test_join_map_over_misordered_ideals_is_not_continuous(self):
        l = boolean(2)
        fr = frame_of(l)
        fr.tops = fr.tops[::-1]  # the join map reads each ideal's top
        with raises("join map is not continuous"):
            join_map(l, fr)


class TestFrames:
    def test_strong_downset_from_a_broken_column(self):
        l = boolean(2)
        p, si = full_basis(l), order_si(l)
        strong_downset(p, si, l.top)
        si._cols = (0,) * l.n  # the view of the top's column misses the bottom
        with raises("strong-downset ideal invalid"):
            strong_downset(p, si, l.top)

    def test_enumerated_ideal_that_fails_its_check(self):
        # the ideal below an atom a, offered with top a under the trivial
        # strong inclusion, which relates a to the top alone: a is not round
        l = boolean(2)
        p = full_basis(l)
        a = util.atoms(l)[0]
        with raises("enumerated ideal invalid: not round"):
            compactify._round_by_columns(p, trivial_si(l, p), [1 << l.bottom | 1 << a], [a])

    def test_frame_lattice_that_fails_validation(self, monkeypatch):
        real = PcdLattice.validate
        monkeypatch.setattr(PcdLattice, "validate", lambda self: (
            ["forced"] if self.name.startswith("R(") else real(self)))
        with raises("round-ideal frame invalid: forced"):
            frame_of(boolean(2))

    def test_strong_downset_outside_the_ideals(self):
        l = boolean(2)
        si = order_si(l)
        si._cols = tuple(col | 1 << l.top for col in si.cols)
        with raises("strong downset of {} is not among the round ideals"):
            enumerate_round_ideals(full_basis(l), si)

    def test_basic_ideals_that_do_not_generate(self):
        l = boolean(2)
        si = order_si(l)
        si._cols = (1 << l.bottom,) * l.n  # every strong downset the least ideal
        with raises("basic downset ideals do not generate the frame"):
            enumerate_round_ideals(full_basis(l), si)

    def test_frame_meets_and_joins_against_the_ideals(self):
        fr = frame_of(boolean(2))
        masks = [sum(1 << x for x in ideal.members) for ideal in fr.ideals]
        tops = [max(ideal.members) for ideal in fr.ideals]
        compactify._assert_frame_structure(fr, masks, tops)
        # the second ideal without the bottom; the least ideal with the top of the last
        with raises("frame meet is not set intersection"):
            compactify._assert_frame_structure(fr, [masks[0], masks[1] & ~masks[0], *masks[2:]],
                                               tops)
        with raises("frame join misses the covering formula"):
            compactify._assert_frame_structure(fr, masks, [tops[-1], *tops[1:]])


class TestExtensions:
    def test_image_that_is_not_a_round_ideal(self):
        l = boolean(3)
        fr, f = frame_of(l), atom_map(l)
        finer_than(fr.si, f)  # the extension class is decided on intact columns
        fr.si._cols = (0,) * l.n
        with raises("extension image of {} is not a round ideal"):
            extension_map(fr, f)

    def test_misindexed_ideals_give_a_discontinuous_extension(self):
        l = boolean(3)
        fr = frame_of(l)
        last = fr.lattice.n - 1
        fr.down_index = {a: last - i for a, i in fr.down_index.items()}
        with raises("extension map is not continuous"):
            extension_map(fr, atom_map(l))

    def test_tampered_join_map_fails_the_factorisation(self):
        l = boolean(3)
        k = canonical(l)
        k.map.ext = (k.map.ext[0], *k.map.ext[:-1])  # the join map of the frame
        with raises("extension does not factor the map through join_map"):
            extension_map(k.frame, atom_map(l))

    def test_bent_extension_vector_is_not_continuous(self, monkeypatch):
        # the bent vector, whose scans open with the covering line, is not
        # the fold of its assignment: the fold's failures are named, and the
        # verdict stored for that assignment is the fold's
        l = boolean(3)
        f = atom_map(l)
        bent = bend_vectors(monkeypatch, lambda target: target is f.target, whole=True)
        with raises("extension map is not continuous: meets: "):
            extension_map(frame_of(l), f)
        g = ContinuousMap(*bent[0])
        assert validate_map(g) == list(_continuity_failures(g))

    def test_bent_extension_vector_whose_assignment_is_continuous(self, monkeypatch):
        # the vector leaves the intact, monotone assignment at the top: the
        # scans of the vector find no pair of the assignment to name
        l = boolean(3)
        f = atom_map(l)
        bend_vectors(monkeypatch, lambda target: target is f.target, whole=False)
        with raises("monotonicity on the basis fails its row test"):
            extension_map(frame_of(l), f)

    def test_bent_extension_vector_under_a_stored_verdict(self, monkeypatch):
        # a codomain equal but for its name has an extension of its own, and
        # the continuity verdict of the intact assignment is a memo hit
        l = boolean(3)
        fr = frame_of(l)
        extension_map(fr, atom_map(l))
        twin = util.atom_map(l, boolean(2, "twin"), [0, 1, 1])
        bend_vectors(monkeypatch, lambda target: target is twin.target, whole=False)
        with raises("extension does not factor the map through join_map"):
            extension_map(fr, twin)


class TestCompactifications:
    def test_core_that_is_not_compatible(self, monkeypatch):
        monkeypatch.setattr(compactify, "interpolative_core_on_basis", trivial_si)
        with raises("core strong inclusion is not compatible"):
            canonical(boolean(2))

    def test_basis_that_fails_strong_regularity_on_a_boolean_lattice(self, monkeypatch):
        # every element is complemented, so no element can be named
        monkeypatch.setattr(compactify, "is_strongly_regular_basis", lambda l, b: False)
        with raises("bool2: strong regularity fails its row test"):
            canonical(boolean(2))

    def test_sandwich_description_that_disagrees(self, monkeypatch):
        l = boolean(3)
        monkeypatch.setattr(compactify, "ordered_sandwich", lambda seed: order_si(l))
        with raises("sandwich description disagrees"):
            explicit_strong_inclusion(full_basis(l), atom_map(l))

    def test_reconstructed_inclusion_that_is_not_compatible(self, monkeypatch):
        l = boolean(2)
        k = Compactification(map=ContinuousMap.identity(l))
        monkeypatch.setattr(compactify, "_from_maps",
                            lambda l, s, maps: (full_basis(l), trivial_si(l, full_basis(l))))
        with raises("reconstructed strong inclusion is not compatible"):
            from_compactification(k)

    @pytest.mark.parametrize("bend, message", [
        (lambda ext: [0] * len(ext), "is not one-one"),
        (lambda ext: [x + len(ext) for x in ext], "is not onto"),
        (lambda ext: ext[::-1], "does not preserve order both ways"),
    ], ids=["one-one", "onto", "order"])
    def test_reconstruction_witness(self, monkeypatch, bend, message):
        real = compactify._extension

        def bent(fr, f):
            g = real(fr, f)
            return tampered(g, bend(g.ext))

        monkeypatch.setattr(compactify, "_extension", bent)
        with raises(f"reconstruction witness {message}"):
            from_compactification(Compactification(map=ContinuousMap.identity(boolean(2))))

    def test_mediating_map_through_a_misordered_bijection(self):
        k = canonical(boolean(2))
        rec = from_compactification(k)  # warm: compare reads this reconstruction
        rec.iso.ext = rec.iso.ext[::-1]  # still a bijection onto the frame
        with raises("mediating map is not continuous: meets: "):
            compare(k, k)

    @pytest.mark.parametrize("stored, whole, message", [
        (False, True, "mediating map is not continuous: meets: "),
        (True, False, "mediating map does not factor the compactification"),
    ], ids=["cold", "stored-verdict"])
    def test_bent_mediating_vector(self, monkeypatch, stored, whole, message):
        # with the extensions warm, compare builds the mediating maps alone
        k = canonical(boolean(2))
        if stored:
            compare(k, k)  # the mediating maps' verdicts are stored too
        else:
            from_compactification(k)
        bend_vectors(monkeypatch, lambda target: True, whole)
        with raises(message):
            compare(k, k)

    def test_tampered_join_map_fails_the_mediating_factorisation(self):
        l = boolean(3)
        k = canonical(l)
        # an equal map built apart, so that only one side is broken below
        twin = Compactification(map=ContinuousMap(l, k.codomain, k.map.basis,
                                                  k.map.assignment), frame=k.frame)
        compare(twin, k)  # every derivation is warm and intact
        k.map.ext = (k.map.ext[0], *k.map.ext[:-1])  # the join map of the frame
        with raises("mediating map does not factor the compactification"):
            compare(twin, k)

    def test_reconstruction_that_is_not_finer(self, monkeypatch):
        # every compactification of a finite frame is an isomorphism, so the
        # reconstruction is always finer and a verdict that it is not is a fault
        k = canonical(boolean(2))
        compare(k, k)  # warm: the reconstructions and extensions are derived
        monkeypatch.setattr(compactify, "_finer", lambda si, f: MapClassTag(
            f, si, False, (f.target.bottom, f.target.top)))
        with raises(r"reconstruction is not finer than the map at \(dn\(\{\}\), dn\(\{a,b\}\)\)"):
            compare(k, k)


class TestSubcovers:
    def test_empty_refinement_of_a_non_bottom_element(self, monkeypatch):
        l = boolean(2)
        monkeypatch.setattr(compactify, "minimal_subcover", lambda l, parts, target: parts[:1])
        a = util.atoms(l)[0]
        with raises("empty refinement for a non-bottom element"):
            interpolated_subcover(l, full_basis(l), a, [a])

    def test_refinement_that_misses_the_element(self, monkeypatch):
        l = boolean(2)
        a, b = util.atoms(l)
        monkeypatch.setattr(compactify, "minimal_subcover",
                            lambda l, parts, target: [parts[0], l.bottom])
        with raises("interpolated subcover fails its inequalities"):
            interpolated_subcover(l, full_basis(l), a, [a, b])


class TestRelations:
    def test_core_that_is_not_interpolative(self, monkeypatch):
        # the bottom related to the top alone, with nothing in between
        monkeypatch.setattr(relation, "_sandwich", lambda lat, selves, carrier: (
            Relation._from_rows(lat, [0b10, 0], carrier)))
        l = boolean(1)
        with raises(r"core pair \(\{\}, \{a\}\) is uninterpolated or not well-inside"):
            interpolative_core_on_basis(l, full_basis(l))

    def test_scale_value_that_is_not_well_inside(self):
        l = boolean(1)
        wi = well_inside(l)
        wi._cols = (0,) * l.n  # the relation's rows stay intact
        with raises(r"scale value \{\} at position 0 is not well-inside \{a\} at position 1"):
            build_scale(wi, l.bottom, l.top, 1)


def test_pseudocomplement_that_misses_a_disjoint_element():
    # {a}* set to the bottom: {b} is disjoint from {a} but not below {a}*
    l = boolean(2)
    l.pstar[1] = l.bottom
    assert l.validate() == ["pseudocomplement fails at {a}: {b} disjoint from y "
                            "does not match c <= y*"]
