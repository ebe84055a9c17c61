"""Round-ideal frames read off their source, and their structure on the tops.

A frame's order, tables and stars are its source's, read off at the tops'
positions (``PcdLattice._sublattice``).  The differential test requires
them to be what ``PcdLattice._from_cones`` derives from the same cones, on
the frame of the interpolative core over the whole lattice and over every
carrier that one element closes to, for ``boolean(0..6)`` and every
distinct ``generate(0..199, 0..6)`` lattice.  Under every single-entry
fault in the ideals' masks and tops, the verdict of
``_assert_frame_structure`` and the pair it names must be the pair scan's
(``oracles.reference_frame_failure``); every duplicated ideal must fail it;
and every single-entry fault in a frame's meet or join table or star vector
must fail one of the frame's postconditions.
"""

import pytest

import oracles
import util
from roundideal import io as rio
from roundideal.compactify import _assert_frame_structure, enumerate_round_ideals
from roundideal.errors import InvariantViolation
from roundideal.lattice import PcdLattice, boolean, full_basis, pcd_closure
from roundideal.relation import interpolative_core_on_basis


def distinct_lattices(seeds, sizes):
    """The distinct lattices among ``generate(seed, size)``."""
    seen = {}
    for seed in seeds:
        for size in sizes:
            lat = rio.generate(seed, size)
            seen.setdefault((lat.names, tuple(lat._up)), lat)
    return list(seen.values())


def frames(lat):
    """The frames of the interpolative core on the whole of ``lat`` and on each
    carrier that one element closes to."""
    carriers = {full_basis(lat), *(pcd_closure(lat, [x]) for x in range(lat.n))}
    return [enumerate_round_ideals(p, interpolative_core_on_basis(lat, p))
            for p in sorted(carriers, key=lambda p: sorted(p.elements))]


def as_ints(table):
    return [list(row) for row in table]


FAMILIES = {
    "boolean": lambda sizes: [boolean(k) for k in sizes],
    "generate": lambda sizes: distinct_lattices(range(200), sizes),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_read_off_frame_is_the_frame_of_its_cones(family):
    count = 0
    for lat in FAMILIES[family](range(7)):
        for fr in frames(lat):
            frame = fr.lattice
            ref = PcdLattice._from_cones(frame.names, frame._up, frame.name)
            assert (frame.names, frame._up, frame._down) == (ref.names, ref._up, ref._down)
            assert (frame.bottom, frame.top) == (ref.bottom, ref.top)
            assert as_ints(frame.meet) == as_ints(ref.meet)
            assert as_ints(frame.join) == as_ints(ref.join)
            assert frame.pstar == ref.pstar
            assert frame.validate() == ref.validate() == []
            assert frame == ref and hash(frame) == hash(ref)
            count += 1
    assert count > 50


def structure_failure(fr, masks, tops):
    """The message ``_assert_frame_structure`` raises, or None."""
    try:
        _assert_frame_structure(fr, masks, tops)
    except InvariantViolation as err:
        return str(err)
    return None


def expected_failure(fr, masks, tops, frame_tables, source_tables):
    """The message the pair scan's first failure gives, or None."""
    failure = oracles.reference_frame_failure(frame_tables, source_tables, masks, tops,
                                              fr.p.mask)
    if failure is None:
        return None
    half, i, j = failure
    names = fr.lattice.names
    what = ("meet is not set intersection" if half == "meet"
            else "join misses the covering formula")
    return f"frame {what} at ({names[i]}, {names[j]})"


@pytest.mark.parametrize("family", FAMILIES)
def test_irreducible_verdict_is_the_pair_scans_under_every_fault(family):
    faults = 0
    for lat in FAMILIES[family](range(5)):
        source_tables = oracles.reference_tables(*util.order_of(lat))
        for fr in frames(lat):
            frame_tables = oracles.reference_tables(*util.order_of(fr.lattice))
            masks = [ideal.mask for ideal in fr.ideals]
            tops = [lat.join_all(sorted(ideal.members)) for ideal in fr.ideals]
            assert fr.tops == tuple(tops)
            assert structure_failure(fr, masks, tops) is None
            planted = [([*masks[:i], m ^ 1 << b, *masks[i + 1:]], tops)
                       for i, m in enumerate(masks) for b in range(lat.n)]
            planted += [(masks, [*tops[:i], v, *tops[i + 1:]])
                        for i, t in enumerate(tops) for v in range(lat.n) if v != t]
            for bad_masks, bad_tops in planted:
                expected = expected_failure(fr, bad_masks, bad_tops, frame_tables, source_tables)
                assert expected is not None
                assert structure_failure(fr, bad_masks, bad_tops) == expected
            faults += len(planted)
    assert faults > 1000


@pytest.mark.parametrize("family", FAMILIES)
def test_every_duplicated_ideal_fails(family):
    # ideal i given ideal j's mask and top: the tops are no longer distinct,
    # and some of these faults only the table comparison catches
    faults, by_tables = 0, 0
    for lat in FAMILIES[family](range(5)):
        for fr in frames(lat):
            masks, tops = [ideal.mask for ideal in fr.ideals], list(fr.tops)
            for i in range(len(masks)):
                for j in range(len(masks)):
                    if i != j:
                        failure = structure_failure(fr, [*masks[:i], masks[j], *masks[i + 1:]],
                                                    [*tops[:i], tops[j], *tops[i + 1:]])
                        assert failure is not None
                        by_tables += failure.startswith("frame tables")
                        faults += 1
    assert faults > 400 and by_tables > 0


def table_faults(frame):
    """Every single-entry fault of the frame's tables and star vector, as a
    function that plants it in a lattice with the same tables."""
    k = frame.n
    for what in ("meet", "join"):
        for i, row in enumerate(getattr(frame, what)):
            for j, x in enumerate(row):
                for v in range(k):
                    if v != x:
                        def plant(lat, what=what, i=i, j=j, v=v):
                            row = bytearray(getattr(lat, what)[i])
                            row[j] = v
                            getattr(lat, what)[i] = bytes(row)
                        yield plant
    for i, x in enumerate(frame.pstar):
        for v in range(k):
            if v != x:
                def plant(lat, i=i, v=v):
                    lat.pstar[i] = v
                yield plant


@pytest.mark.parametrize("build, carrier", [
    (lambda: boolean(2), None),
    (lambda: boolean(3), None),
    (lambda: boolean(3), [1]),  # the four-element subalgebra of an atom
    # the frame {0, p0, p1p2, 1} of a carrier that is not the whole lattice
    (lambda: util.downset_instance(0, 3), [1]),
], ids=["bool2", "bool3", "bool3-atom", "generate-0-3"])
def test_every_single_table_fault_fails_a_postcondition(monkeypatch, build, carrier):
    def frame_of(lat):
        p = full_basis(lat) if carrier is None else pcd_closure(lat, carrier)
        return enumerate_round_ideals(p, interpolative_core_on_basis(lat, p))

    intact = frame_of(build()).lattice
    assert intact.n >= 4
    real = PcdLattice._sublattice
    caught = 0
    for plant in table_faults(intact):
        def faulty(self, elements, names, name, plant=plant):
            lat = real(self, elements, names, name)
            plant(lat)
            return lat

        monkeypatch.setattr(PcdLattice, "_sublattice", faulty)
        with pytest.raises(InvariantViolation):
            frame_of(build())  # a fresh source, so that no frame is remembered
        caught += 1
    assert caught == 2 * intact.n ** 2 * (intact.n - 1) + intact.n * (intact.n - 1)
