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

The ideals are checked round by one column test (``_round_by_columns``).
On the frames of the core and of least strong inclusions on sub-carriers,
its verdict must be the per-ideal scans' (``RoundIdeal.violations``), and
under planted faults in the masks and tops it must raise what the scans
raise; a planted fault in a column must still fail the frame.
"""

import pytest

import oracles
import util
from roundideal import io as rio
from roundideal.compactify import (
    RoundIdeal,
    _assert_frame_structure,
    _round_by_columns,
    _round_ideal_frame,
    enumerate_round_ideals,
)
from roundideal.errors import InvariantViolation
from roundideal.lattice import PcdLattice, _require, boolean, full_basis, pcd_closure
from roundideal.relation import Relation, interpolative_core_on_basis, least_strong_inclusion


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


def inclusions(lat):
    """The core on the whole of ``lat``, and on each carrier that one element
    closes to the least strong inclusions of the empty seed and of its core."""
    whole = full_basis(lat)
    yield whole, interpolative_core_on_basis(lat, whole)
    for p in sorted({pcd_closure(lat, [x]) for x in range(lat.n)},
                    key=lambda p: sorted(p.elements)):
        yield p, least_strong_inclusion(p, Relation(lat, (), p.elements))
        yield p, least_strong_inclusion(p, interpolative_core_on_basis(lat, p))


def scans(p, si, masks):
    """The per-ideal check that the column test stands for: the first
    ideal's scans that name a fault raise."""
    for m in masks:
        _require(RoundIdeal._derived(p, m).violations(si), InvariantViolation,
                 "enumerated ideal invalid")
    return True


def outcome(check, *args):
    """What ``check(*args)`` returns, or the message of its InvariantViolation."""
    try:
        return check(*args)
    except InvariantViolation as err:
        return f"raised: {err}"


def mask_faults(lat, si, keep, masks, tops):
    """Planted ideals by kind, each as (masks, tops): every single bit flip, a
    self-related top replaced by an element that is not, each mask without
    the bottom, and each mask without a member that lies below another."""
    down = lat._down
    swap = lambda i, m, t: ([*masks[:i], m, *masks[i + 1:]], [*tops[:i], t, *tops[i + 1:]])
    return {
        "bit flip": [swap(i, m ^ 1 << b, t) for i, (m, t) in enumerate(zip(masks, tops))
                     for b in range(lat.n)],
        "top not self-related": [swap(i, down[u] & keep, u) for i in range(len(masks))
                                 for u in range(lat.n)
                                 if keep >> u & 1 and not si.rows[u] >> u & 1],
        "missing the bottom": [swap(i, m & ~(1 << lat.bottom), t)
                               for i, (m, t) in enumerate(zip(masks, tops))],
        "not down-closed": [swap(i, m & ~(1 << x), t) for i, (m, t) in enumerate(zip(masks, tops))
                            for x in range(lat.n) if x not in (lat.bottom, t) and m >> x & 1],
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_column_test_is_the_per_ideal_scans(family):
    frames_seen, named = 0, dict.fromkeys(["bit flip", "top not self-related",
                                           "missing the bottom", "not down-closed"], 0)
    for lat in FAMILIES[family](range(5)):
        if not lat.is_valid:
            continue
        for p, si in inclusions(lat):
            fr = enumerate_round_ideals(p, si)
            masks, tops = [ideal.mask for ideal in fr.ideals], list(fr.tops)
            assert _round_by_columns(p, fr.si, masks, tops) is scans(p, fr.si, masks) is True
            frames_seen += 1
            for kind, planted in mask_faults(lat, fr.si, p.mask, masks, tops).items():
                for bad_masks, bad_tops in planted:
                    expected = outcome(scans, p, fr.si, bad_masks)
                    got = outcome(_round_by_columns, p, fr.si, bad_masks, bad_tops)
                    # what the scans pass, the column test still refuses
                    assert got == (False if expected is True else expected)
                    named[kind] += expected is not True
    assert frames_seen > 30 and all(named.values()), named


def tampered(si, t, col):
    """A copy of ``si`` whose column of ``t`` is ``col``; its rows stay intact."""
    out = Relation._from_rows(si.lattice, si.rows, si.carrier)
    out._cols = (*si.cols[:t], col, *si.cols[t + 1:])
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_a_tampered_column_fails_the_frame(family):
    # the per-ideal scans read rows, so only the column test and the
    # strong-downset lookup see a column; a column that is no ideal's mask
    # is named as before, and any other still fails the frame
    faults, named = 0, 0
    for lat in FAMILIES[family](range(5)):
        if not lat.is_valid:
            continue
        p = full_basis(lat)
        fr = enumerate_round_ideals(p, interpolative_core_on_basis(lat, p))
        masks = {ideal.mask for ideal in fr.ideals}
        for t in fr.tops:
            for x in range(lat.n):
                col = fr.si.cols[t] ^ 1 << x
                with pytest.raises(InvariantViolation) as err:
                    _round_ideal_frame(p, tampered(fr.si, t, col))
                if col not in masks:
                    assert str(err.value) == (f"strong downset of {lat.names[t]} "
                                              "is not among the round ideals")
                    named += 1
                faults += 1
    assert faults > 300 and 0 < named < faults
