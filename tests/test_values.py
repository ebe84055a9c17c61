"""Value semantics of the package's twelve value types.

Each type is an immutable value whose equality, hash and ``repr`` run over
its declared fields, in order; a cached ``mask`` takes no part in any of
them.  Expected values are written out in full.
"""

import pytest

from roundideal.compactify import (
    CompactRegularReport,
    Compactification,
    CompareResult,
    CoverWitness,
    Ordering,
    Reconstruction,
    RoundIdeal,
)
from roundideal.errors import MalformedInput
from roundideal.framemap import ContinuousMap, MapClassTag
from roundideal.lattice import Basis, Cover, boolean, full_basis
from roundideal.relation import ConditionResult, Scale, SiReport

L = boolean(1)  # elements {} {a}
B = full_basis(L)
F = ContinuousMap(L, L, B, {0: 0, 1: 1})
LR, BR, FR = repr(L), repr(B), repr(F)
C1 = ConditionResult(1, "x", True)

# (type, fields in declared order, the same fields with one changed, repr)
CASES = [
    (RoundIdeal, {"basis": B, "members": frozenset({0})},
     {"basis": B, "members": frozenset({0, 1})},
     f"RoundIdeal(basis={BR}, members=frozenset({{0}}))"),
    (Compactification, {"map": F, "frame": None},
     {"map": ContinuousMap(L, L, B, {0: 0, 1: 0}), "frame": None},
     f"Compactification(map={FR}, frame=None)"),
    (CompactRegularReport, {"ok": True, "problems": (), "subcover": (1,)},
     {"ok": False, "problems": ("p",), "subcover": ()},
     "CompactRegularReport(ok=True, problems=(), subcover=(1,))"),
    (Reconstruction, {"p": B, "si": "si", "iso": F, "frame": "fr"},
     {"p": B, "si": "si", "iso": F, "frame": "other"},
     f"Reconstruction(p={BR}, si='si', iso={FR}, frame='fr')"),
    (CompareResult, {"verdict": Ordering.ISO, "le_witness": F, "ge_witness": None},
     {"verdict": Ordering.LE, "le_witness": F, "ge_witness": None},
     f"CompareResult(verdict=<Ordering.ISO: 'iso'>, le_witness={FR}, ge_witness=None)"),
    (CoverWitness, {"lower": (0,), "middle": (1,), "upper": (1,)},
     {"lower": (0,), "middle": (0,), "upper": (1,)},
     "CoverWitness(lower=(0,), middle=(1,), upper=(1,))"),
    (MapClassTag, {"map": F, "si": None, "finer": False, "failing": (1, 0)},
     {"map": F, "si": None, "finer": False, "failing": (1, 1)},
     f"MapClassTag(map={FR}, si=None, finer=False, failing=(1, 0))"),
    (Basis, {"lattice": L, "elements": frozenset({1})},
     {"lattice": L, "elements": frozenset({0})},
     f"Basis(lattice={LR}, elements=frozenset({{1}}))"),
    (Cover, {"target": 1, "parts": frozenset({0, 1})},
     {"target": 0, "parts": frozenset({0, 1})},
     "Cover(target=1, parts=frozenset({0, 1}))"),
    (ConditionResult, {"number": 2, "name": "n", "holds": False, "witness": (0, 1),
                       "detail": "d"},
     {"number": 2, "name": "n", "holds": False, "witness": (0, 1), "detail": "e"},
     "ConditionResult(number=2, name='n', holds=False, witness=(0, 1), detail='d')"),
    (SiReport, {"conditions": (C1,), "names": ("{}", "{a}")},
     {"conditions": (), "names": ("{}", "{a}")},
     "SiReport(conditions=(ConditionResult(number=1, name='x', holds=True, witness=None, "
     "detail=''),), names=('{}', '{a}'))"),
    (Scale, {"lattice": L, "depth": 1, "values": (0, 1, 1)},
     {"lattice": L, "depth": 1, "values": (0, 0, 1)},
     f"Scale(lattice={LR}, depth=1, values=(0, 1, 1))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_all_twelve_types_covered():
    assert len(set(IDS)) == 12


def test_equality_and_hash_over_declared_fields(case):
    kind, fields, other, _ = case
    a, b = kind(**fields), kind(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert a != kind(**other) and not a == kind(**other)
    assert len({a, b, kind(**other)}) == 2


def test_repr_text(case):
    kind, fields, _, text = case
    assert repr(kind(**fields)) == text
    assert "mask" not in text


def test_fields_cannot_be_assigned_or_deleted(case):
    kind, fields, other, _ = case
    value = kind(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, other[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]
    with pytest.raises(AttributeError):
        value.extra = 1


def test_never_equal_to_its_field_tuple(case):
    kind, fields, _, _ = case
    value = kind(**fields)
    assert value != tuple(fields.values())
    assert tuple(fields.values()) != value
    assert value != object()


def test_derived_ideal_equals_the_checked_one():
    # the Basis counterpart is in test_lattice
    ideal = RoundIdeal._derived(B, 0b10)
    assert ideal == RoundIdeal(B, {1}) and hash(ideal) == hash(RoundIdeal(B, {1}))
    assert ideal.mask == RoundIdeal(B, {1}).mask == 0b10


def test_keyword_and_default_construction():
    k = Compactification(map=F)
    assert k.frame is None and k == Compactification(F, None)
    c = ConditionResult(1, "x", True)
    assert c.witness is None and c.detail == ""
    r = CompareResult(Ordering.INCOMPARABLE)
    assert r.le_witness is None and r.ge_witness is None
    assert MapClassTag(F, None, True).failing is None


@pytest.mark.parametrize("build, message", [
    (lambda: Basis(3, ()), "basis lattice must be a PcdLattice, not int"),
    (lambda: Basis(L, [2]), "basis index 2 out of range"),
    (lambda: Basis(L, ["a"]), "basis index 'a' is not an integer"),
    (lambda: Basis(L, 5), "basis elements must be a collection"),
    (lambda: Cover(-1, ()), "cover target -1 out of range"),
    (lambda: Cover(1.5, ()), "cover target 1.5 is not an integer"),
    (lambda: Cover(0, [None]), "cover part None is not an integer"),
    (lambda: Cover(0, 7), "cover parts must be a collection"),
    (lambda: RoundIdeal(L, ()), "carrier must be a Basis, not PcdLattice"),
    (lambda: RoundIdeal(B, [5]), "ideal member 5 out of range"),
    (lambda: RoundIdeal(B, 5), "ideal members must be a collection"),
    (lambda: Compactification(B), "compactification map must be a ContinuousMap, not Basis"),
    (lambda: Compactification(F, B),
     "compactification frame must be a RoundIdealFrame, not Basis"),
], ids=["basis-lattice", "basis-range", "basis-index", "basis-items", "cover-target",
        "cover-target-type", "cover-part", "cover-parts", "ideal-carrier", "ideal-range",
        "ideal-items", "compactification-map", "compactification-frame"])
def test_constructor_messages(build, message):
    with pytest.raises(MalformedInput) as info:
        build()
    assert str(info.value) == message
