"""Binary relations over a pcd-lattice.

Hosts the well-inside relation and its interpolative core, the seven
strong-inclusion conditions, inductively generated least strong inclusions,
strong-regularity predicates, and dyadic scales.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import fixpoint
from .errors import (
    InvariantViolation,
    MalformedInput,
    NoScaleError,
    PreconditionError,
)


class Relation:
    """A set of index pairs over a lattice, together with its carrier set.

    The carrier records which sublattice the relation is considered on;
    equality ignores it and compares the pair sets (matrix equality).
    """

    def __init__(self, lattice, pairs, carrier=None):
        self.lattice = lattice
        if carrier is None:
            carrier = frozenset(range(lattice.n))
        else:
            carrier = frozenset(carrier)
            for x in carrier:
                if not 0 <= x < lattice.n:
                    raise MalformedInput(f"carrier index {x} out of range")
        self.carrier = carrier
        pairs = frozenset((int(a), int(b)) for a, b in pairs)
        for a, b in pairs:
            if a not in carrier or b not in carrier:
                raise MalformedInput(f"pair ({a}, {b}) outside the carrier")
        self.pairs = pairs

    def __contains__(self, pair):
        return tuple(pair) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.lattice == other.lattice and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.lattice, self.pairs))

    def __repr__(self):
        names = self.lattice.names
        inner = ", ".join(f"({names[a]},{names[b]})" for a, b in sorted(self.pairs))
        return f"Relation{{{inner}}}"

    def restricted_to(self, carrier):
        carrier = frozenset(carrier)
        kept = {(a, b) for a, b in self.pairs if a in carrier and b in carrier}
        return Relation(self.lattice, kept, carrier)

    def with_carrier(self, carrier):
        return Relation(self.lattice, self.pairs, carrier)



def well_inside_pairs(lat):
    """Pairs (y, x) with top = x v y*, as a raw set of index pairs."""
    cached = getattr(lat, "_wi_pairs", None)
    if cached is not None:
        return cached
    lat.require_valid()
    top, join, pstar = lat.top, lat.join, lat.pstar
    n = lat.n
    pairs = frozenset(
        (y, x) for y in range(n) for x in range(n) if join[x][pstar[y]] == top
    )
    lat._wi_pairs = pairs
    return pairs


@dataclass(frozen=True)
class ConditionResult:
    number: int
    name: str
    holds: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class SiReport:
    """Outcome of the seven strong-inclusion conditions, with counterexamples."""

    conditions: tuple

    @property
    def ok(self):
        return all(c.holds for c in self.conditions)

    def failed(self):
        return [c for c in self.conditions if not c.holds]

    def condition(self, number):
        return self.conditions[number - 1]

    def __str__(self):
        lines = []
        for c in self.conditions:
            status = "pass" if c.holds else f"FAIL at {c.witness}: {c.detail}"
            lines.append(f"condition {c.number} ({c.name}): {status}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Scale:
    """A dyadic-indexed chain s(0)=start, s(1)=end with s(p) well-inside s(q) for p<q."""

    lattice: object
    depth: int
    values: tuple

    def at(self, k):
        """Value at the dyadic rational k / 2**depth."""
        return self.values[k]

    def as_fractions(self):
        d = 2 ** self.depth
        return {Fraction(k, d): v for k, v in enumerate(self.values)}


def largest_interpolative(r):
    """Largest subrelation of ``r`` in which every pair admits an interpolant.

    Realized as the greatest fixpoint of the definition whose steps justify a
    pair (x, z) from any two-pair set {(x, y), (y, z)} inside r; the Kleene
    iteration prunes non-interpolable pairs until stable.
    """
    r.lattice.require_valid()
    pair_list = sorted(r.pairs)
    universe = fixpoint.Universe(pair_list)
    succ = {}
    for a, b in pair_list:
        succ.setdefault(a, set()).add(b)
    steps = []
    for x, z in pair_list:
        mids = succ.get(x, ())
        for y in mids:
            if (y, z) in r.pairs:
                steps.append(((x, z), ((x, y), (y, z))))
    defn = fixpoint.InductiveDefinition(universe, steps)
    return Relation(r.lattice, fixpoint.gfp(defn), r.carrier)


def _require_sub_pcd(basis):
    if not basis.is_sub_pcd():
        raise PreconditionError(
            "carrier is not closed under meet, join and pseudocomplement"
        )


def check_strong_inclusion(si, on):
    """Evaluate the seven strong-inclusion conditions of ``si`` on ``on``.

    ``on`` must be closed as a pcd-sublattice and ``si`` must live inside
    ``on x on``.  Every condition is checked exhaustively; the first failing
    pair in index order is reported as the counterexample.
    """
    lat = si.lattice
    lat.require_valid()
    if on.lattice != lat:
        raise MalformedInput("relation and carrier live on different lattices")
    _require_sub_pcd(on)
    pset = on.elements
    for a, b in sorted(si.pairs):
        if a not in pset or b not in pset:
            raise PreconditionError(
                f"pair ({lat.names[a]}, {lat.names[b]}) leaves the carrier"
            )
    members = sorted(pset)
    pairs = si.pairs
    meet, join, pstar = lat.meet, lat.join, lat.pstar
    results = []

    missing = [q for q in ((lat.bottom, lat.bottom), (lat.top, lat.top)) if q not in pairs]
    results.append(
        ConditionResult(
            1,
            "bounds are self-related",
            not missing,
            missing[0] if missing else None,
            "" if not missing else "0<|0 or 1<|1 missing",
        )
    )

    down = {a: [x for x in members if lat.leq(x, a)] for a in members}
    up = {b: [y for y in members if lat.leq(b, y)] for b in members}
    c2 = None
    for a, b in sorted(pairs):
        for x in down[a]:
            for y in up[b]:
                if (x, y) not in pairs:
                    c2 = ((x, y), f"derived from ({lat.names[a]}, {lat.names[b]})")
                    break
            if c2:
                break
        if c2:
            break
    results.append(
        ConditionResult(2, "order sandwich", c2 is None, c2[0] if c2 else None,
                        c2[1] if c2 else "")
    )

    by_left = {}
    by_right = {}
    for a, b in pairs:
        by_left.setdefault(a, []).append(b)
        by_right.setdefault(b, []).append(a)

    c3 = None
    for x in members:
        rights = sorted(by_left.get(x, ()))
        for a in rights:
            for b in rights:
                if (x, meet[a][b]) not in pairs:
                    c3 = ((x, meet[a][b]), f"from ({lat.names[x]})<|both")
                    break
            if c3:
                break
        if c3:
            break
    results.append(
        ConditionResult(3, "meets on the right", c3 is None, c3[0] if c3 else None,
                        c3[1] if c3 else "")
    )

    c4 = None
    for a in members:
        lefts = sorted(by_right.get(a, ()))
        for x in lefts:
            for y in lefts:
                if (join[x][y], a) not in pairs:
                    c4 = ((join[x][y], a), f"joint lower bounds of {lat.names[a]}")
                    break
            if c4:
                break
        if c4:
            break
    results.append(
        ConditionResult(4, "joins on the left", c4 is None, c4[0] if c4 else None,
                        c4[1] if c4 else "")
    )

    c5 = next(
        (
            ((pstar[b], pstar[a]), f"stars of ({lat.names[a]}, {lat.names[b]})")
            for a, b in sorted(pairs)
            if (pstar[b], pstar[a]) not in pairs
        ),
        None,
    )
    results.append(
        ConditionResult(5, "star reversal", c5 is None, c5[0] if c5 else None,
                        c5[1] if c5 else "")
    )

    wi = well_inside_pairs(lat)
    c6 = next((q for q in sorted(pairs) if q not in wi), None)
    results.append(
        ConditionResult(6, "contained in well-inside", c6 is None, c6,
                        "pair is not well-inside" if c6 else "")
    )

    c7 = next(
        (
            (x, y)
            for x, y in sorted(pairs)
            if not any((x, z) in pairs and (z, y) in pairs for z in members)
        ),
        None,
    )
    results.append(
        ConditionResult(7, "interpolation", c7 is None, c7,
                        "no interpolant" if c7 else "")
    )
    return SiReport(tuple(results))


def least_strong_inclusion(p, seed):
    """Close an interpolating seed inside well-inside under conditions 1 to 5.

    The closure is the least fixpoint of the rule system: seed pairs and the
    self-related bounds enter outright; order sandwiching, meets on the right,
    joins on the left, and star reversal fire until stable.  The result is a
    strong inclusion on ``p`` (all seven conditions; re-checked before
    returning).
    """
    lat = p.lattice
    lat.require_valid()
    _require_sub_pcd(p)
    pset = p.elements
    members = sorted(pset)
    wi = well_inside_pairs(lat)
    for a, b in sorted(seed.pairs):
        if a not in pset or b not in pset:
            raise PreconditionError(
                f"seed pair ({lat.names[a]}, {lat.names[b]}) leaves the carrier"
            )
        if (a, b) not in wi:
            raise PreconditionError(
                f"seed pair ({lat.names[a]}, {lat.names[b]}) is not well-inside"
            )
    for a, b in sorted(seed.pairs):
        if not any((a, z) in seed.pairs and (z, b) in seed.pairs for z in members):
            raise PreconditionError(
                f"seed pair ({lat.names[a]}, {lat.names[b]}) has no interpolant in the seed"
            )

    meet, join, pstar = lat.meet, lat.join, lat.pstar
    down = {a: [x for x in members if lat.leq(x, a)] for a in members}
    up = {b: [y for y in members if lat.leq(b, y)] for b in members}

    known = set()
    queue = deque()

    def add(pair):
        if pair not in known:
            known.add(pair)
            queue.append(pair)

    add((lat.bottom, lat.bottom))
    add((lat.top, lat.top))
    for pair in sorted(seed.pairs):
        add(pair)

    by_left = {a: [] for a in members}
    by_right = {b: [] for b in members}
    while queue:
        a, b = queue.popleft()
        by_left[a].append(b)
        by_right[b].append(a)
        add((pstar[b], pstar[a]))
        for x in down[a]:
            for y in up[b]:
                add((x, y))
        for b2 in list(by_left[a]):
            add((a, meet[b][b2]))
        for a2 in list(by_right[b]):
            add((join[a][a2], b))

    result = Relation(lat, known, carrier=pset)
    report = check_strong_inclusion(result, p)
    if not report.ok:
        bad = report.failed()[0]
        raise InvariantViolation(
            f"closure is not a strong inclusion: condition {bad.number} fails at {bad.witness}"
        )
    return result


def interpolative_core_on_basis(l, b):
    """Largest interpolative subrelation of well-inside restricted to ``b``."""
    wi = Relation(l, well_inside_pairs(l))
    return largest_interpolative(wi.restricted_to(b.elements))


def is_strongly_regular_basis(l, b):
    """Every basis element is the join of elements core-below it."""
    core = interpolative_core_on_basis(l, b)
    for a in sorted(b.elements):
        below = [x for x in sorted(b.elements) if (x, a) in core.pairs]
        if l.join_all(below) != a:
            return False
    return True


def ordered_sandwich(rel, carrier=None):
    """Pairs (x, y) on the carrier with x <= u, (u, v) in rel, v <= y.

    With the relation's own carrier this is the identity on interpolative
    cores; with the full carrier it computes the least extension of a strong
    inclusion to the whole lattice.
    """
    lat = rel.lattice
    lat.require_valid()
    if carrier is None:
        carrier = rel.carrier
    carrier = frozenset(carrier)
    members = sorted(carrier)
    out = set()
    for u, v in sorted(rel.pairs):
        xs = [x for x in members if lat.leq(x, u)]
        ys = [y for y in members if lat.leq(v, y)]
        for x in xs:
            for y in ys:
                out.add((x, y))
    return Relation(lat, out, carrier)


def build_scale(si, y, x, depth):
    """Chain from y to x over dyadic rationals of the given depth.

    Midpoints are chosen by repeated interpolation inside ``si``, lowest
    element index first.  Requires ``si`` interpolative and contained in
    well-inside; raises NoScaleError when (y, x) is not related.
    """
    lat = si.lattice
    lat.require_valid()
    if not 0 <= depth <= 16:
        raise MalformedInput("scale depth must be between 0 and 16")
    wi = well_inside_pairs(lat)
    stray = next((q for q in sorted(si.pairs) if q not in wi), None)
    if stray is not None:
        raise PreconditionError(f"relation pair {stray} is not well-inside")
    members = sorted(si.carrier)
    for a, b in sorted(si.pairs):
        if not any((a, z) in si.pairs and (z, b) in si.pairs for z in members):
            raise PreconditionError(f"relation pair ({a}, {b}) has no interpolant")
    if (y, x) not in si.pairs:
        raise NoScaleError(
            f"({lat.names[y]}, {lat.names[x]}) is not in the relation; no scale exists"
        )
    seq = [y, x]
    for _ in range(depth):
        refined = [seq[0]]
        for u, v in zip(seq, seq[1:]):
            z = next(
                m for m in members if (u, m) in si.pairs and (m, v) in si.pairs
            )
            refined.extend([z, v])
        seq = refined
    scale = Scale(lat, depth, tuple(seq))
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if (a, b) not in wi:
                raise InvariantViolation(
                    f"scale values at positions {i} and later are not well-inside"
                )
    return scale


def really_inside_via_scales(l, b, depth=3):
    """Pairs of basis elements joined by a scale of the given depth."""
    core = interpolative_core_on_basis(l, b)
    found = set()
    for y in sorted(b.elements):
        for x in sorted(b.elements):
            try:
                build_scale(core, y, x, depth)
            except NoScaleError:
                continue
            found.add((y, x))
    return Relation(l, found, b.elements)
