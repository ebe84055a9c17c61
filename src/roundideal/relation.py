"""Kernels on binary relations over a pcd-lattice.

Hosts the interpolative core of a relation (of well-inside in particular),
the seven strong-inclusion conditions, least strong inclusions in closed
form, strong regularity (compatibility of the core), and dyadic scales.

A ``Relation`` (defined in ``lattice``, next to the lattices it lives on)
stores one row mask per element: bit b of ``rows[a]`` says (a, b) is
related, and the column masks ``cols`` are derived once, or stored with the
rows by the sandwich that built them.  Every kernel here works on those
masks.  y interpolates in row x exactly when it lies in the row of a member
of row x, so a row's gaps are its bits outside the OR of its members' rows:
one gather, with no column transpose.  The public ``ordered_sandwich`` of
any relation gathers the up cones of a nonempty row's members into one mask
and ORs it into the row of each carrier element below the row's element.

Each strong-inclusion condition is decided by a test on whole rows or
columns:

- (2) every row is up-closed and every column down-closed in the carrier K;
- (3) a nonempty row is a key ``up[m] & K`` of ``lattice._cone_keys``,
  (4) dually a nonempty column a key ``down[j] & K``; as K is closed under
  meet, a row is some ``up[m] & K`` exactly when it is that of its meet,
  and then m is the meet: a pass is sound on any relation, and a failure
  is decisive once (2) holds;
- (5) the stars of a row's members lie in the column of the row's star;
- (7) a row lies inside the OR of its members' rows.

(2), (5) and (7) take one gather and fold per row (``lattice._flags``).
Only a condition whose row test fails is scanned pair by pair, to name its
first failing pair in index order (``lattice._explain``); where the row test
is exact and the scan finds nothing, ``InvariantViolation`` is raised.

The lookups of (3) and (4) already find, for each nonempty row a, the
meet m_a of its members, and for each nonempty column b the join j_b.  When
every row equals ``up[m_a] & K`` and every column ``down[j_b] & K``, three
conditions follow without another gather:

- (2) holds, as ``up[m] & K`` is up-closed in K and ``down[j] & K``
  down-closed in it;
- (5) holds at row a exactly when m_a* relates to a*: m_a is a member of
  the row (K is closed under meets), every star of a member lies in K below
  m_a*, and the column of a* is down-closed in K;
- (7) holds at row a exactly when the row lies inside the row of m_a:
  m_a is in the row, and by (2) the rows of members above m_a lie inside it.

Only a relation that fails the row test of (3) or (4) runs the gathers of
(2), (5) and (7).

On a finite carrier P every strong inclusion <| is an order sandwich
{(x, y) : x <= s <= y, s in S} of its self-related set S.  Interpolating
x <| y again and again must revisit some s; as <| lies inside well-inside
and so inside <=, the whole cycle equals s, so s <| s and x <= s <= y
(condition 2 gives the converse).  Conditions 1, 3, 4 and 5 close S under
0, 1, meet, join and *.  Hence the least strong inclusion holding an
interpolative seed is the sandwich of the ``pcd_closure`` of the seed's
self-related elements, and the interpolative core of well-inside on any
carrier is the sandwich of the carrier elements well-inside themselves.
Both are built from the closure map of S in one pass over the carrier K
(``_sandwich_of``).  Row x is ``up[m] & K`` for m the least element of S
above x, which is the key of ``up[x] & S`` among the principal filters of
S (``lattice._cone_keys``); column x is dually ``down[j] & K`` for j the
greatest element of S below x, the key of ``down[x] & S`` among its
principal ideals.  Rows and columns are stored together, so no sandwich is
transposed.  An empty ``up[x] & S`` gives the empty row; one that is no key,
as when S is not closed under meet (the core of a carrier that is not
closed), gathers the up cones of its members, and dually for columns.  The
least strong inclusion is still checked against all seven conditions, and
the core is asserted interpolative and inside well-inside.  A row that is
a principal filter ``up[m] & K`` of the carrier and lies inside row m has
no gap, as m is in it and interpolates all of it: a relation settled so,
row by row (``_settled``), skips the gap scan, which runs on any other
relation and names its first gap.  The core's assertion and the least
strong inclusion's seed check both start with it.
``largest_interpolative`` keeps its pruning loop, as it takes relations
that need not lie inside the order.

Reports, sandwiches, least strong inclusions and cores are derived once per
value in the memo their lattice keeps (``PcdLattice.once``): a report per
(relation rows, carrier), a sandwich per (self-related set, carrier), a
least strong inclusion per (seed rows, carrier), a core per carrier.  The
complemented elements of a closed carrier are closed, so there the core is
its own least strong inclusion, one ``Relation``.  Strong regularity is
the core's compatibility verdict, memoised per (core rows, carrier).
Argument checks run on every call, before the lookup; a report's stray
pairs and a least strong inclusion's seed checks (pairs outside
well-inside or the carrier, uninterpolated pairs) depend on the key alone
and run inside the derivation, which stores nothing when it raises.  A
least strong inclusion, whose entry has checked the lattice and the
carrier, reaches its closure and its postcondition's report through their
kernels (``lattice._closure``, ``_report``), with the same memo keys and
the report's stray-pair check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_

from .errors import (
    InvariantViolation,
    MalformedInput,
    NoScaleError,
    PreconditionError,
)
from .lattice import (
    Basis,
    PcdLattice,
    Relation,
    _Value,
    _bits,
    _checked_carrier,
    _closure,
    _cone_keys,
    _explain,
    _flags,
    _index,
    _is_compatible,
    _items,
    _lowest,
    _mask,
    _require_type,
    well_inside,
)


class ConditionResult(_Value):
    _fields = ("number", "name", "holds", "witness", "detail")

    def __init__(self, number, name, holds, witness=None, detail=""):
        self.__dict__.update(number=number, name=name, holds=holds, witness=witness, detail=detail)


class SiReport(_Value):
    """Outcome of the seven strong-inclusion conditions, with counterexamples.

    ``names`` are the element labels of the lattice, by which every witness
    is printed.
    """

    _fields = ("conditions", "names")

    def __init__(self, conditions, names):
        self.__dict__.update(conditions=conditions, names=names)

    @property
    def ok(self):
        return all(c.holds for c in self.conditions)

    def failed(self):
        return [c for c in self.conditions if not c.holds]

    def condition(self, number):
        """The result of condition ``number``, 1 to 7."""
        k = _index(number, len(self.conditions) + 1, "condition number")
        if not k:
            raise MalformedInput("condition number 0 out of range")
        return self.conditions[k - 1]

    def _at(self, c):
        """The witness of the failed condition ``c``, by label."""
        return "(" + ", ".join(self.names[x] for x in c.witness) + ")"

    def __str__(self):
        lines = []
        for c in self.conditions:
            status = "pass" if c.holds else f"FAIL at {self._at(c)}: {c.detail}"
            lines.append(f"condition {c.number} ({c.name}): {status}")
        return "\n".join(lines)


class Scale(_Value):
    """A dyadic-indexed chain s(0)=start, s(1)=end with s(p) well-inside s(q) for p<q.

    Its fields are checked for shape: a lattice, a depth in 0..16 and
    2^depth + 1 element indices of the lattice, held as a tuple of ints.
    """

    _fields = ("lattice", "depth", "values")

    def __init__(self, lattice, depth, values):
        _require_type(lattice, PcdLattice, "scale lattice")
        values = tuple(_index(v, lattice.n, "scale value") for v in _items(values, "scale values"))
        if len(values) != 2 ** _checked_depth(depth) + 1:
            raise MalformedInput(f"a scale of depth {depth} has {2 ** depth + 1} values")
        self.__dict__.update(lattice=lattice, depth=depth, values=values)

    def as_fractions(self):
        d = 2 ** self.depth
        return {Fraction(k, d): v for k, v in enumerate(self.values)}


def _checked_depth(depth):
    """``depth``, a scale depth: MalformedInput unless an int in 0..16."""
    _require_type(depth, int, "scale depth")
    if not 0 <= depth <= 16:
        raise MalformedInput("scale depth must be between 0 and 16")
    return depth


def _uninterpolated(rel):
    """Pairs (x, y) of ``rel``, in index order, with no z such that x rel z rel y.

    A row's gaps are its bits outside the OR of its members' rows.
    """
    rows = rel.rows
    n = len(rows)
    for x, row in enumerate(rows):
        if row & (row - 1):
            gaps = row & ~reduce(or_, compress(rows, _flags(row, n)))
        elif row:
            gaps = row & ~rows[_lowest(row)]
        else:
            continue
        for y in _bits(gaps):
            yield x, y


def _settled(rows, filters):
    """Whether every nonempty row is a key ``up[m] & K`` of the carrier's
    ``filters`` (``lattice._cone_keys``) lying inside row m: then no row has
    a gap, as m is in the row and interpolates all of it."""
    return all(row in filters and not row & ~rows[filters[row]] for row in rows if row)


def _first_missing(rows, allowed):
    """First (a, b) in index order with bit b set in rows[a] but not in allowed[a]."""
    return next(
        ((a, _lowest(row & ~ok)) for a, (row, ok) in enumerate(zip(rows, allowed))
         if row & ~ok),
        None,
    )


def _square(keep, n):
    """Row masks of the full relation on the elements of the mask ``keep``."""
    return [keep if keep >> a & 1 else 0 for a in range(n)]


def largest_interpolative(r):
    """Largest subrelation of ``r`` in which every pair admits an interpolant.

    The greatest fixpoint of "(x, z) stays when some (x, y) and (y, z) stay":
    each round drops every pair whose row and column masks no longer meet,
    until a round drops nothing.
    """
    _require_type(r, Relation, "relation")
    r.lattice.require_valid()
    while True:
        dropped = list(_uninterpolated(r))
        if not dropped:
            return r
        rows = list(r.rows)
        for x, z in dropped:
            rows[x] &= ~(1 << z)
        r = Relation._from_rows(r.lattice, rows, r.carrier)


def _require_sub_pcd(basis):
    """``Basis.is_sub_pcd`` as a requirement, on a lattice its caller validated."""
    if _closure(basis.lattice, basis.elements).mask != basis.mask:
        raise PreconditionError(
            "carrier is not closed under meet, join and pseudocomplement"
        )


def _result(number, name, failure):
    """The condition's result from its first ``(witness, detail)`` failure, or None."""
    if failure is None:
        return ConditionResult(number, name, True)
    return ConditionResult(number, name, False, *failure)


def check_strong_inclusion(si, on):
    """Evaluate the seven strong-inclusion conditions of ``si`` on ``on``.

    ``on`` must be closed as a pcd-sublattice and ``si`` must live inside
    ``on x on``.  Every condition is checked exhaustively; the first failing
    pair in index order is reported as the counterexample.  The report is
    derived once per (rows, carrier) on the lattice and shared.
    """
    _require_type(si, Relation, "relation")
    _require_type(on, Basis, "carrier")
    lat = si.lattice
    lat.require_valid()
    if on.lattice != lat:
        raise MalformedInput("relation and carrier live on different lattices")
    _require_sub_pcd(on)
    return _report(si, on)


def _report(si, on):
    """``check_strong_inclusion`` of a relation on a valid lattice and a closed
    carrier on it, both checked by the caller: the memo lookup of its report."""
    lat = si.lattice

    def derive():
        # a stray pair is decided by the key alone, and raising stores nothing
        stray = _first_missing(si.rows, _square(on.mask, lat.n))
        if stray is not None:
            a, b = stray
            raise PreconditionError(f"pair ({lat.names[a]}, {lat.names[b]}) leaves the carrier")
        return _strong_inclusion_report(si, on.mask)

    return lat.once(("si_report", si.rows, on.elements), derive)


def _require_strong_inclusion(si, p, error, what, check=check_strong_inclusion):
    """Raise ``error`` naming the first failed condition of ``si`` on ``p``, by
    label, from the report of ``check`` (``_report`` where ``p`` is checked)."""
    report = check(si, p)
    if not report.ok:
        bad = report.failed()[0]
        raise error(f"{what}: condition {bad.number} ({bad.name}) fails at {report._at(bad)}")


def _strong_inclusion_report(si, keep):
    """The seven conditions of ``si`` on the carrier mask ``keep``, uncached.

    Each of conditions 2 to 5 is first decided by a test on whole rows (or
    columns) of masks, a dict lookup for (3) and (4) and one C-level gather
    otherwise; only a condition that fails it is scanned pair by pair, to
    name the first failing pair in index order; condition 7's row gathers
    yield the gaps themselves.  When every lookup of (3) and (4) hits, (2)
    holds and (5) and (7) take one bit test per row, on the meets found
    (see the module docstring).
    """
    lat = si.lattice
    names, n = lat.names, lat.n
    rows, cols = si.rows, si.cols
    meet, join, pstar = lat.meet, lat.join, lat.pstar
    up, down = lat._up, lat._down
    # the nonempty rows and columns
    live_rows = [(a, row) for a, row in enumerate(rows) if row]
    live_cols = [col for col in cols if col]

    def sandwich():
        for a, row in enumerate(rows):
            for b in _bits(row):
                need = up[b] & keep
                for x in _bits(down[a] & keep):
                    if need & ~rows[x]:
                        yield (x, _lowest(need & ~rows[x])), \
                            f"derived from ({names[a]}, {names[b]})"

    # meets and joins are symmetric, so the first failing (a, b) has a <= b
    def meets():
        for x, row in enumerate(rows):
            for a in _bits(row):
                ma = meet[a]
                for b in _bits(row >> a << a):
                    if not row >> ma[b] & 1:
                        yield (x, ma[b]), f"from ({names[x]})<|both"

    def joins():
        for a, col in enumerate(cols):
            for x in _bits(col):
                jx = join[x]
                for y in _bits(col >> x << x):
                    if not col >> jx[y] & 1:
                        yield (jx[y], a), f"joint lower bounds of {names[a]}"

    def stars():
        for a, b in si:
            if not rows[pstar[b]] >> pstar[a] & 1:
                yield (pstar[b], pstar[a]), f"stars of ({names[a]}, {names[b]})"

    # (3) a row closed under meets is a principal filter of the carrier, the
    # key of its meet, and (4) dually a column a principal ideal.  As the
    # carrier is closed under meet and join, passing is sound on any
    # relation; failing is decisive only when (2) holds, since otherwise the
    # row need not be up-closed.
    filters, ideals = _cone_keys(lat, keep)
    lows = [filters.get(row) for _, row in live_rows]
    meets_close = None not in lows
    joins_close = all(col in ideals for col in live_cols)
    if meets_close and joins_close:
        # rows are up[m] & K and columns down[j] & K, so (2) holds, and the
        # row's meet m is its least member: (5) and (7) are one bit test each
        sandwiched = True
        stars_reverse = all(
            rows[pstar[m]] >> pstar[a] & 1 for (a, _), m in zip(live_rows, lows)
        )
        interpolated = not any(row & ~rows[m] for (_, row), m in zip(live_rows, lows))
        gap = None if interpolated else _explain(_uninterpolated(si), f"{lat.name}: condition 7")
    else:
        row_flags = [_flags(row, n) for _, row in live_rows]
        col_flags = [_flags(col, n) for col in live_cols]
        # (2) every row is up-closed in the carrier and every column
        # down-closed in it (rows shrink as their element grows)
        sandwiched = not any(
            reduce(or_, compress(up, f), 0) & keep & ~row
            for (_, row), f in zip(live_rows, row_flags)
        ) and not any(
            reduce(or_, compress(down, f), 0) & keep & ~col
            for col, f in zip(live_cols, col_flags)
        )
        # (5) the stars of a row's members lie in the column of its star
        star_bits = [1 << s for s in pstar]
        stars_reverse = not any(
            reduce(or_, compress(star_bits, f), 0) & ~cols[pstar[a]]
            for (a, _), f in zip(live_rows, row_flags)
        )
        gap = next(_uninterpolated(si), None)

    bounds = next(
        (q for q in ((lat.bottom, lat.bottom), (lat.top, lat.top)) if q not in si),
        None,
    )
    outside = _first_missing(rows, well_inside(lat).rows)
    return SiReport((
        _result(1, "bounds are self-related",
                bounds and (bounds, "0<|0 or 1<|1 missing")),
        _result(2, "order sandwich", None if sandwiched
                else _explain(sandwich(), f"{lat.name}: condition 2")),
        _result(3, "meets on the right", None if meets_close
                else _explain(meets(), f"{lat.name}: condition 3", sandwiched)),
        _result(4, "joins on the left", None if joins_close
                else _explain(joins(), f"{lat.name}: condition 4", sandwiched)),
        _result(5, "star reversal", None if stars_reverse
                else _explain(stars(), f"{lat.name}: condition 5")),
        _result(6, "contained in well-inside",
                outside and (outside, "pair is not well-inside")),
        _result(7, "interpolation", gap and (gap, "no interpolant")),
    ), names)


def least_strong_inclusion(p, seed):
    """Close an interpolating seed inside well-inside under conditions 1 to 5.

    The closure is the order sandwich of the ``pcd_closure`` of the seed's
    self-related elements (see the module docstring).  The result is a
    strong inclusion on ``p`` (all seven conditions; checked when first
    derived).  It is derived once per (seed rows, carrier) on the lattice
    and shared.
    """
    _require_type(p, Basis, "carrier")
    _require_type(seed, Relation, "seed")
    lat = p.lattice
    lat.require_valid()
    if seed.lattice != lat:
        raise MalformedInput("seed and carrier live on different lattices")
    _require_sub_pcd(p)
    return lat.once(("least_si", seed.rows, p.elements),
                    lambda: _least_strong_inclusion(p, seed, p.mask))


def _least_strong_inclusion(p, seed, keep):
    """The sandwich of the closure of the seed's self-related elements, checked, uncached.

    The seed's checks depend on the key alone, so they run here, and a seed
    that fails them stores nothing.
    """
    lat = p.lattice
    names, square = lat.names, _square(keep, lat.n)
    wi = well_inside(lat).rows
    bad = _first_missing(seed.rows, [s & w for s, w in zip(square, wi)])
    if bad is not None:
        a, b = bad
        why = "is not well-inside" if square[a] >> b & 1 else "leaves the carrier"
        raise PreconditionError(f"seed pair ({names[a]}, {names[b]}) {why}")
    # a seed settled by its cone keys has no gap; only another one is scanned
    gap = None if _settled(seed.rows, _cone_keys(lat, keep)[0]) else next(
        _uninterpolated(seed), None)
    if gap is not None:
        a, b = gap
        raise PreconditionError(
            f"seed pair ({names[a]}, {names[b]}) has no interpolant in the seed"
        )
    selves = _closure(lat, frozenset(a for a in p.elements if seed.rows[a] >> a & 1))
    result = _sandwich(lat, selves.mask, p)
    _require_strong_inclusion(result, p, InvariantViolation,
                              "closure is not a strong inclusion", _report)
    return result


def interpolative_core_on_basis(l, b):
    """Largest interpolative subrelation of well-inside restricted to ``b``.

    The sandwich of the elements of ``b`` well-inside themselves (see the
    module docstring).  Derived once per carrier on the lattice and shared.
    """
    _require_type(l, PcdLattice, "lattice")
    _require_type(b, Basis, "basis")
    if b.lattice != l:
        raise MalformedInput("basis belongs to another lattice")
    return l.once(("core", b.elements), lambda: _interpolative_core(l, b))


def _interpolative_core(l, b):
    """The core on the carrier ``b``, uncached; asserted interpolative and well-inside."""
    wi = well_inside(l).rows
    core = _sandwich(l, _mask(a for a in b.elements if wi[a] >> a & 1), b)
    rows = core.rows
    settled = _settled(rows, _cone_keys(l, b.mask)[0])
    gap = (None if settled else next(_uninterpolated(core), None)) or _first_missing(rows, wi)
    if gap is not None:
        a, c = gap
        raise InvariantViolation(
            f"core pair ({l.names[a]}, {l.names[c]}) is uninterpolated or not well-inside"
        )
    return core


def is_strongly_regular_basis(l, b):
    """Every basis element is the join of elements core-below it.

    Compatibility of the core on ``b`` (``lattice._is_compatible``), decided
    once per carrier; the argument checks run on every call, through the
    core's lookup.
    """
    return _is_compatible(b, interpolative_core_on_basis(l, b))


def ordered_sandwich(rel, carrier=None):
    """Pairs (x, y) on the carrier with x <= u, (u, v) in rel, v <= y.

    With the relation's own carrier this is the identity on interpolative
    cores; with the full carrier it computes the least extension of a strong
    inclusion to the whole lattice.
    """
    _require_type(rel, Relation, "relation")
    lat = rel.lattice
    lat.require_valid()
    carrier = rel.carrier if carrier is None else _checked_carrier(lat, carrier)
    keep = _mask(carrier)
    n, up, down = lat.n, lat._up, lat._down
    rows = [0] * n
    for u, row in enumerate(rel.rows):
        if row:
            # everything above an element u relates to, gathered in one pass
            # (a single one's up cone read as it is), goes into the row of
            # each carrier element below u
            above = keep & (reduce(or_, compress(up, _flags(row, n))) if row & (row - 1)
                            else up[_lowest(row)])
            for x in _bits(down[u] & keep):
                rows[x] |= above
    return Relation._from_rows(lat, rows, carrier)


def _sandwich(lat, selves, p):
    """The order sandwich of the diagonal on the mask ``selves``, a subset of
    the carrier ``p``, on ``p``; memoised."""
    return lat.once(("sandwich", selves, p.elements), lambda: _sandwich_of(lat, selves, p))


def _sandwich_of(lat, selves, p):
    """``_sandwich``, uncached, with its columns: one pass over the carrier K.

    Row x is ``up[m] & K`` for m the least element of S = ``selves`` above x,
    the key of ``up[x] & S`` among the principal filters of S, and column x
    dually ``down[j] & K``.  A set of S that is no key (S is not closed
    under meet or join) ORs the cones of its members; an empty S has every
    row and column empty and derives no keys.
    """
    n, up, down, keep = lat.n, lat._up, lat._down, p.mask
    filters, ideals = _cone_keys(lat, selves) if selves else ({}, {})
    rows, cols = [0] * n, [0] * n
    for x in p.elements:
        if above := up[x] & selves:
            m = filters.get(above)
            rows[x] = keep & (up[m] if m is not None
                              else reduce(or_, compress(up, _flags(above, n))))
        if below := down[x] & selves:
            j = ideals.get(below)
            cols[x] = keep & (down[j] if j is not None
                              else reduce(or_, compress(down, _flags(below, n))))
    return Relation._from_rows(lat, rows, p.elements, tuple(cols))


def build_scale(si, y, x, depth):
    """Chain from y to x over dyadic rationals of the given depth.

    Midpoints are chosen by repeated interpolation inside ``si``, lowest
    element index first.  Requires ``si`` interpolative and contained in
    well-inside; raises NoScaleError when (y, x) is not related.  The
    postcondition (every value well-inside every later one) compares each
    value with the distinct values before it, one mask test per position.
    """
    _require_type(si, Relation, "relation")
    lat = si.lattice
    lat.require_valid()
    _checked_depth(depth)
    y, x = (_index(v, lat.n, "scale endpoints: element") for v in (y, x))
    names = lat.names
    wi = well_inside(lat)
    stray = _first_missing(si.rows, wi.rows)
    if stray is not None:
        a, b = stray
        raise PreconditionError(f"relation pair ({names[a]}, {names[b]}) is not well-inside")
    gap = next(_uninterpolated(si), None)
    if gap is not None:
        a, b = gap
        raise PreconditionError(f"relation pair ({names[a]}, {names[b]}) has no interpolant")
    if (y, x) not in si:
        raise NoScaleError(
            f"({names[y]}, {names[x]}) is not in the relation; no scale exists"
        )
    rows, cols = si.rows, si.cols
    seq = [y, x]
    for _ in range(depth):
        refined = [y]
        for u, v in zip(seq, seq[1:]):
            refined += (_lowest(rows[u] & cols[v]), v)
        seq = refined
    earlier = 0
    for j, a in enumerate(seq):
        stray = earlier & ~wi.cols[a]
        if stray:
            e = _lowest(stray)
            raise InvariantViolation(
                f"scale value {names[e]} at position {seq.index(e)} is not "
                f"well-inside {names[a]} at position {j}"
            )
        earlier |= 1 << a
    return Scale(lat, depth, tuple(seq))
