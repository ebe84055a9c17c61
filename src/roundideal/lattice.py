"""Finite pseudocomplemented distributive lattices.

A lattice is given by element labels and an order matrix; bounds, meet and
join tables and pseudocomplements are derived eagerly but defensively, so
that ``validate`` can report every violated axiom instead of crashing on bad
input.  All subsequent operations require a valid lattice.

Sizes are desk scale (cap: ``MAX_ELEMENTS`` = 64 elements, enforced where
lattice documents are read); the O(n^3) axiom checks are run in full rather
than sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import fixpoint
from .errors import MalformedInput, NotACoverError, PreconditionError
from .relation import Relation, well_inside_pairs

MAX_ELEMENTS = 64


class PcdLattice:
    """A finite bounded distributive lattice with pseudocomplements.

    Fields after construction: ``n``, ``names``, ``bottom``, ``top``,
    ``meet``/``join`` (n x n index tables), ``pstar`` (pseudocomplement
    vector).  Entries are None when the underlying order fails to produce
    them; ``validate`` explains why.
    """

    def __init__(self, names, leq, name="lattice"):
        names = tuple(str(x) for x in names)
        n = len(names)
        if len(set(names)) != n:
            raise MalformedInput("duplicate element labels")
        if len(leq) != n or any(len(row) != n for row in leq):
            raise MalformedInput(f"order matrix must be {n} x {n}")
        self.n = n
        self.names = names
        self.name = str(name)
        self._index = {label: i for i, label in enumerate(names)}
        # bit j of _up[i] says i <= j; _down is the transpose
        self._up = [0] * n
        self._down = [0] * n
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    self._up[i] |= 1 << j
                    self._down[j] |= 1 << i
        self._analyze()
        self._report = None

    # -- derived structure ------------------------------------------------

    def _analyze(self):
        n = self.n
        full = (1 << n) - 1
        bottoms = [i for i in range(n) if self._up[i] == full]
        tops = [i for i in range(n) if self._down[i] == full]
        self.bottom = bottoms[0] if len(bottoms) == 1 else None
        self.top = tops[0] if len(tops) == 1 else None
        self.meet = [[self._bound(i, j, self._down) for j in range(n)] for i in range(n)]
        self.join = [[self._bound(i, j, self._up) for j in range(n)] for i in range(n)]
        self.pstar = [self._pstar_of(y) for y in range(n)]

    def _bound(self, i, j, cone):
        # glb when cone=_down, lub when cone=_up: the member of the common
        # cone whose own cone covers all of it
        common = cone[i] & cone[j]
        found = None
        k = 0
        rest = common
        while rest:
            if rest & 1:
                if common & ~cone[k] == 0:
                    if found is not None:
                        return None
                    found = k
            rest >>= 1
            k += 1
        return found

    def _pstar_of(self, y):
        if self.bottom is None:
            return None
        disjoint = []
        for c in range(self.n):
            m = self.meet[c][y]
            if m is None:
                return None
            if m == self.bottom:
                disjoint.append(c)
        return self.join_all(disjoint)

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        return bool(self._up[i] & (1 << j))

    def order_matrix(self):
        """The order as a tuple-of-tuples truth matrix."""
        return tuple(
            tuple(self.leq(i, j) for j in range(self.n)) for i in range(self.n)
        )

    def down_list(self, i):
        return [j for j in range(self.n) if self.leq(j, i)]

    def up_list(self, i):
        return [j for j in range(self.n) if self.leq(i, j)]

    def element(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise MalformedInput(f"unknown element label {label!r}") from None

    def join_all(self, items):
        """Join of a finite family; the empty join is the bottom."""
        out = self.bottom
        for x in items:
            if out is None:
                return None
            out = self.join[out][x]
        return out

    def meet_all(self, items):
        """Meet of a finite family; the empty meet is the top."""
        out = self.top
        for x in items:
            if out is None:
                return None
            out = self.meet[out][x]
        return out

    def covers(self):
        """Cover pairs (i, j) with j directly above i, for Hasse output."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if i == j or not self.leq(i, j):
                    continue
                between = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out

    # -- validation --------------------------------------------------------

    def validate(self):
        """Report of violated axioms; empty means valid.  Cached."""
        if self._report is not None:
            return list(self._report)
        names = self.names
        n = self.n
        report = []
        for i in range(n):
            if not self.leq(i, i):
                report.append(f"reflexivity fails at {names[i]}")
                break
        for i in range(n):
            hit = next(
                (j for j in range(n) if i != j and self.leq(i, j) and self.leq(j, i)),
                None,
            )
            if hit is not None:
                report.append(f"antisymmetry fails at ({names[i]}, {names[hit]})")
                break
        trans = next(
            (
                (i, j, k)
                for i in range(n)
                for j in range(n)
                if self.leq(i, j)
                for k in range(n)
                if self.leq(j, k) and not self.leq(i, k)
            ),
            None,
        )
        if trans is not None:
            i, j, k = trans
            report.append(f"transitivity fails at ({names[i]}, {names[j]}, {names[k]})")
        if self.bottom is None:
            report.append("no bottom element")
        if self.top is None:
            report.append("no top element")
        missing_meet = next(
            ((i, j) for i in range(n) for j in range(n) if self.meet[i][j] is None),
            None,
        )
        if missing_meet:
            i, j = missing_meet
            report.append(f"no greatest lower bound for ({names[i]}, {names[j]})")
        missing_join = next(
            ((i, j) for i in range(n) for j in range(n) if self.join[i][j] is None),
            None,
        )
        if missing_join:
            i, j = missing_join
            report.append(f"no least upper bound for ({names[i]}, {names[j]})")
        if not report:
            report.extend(self._check_distributive())
            report.extend(self._check_pseudocomplements())
        self._report = tuple(report)
        return report

    def _check_distributive(self):
        n, meet, join, names = self.n, self.meet, self.join, self.names
        for x in range(n):
            mx = meet[x]
            for y in range(n):
                for z in range(n):
                    if mx[join[y][z]] != join[mx[y]][mx[z]]:
                        return [
                            "distributivity fails at "
                            f"({names[x]}, {names[y]}, {names[z]})"
                        ]
        return []

    def _check_pseudocomplements(self):
        # pstar is the join of all elements disjoint from y, so maximality can
        # only fail through disjointness of that join itself
        names = self.names
        for y in range(self.n):
            s = self.pstar[y]
            if s is None or self.meet[y][s] != self.bottom:
                return [f"pseudocomplement fails at {names[y]}: y and y* do not meet at 0"]
            for c in range(self.n):
                if (self.meet[c][y] == self.bottom) != self.leq(c, s):
                    return [
                        f"pseudocomplement fails at {names[y]}: "
                        f"{names[c]} disjoint from y does not match c <= y*"
                    ]
        return []

    @property
    def is_valid(self):
        return not self.validate()

    def require_valid(self):
        report = self.validate()
        if report:
            raise PreconditionError(f"invalid lattice: {report[0]}")

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PcdLattice):
            return NotImplemented
        return self.names == other.names and self._up == other._up

    def __hash__(self):
        return hash((self.names, tuple(self._up)))

    def __repr__(self):
        return f"PcdLattice({self.name!r}, n={self.n})"


@dataclass(frozen=True)
class Basis:
    """A distinguished subset of a lattice.

    Also used for pcd-sublattice carriers that do not generate the whole
    lattice; ``is_basis`` tells the two roles apart.
    """

    lattice: PcdLattice
    elements: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", frozenset(self.elements))
        for x in self.elements:
            if not 0 <= x < self.lattice.n:
                raise MalformedInput(f"basis index {x} out of range")

    def sorted_elements(self):
        return sorted(self.elements)

    def is_basis(self):
        """Every lattice element is the join of the basis elements below it."""
        lat = self.lattice
        for x in range(lat.n):
            below = [b for b in self.sorted_elements() if lat.leq(b, x)]
            if lat.join_all(below) != x:
                return False
        return True

    def is_sub_pcd(self):
        """Contains the bounds and is closed under meet, join and star."""
        lat = self.lattice
        els = self.elements
        if lat.bottom not in els or lat.top not in els:
            return False
        for u in els:
            if lat.pstar[u] not in els:
                return False
            for v in els:
                if lat.meet[u][v] not in els or lat.join[u][v] not in els:
                    return False
        return True


def full_basis(lat):
    return Basis(lat, frozenset(range(lat.n)))


@dataclass(frozen=True)
class Cover:
    """A family of parts intended to cover a target element."""

    target: int
    parts: frozenset

    def __post_init__(self):
        object.__setattr__(self, "parts", frozenset(self.parts))


def validate(l):
    """Module-level alias for the axiom report."""
    return l.validate()


def pseudocomplement(l, y):
    """Largest element disjoint from y."""
    l.require_valid()
    return l.pstar[y]


def well_inside(l):
    """The relation of pairs (y, x) with top = x v y*."""
    return Relation(l, well_inside_pairs(l))


def is_regular(l, b):
    """Every basis element is the join of basis elements well-inside it."""
    l.require_valid()
    wi = well_inside_pairs(l)
    for a in b.sorted_elements():
        below = [x for x in b.sorted_elements() if (x, a) in wi]
        if l.join_all(below) != a:
            return False
    return True


def minimal_subcover(l, parts, target):
    """Smallest sub-family of parts joining to target, lowest indices first.

    The empty family is admitted: it covers the top of the degenerate
    one-element lattice.
    """
    parts = sorted(parts)
    if l.join_all(parts) != target:
        raise NotACoverError(
            f"parts do not cover {l.names[target]}"
        )
    for k in range(len(parts) + 1):
        for combo in combinations(parts, k):
            if l.join_all(combo) == target:
                return list(combo)
    raise NotACoverError(f"parts do not cover {l.names[target]}")  # pragma: no cover


def is_compact(l, b, c):
    """Finite subcover witness for a genuine basic cover of the top."""
    l.require_valid()
    if not c.parts <= b.elements:
        raise PreconditionError("cover parts must be basis elements")
    if l.join_all(sorted(c.parts)) != l.top:
        raise NotACoverError("parts do not join to the top")
    return minimal_subcover(l, c.parts, l.top)


def pcd_closure(l, seed):
    """Least subset containing seed, the bounds, and closed under *, meet, join.

    Computed as the least fixpoint of the saturation steps over the element
    universe (binary meet/join steps; the empty join and meet contribute the
    bounds outright).
    """
    l.require_valid()
    seed = sorted(set(seed))
    for x in seed:
        if not 0 <= x < l.n:
            raise MalformedInput(f"seed index {x} out of range")
    universe = fixpoint.Universe(range(l.n))
    steps = [(l.bottom, ()), (l.top, ())]
    steps.extend((s, ()) for s in seed)
    for u in range(l.n):
        steps.append((l.pstar[u], (u,)))
        for v in range(u, l.n):
            steps.append((l.meet[u][v], (u, v)))
            steps.append((l.join[u][v], (u, v)))
    defn = fixpoint.InductiveDefinition(universe, steps)
    return Basis(l, frozenset(fixpoint.lfp(defn)))


# -- constructors ----------------------------------------------------------


def downset_lattice(point_labels, point_leq, name="downsets"):
    """Lattice of downward-closed subsets of a finite poset, ordered by inclusion.

    Always a valid pcd-lattice: a sublattice of a powerset closed under
    intersection and union.  Downsets are ordered by (size, bitmask) and
    labelled by their members.
    """
    k = len(point_labels)
    down = []
    for mask in range(1 << k):
        closed = all(
            not (mask >> j) & 1 or not point_leq[i][j] or (mask >> i) & 1
            for i in range(k)
            for j in range(k)
        )
        if closed:
            down.append(mask)
    down.sort(key=lambda m: (bin(m).count("1"), m))
    names = []
    for mask in down:
        inside = [point_labels[i] for i in range(k) if (mask >> i) & 1]
        names.append("{" + ",".join(inside) + "}")
    leq = [[(a & ~b) == 0 for b in down] for a in down]
    return PcdLattice(names, leq, name=name)


def chain(k, name=None):
    """Total order with k elements."""
    if k < 1:
        raise MalformedInput("chain needs at least one element")
    names = [f"c{i}" for i in range(k)]
    leq = [[i <= j for j in range(k)] for i in range(k)]
    return PcdLattice(names, leq, name=name or f"chain{k}")


def boolean(k, name=None):
    """Boolean algebra of subsets of k atoms (downsets of an antichain)."""
    if not 0 <= k <= 6:
        raise MalformedInput("boolean algebra size capped at 2^6")
    labels = [chr(ord("a") + i) for i in range(k)]
    eye = [[i == j for j in range(k)] for i in range(k)]
    lat = downset_lattice(labels, eye, name=name or f"bool{k}")
    return lat
