"""Continuous maps between finite frames.

A map from L to M is stored contravariantly: an assignment from a basis of
the target M into L.  The whole-frame inverse-image homomorphism, on a
finite frame a vector, is built with the map: ``ext[a]`` is the join of the
assignment over the basis elements below a, folded through the join table
one step per basis bit of ``down(a)``, lowest first, exactly as ``join_all``
folds (None once an invalid lattice has no join).  Every derivation reads
that vector; ``extend`` is its index-checked public read.  Continuity
reports, extension-class verdicts and sandwich witnesses are derived once
per map value, in the source lattice's memo (``PcdLattice.once``).

The fold specifies every map's vector; the public constructor and
``compose`` compute it.  A map the library builds from its own vectors
(``ContinuousMap._built``) skips the index checks of a caller's map and
takes the vector its caller already holds: the join map its frame's tops,
an extension or mediating map, whose basis is the whole target, its
assignment in index order.  Its continuity is still checked, and over
valid lattices with the basis holding J (below) a vector passing
``_continuous_on`` is the fold: it sends 0 to 0, agrees with the
assignment on the basis and takes c v j to ``ext[c] v ext[j]`` for j in J,
so by induction over the J-elements below a, ``ext[a]`` joins the
assignment over them, and the fold over the basis elements b <= a adds
only ``ext[b]``, that join over the J-elements below b.  A failing
vector is scanned as it stands, as every map's is; a caller that took it
compares it with the fold and, if it is not the fold, takes its verdict
out of the memo (``compactify._require_continuous``).  So the verdict
stored under ``("continuity", (target, assignment))`` is the fold's, and
that key pins a taken vector: an extension's or mediating map's is its
assignment, and the join map's tops are spelled out by the frame's labels
``dn(t)``.

Both verdicts are decided on generators; the per-pair scans run only to
name a failure (``_explain``).  A basis misses part of the target's
join-irreducibles J exactly when it does not generate the target
(``lattice``), so ``_basis_gap`` names the lowest element of J it misses,
and the continuity of such a map is decided by the scans alone.
Continuity, when J lies in the basis: besides the covering, bottom and
basis-agreement tests, ``ext[c v j] == ext[c] v ext[j]`` for every c and
every j in J, and meets on J x J.  Each b is the join of the J-elements
below it, so with ``ext[0] = 0`` induction over them gives every binary
join; distributivity on both sides then gives meets:
``ext(a) ^ ext(b) = V ext(j) ^ ext(k) = V ext(j ^ k) = ext(a ^ b)``.
Extension class: the y well inside x (``y* v x`` the top) form a down-set
that holds 0 and is closed under joins, as
``(y1 v y2)* v x = (y1* v x) ^ (y2* v x)``, so it is the down cone of one
y_x; ``ext`` is monotone, so the pair (y_x, x) decides every pair (y, x).
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import takewhile
from operator import itemgetter
from types import MappingProxyType

from .errors import InvariantViolation, MalformedInput, PreconditionError
from .lattice import (
    Basis,
    PcdLattice,
    Relation,
    _Value,
    _bits,
    _explain,
    _index,
    _lowest,
    _mask,
    _require,
    _require_type,
    full_basis,
    well_inside,
)
from .relation import _require_strong_inclusion


class ContinuousMap:
    """A map L -> M given by its inverse assignment on a basis of M.

    Immutable: ``assignment`` is a read-only view and ``ext`` a tuple.
    ``_key``, the target and the assignment's items, is the map's value in
    every memo key, built once per map.
    """

    def __init__(self, source, target, basis, assignment):
        _require_type(source, PcdLattice, "map source")
        _require_type(target, PcdLattice, "map target")
        _require_type(basis, Basis, "map basis")
        if basis.lattice != target:
            raise MalformedInput("basis must belong to the target lattice")
        if not isinstance(assignment, Mapping):
            raise MalformedInput(f"assignment must be a mapping, not {type(assignment).__name__}")
        assignment = {
            _index(a, target.n, "assignment key"): _index(x, source.n, "assignment value")
            for a, x in assignment.items()
        }
        if set(assignment) != set(basis.elements):
            raise MalformedInput("assignment must cover exactly the target basis")
        self._fill(source, target, basis, assignment)

    @classmethod
    def _built(cls, source, target, basis, assignment, ext=None):
        """The map of an assignment dict the library built from its own vectors:
        in-range indices covering exactly ``basis``, a basis of ``target``.

        ``ext``, when given, is the extension vector the caller already
        holds, taken as it stands.  It must be a function of the map's key
        ``(target, assignment)``, which its continuity verdict is stored
        under; the caller's continuity check then passes only when it is the
        fold (module docstring), and the caller drops the failing verdict of
        a vector that is not.  Without ``ext`` the assignment is folded.
        """
        f = cls.__new__(cls)
        f._fill(source, target, basis, assignment, ext)
        return f

    def _fill(self, source, target, basis, assignment, ext=None):
        self.source = source
        self.target = target
        self.basis = basis
        self.assignment = MappingProxyType(assignment)
        self._key = (target, frozenset(assignment.items()))
        if ext is None:
            join, basis_mask = source.join, _mask(assignment)
            image = {1 << b: x for b, x in assignment.items()}
            ext = []
            for down in target._down:
                value, rest = source.bottom, basis_mask & down
                while rest and value is not None:
                    low = rest & -rest
                    value = join[value][image[low]]
                    rest ^= low
                ext.append(value)
        self.ext = tuple(ext)

    @classmethod
    def identity(cls, lat):
        b = full_basis(lat)
        return cls(lat, lat, b, {a: a for a in range(lat.n)})

    def __call__(self, a):
        """Inverse image of a target basis element."""
        a = _index(a, self.target.n, "basis element")
        if a not in self.assignment:
            raise MalformedInput(f"{self.target.names[a]} is not a basis element of the map")
        return self.assignment[a]

    def __repr__(self):
        return f"ContinuousMap({self.source.name} -> {self.target.name})"

    def __eq__(self, other):
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.basis == other.basis
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.source, self.target, self.ext))


class MapClassTag(_Value):
    """Whether a strong inclusion is finer than a map's well-inside preimages."""

    _fields = ("map", "si", "finer", "failing")

    def __init__(self, map, si, finer, failing=None):
        self.__dict__.update(map=map, si=si, finer=finer, failing=failing)

    @property
    def witnesses(self):
        """((y, x), (p, q)) per well-inside pair of the target, in order, up
        to ``failing``; derived once per key, when first read."""
        si, f = self.si, self.map
        return f.source.once(("witnesses", si.rows, si.carrier, f._key),
                             lambda: _witness_search(si, f))


def extend(f, a):
    """Whole-frame inverse image: join over basis elements below ``a``."""
    _require_type(f, ContinuousMap, "map")
    return f.ext[_index(a, f.target.n, "target element")]


def validate_map(f):
    """Report of violated continuity conditions; empty means valid.

    The third condition quantifies over arbitrary basis subfamilies; at
    finite scale it collapses to monotonicity on the basis plus binary-join
    preservation of the derived extension, which is what gets checked.

    The meets condition compares f(a) ^ f(b) with the join of f(c) over the
    basis elements c below both a and b.  In a valid target those are
    exactly the basis elements below a ^ b, so the right-hand side is
    ``f.ext[a ^ b]``.

    The report is computed once per map value on the source lattice, keyed
    by the target lattice and the assignment (``f._key``); every call
    returns a fresh list.
    """
    return list(_continuity(f))


def _continuity(f):
    """``validate_map``'s report as the memoised tuple itself, not a copy."""
    _require_type(f, ContinuousMap, "map")
    return f.source.once(("continuity", f._key), lambda: tuple(_continuity_report(f)))


def _continuity_report(f):
    """The violated continuity conditions of ``f``, uncached: decided on the
    join-irreducibles when the basis holds them (module docstring)."""
    f.source.require_valid()
    f.target.require_valid()
    gens = f.target._irreducibles
    if gens & ~f.basis.mask:
        return list(_continuity_failures(f))
    if _continuous_on(f, list(_bits(gens))):
        return []
    failures = _continuity_failures(f)
    return [_explain(failures, f"{f!r}: continuity on the join-irreducibles"), *failures]


def _continuous_on(f, gens):
    """Whether ``f`` is continuous, tested on the join-irreducibles ``gens``
    of its target, all of them basis elements."""
    src, tgt, ext = f.source, f.target, f.ext
    if ext[tgt.top] != src.top or ext[tgt.bottom] != src.bottom:
        return False
    for c, x in f.assignment.items():
        if ext[c] != x:
            return False
    # plain loops: C-level row gathers were 2-4x slower at n = 4..256
    for j in gens:
        e = ext[j]
        into, row = src.join[e], tgt.join[j]
        for c, x in enumerate(ext):
            if ext[row[c]] != into[x]:
                return False
        cap, row = src.meet[e], tgt.meet[j]
        for k in gens:
            if ext[row[k]] != cap[ext[k]]:
                return False
    return True


def _continuity_failures(f):
    """The continuity report of ``f`` by per-pair scans, line by line.

    Over valid lattices ``ext[b]`` joins the images of the basis elements
    below b, so the whole basis joins to ``ext[top]``, and the assignment is
    monotone on the basis exactly when ``ext`` agrees with it there: one
    pass over the basis, with the pairs scanned only to name the first
    failure.  Meets and joins are scanned pair by pair in index order.
    """
    src, tgt, ext, asg = f.source, f.target, f.ext, f.assignment
    basis = sorted(f.basis.elements)
    if ext[tgt.top] != src.top:
        yield f"covering: basis images join to {src.names[ext[tgt.top]]}, not the top"
    meets = next(((a, b) for a in basis for b in basis
                  if src.meet[asg[a]][asg[b]] != ext[tgt.meet[a][b]]), None)
    if meets is not None:
        a, b = meets
        lhs, rhs = src.meet[asg[a]][asg[b]], ext[tgt.meet[a][b]]
        yield (
            f"meets: images of ({tgt.names[a]}, {tgt.names[b]}) "
            f"meet at {src.names[lhs]} but common refinements join to {src.names[rhs]}"
        )
    for c in basis:
        if ext[c] != asg[c]:
            a, b = _explain(((a, b) for a in basis for b in basis
                             if tgt.leq(a, b) and not src.leq(asg[a], asg[b])),
                            f"{f!r}: monotonicity on the basis")
            yield f"cover refinement: assignment not monotone at ({tgt.names[a]}, {tgt.names[b]})"
            return
    if ext[tgt.bottom] != src.bottom:
        yield "cover refinement: image of the bottom is not the bottom"
    bad = next(
        (
            (m, b)
            for m in range(tgt.n)
            for b in basis
            if ext[tgt.join[m][b]] != src.join[ext[m]][ext[b]]
        ),
        None,
    )
    if bad is not None:
        m, b = bad
        yield (
            f"cover refinement: extension misses the join of "
            f"({tgt.names[m]}, {tgt.names[b]})"
        )


def require_valid_map(f):
    _require(_continuity(f), PreconditionError, "invalid continuous map")
    gap = _basis_gap(f)
    if gap:
        raise PreconditionError(gap)


def _basis_gap(f):
    """None if the basis of ``f`` generates its valid target, else the line
    naming the lowest join-irreducible it misses, by label."""
    tgt = f.target
    missing = tgt._irreducibles & ~f.basis.mask
    if not missing:
        return None
    return f"map basis does not generate {tgt.name}: it misses {tgt.names[_lowest(missing)]}"


def maps_equal(f, g):
    """Pointwise equality of the derived extensions over the whole target."""
    _require_type(f, ContinuousMap, "map")
    _require_type(g, ContinuousMap, "map")
    return f.source == g.source and f.target == g.target and f.ext == g.ext


def compose(f, g):
    """Composite of f: M -> N after g: L -> M, as a map L -> N."""
    _require_type(f, ContinuousMap, "map")
    _require_type(g, ContinuousMap, "map")
    if g.target != f.source:
        raise MalformedInput("middle lattices do not match")
    require_valid_map(f)
    require_valid_map(g)
    assignment = {a: g.ext[x] for a, x in f.assignment.items()}
    out = ContinuousMap._built(g.source, f.target, f.basis, assignment)
    _require(_continuity(out), InvariantViolation, "composite map is not continuous")
    return out


def is_dense(f):
    """The extension reflects the bottom."""
    require_valid_map(f)
    return _is_dense(f)


def _is_dense(f):
    """``is_dense`` of a valid map, without the check: a valid map sends the
    bottom to the bottom, so it is dense when nothing else goes there."""
    return f.ext.count(f.source.bottom) == 1


def is_embedding(f):
    """The extension is onto the source."""
    require_valid_map(f)
    return _is_embedding(f)


def _is_embedding(f):
    """``is_embedding`` of a valid map, without the check: its values are
    source indices, so it is onto when they are as many as the source's."""
    return len(set(f.ext)) == f.source.n


def finer_than(si, f):
    """Decide whether every well-inside pair (y, x) of the target has sandwich
    witnesses p <| q, p above f(y) and q below f(x).

    ``si`` must live on the map's source (MalformedInput otherwise) and is
    first checked to be a strong inclusion on its carrier, on every call.
    Returns a tag holding the verdict and, if it fails, the first failing
    pair in index order; its ``witnesses`` (lowest element index first) are
    searched when first read.  The verdict is derived once per (relation
    rows, relation carrier, target, assignment) on the source lattice.
    """
    _require_type(si, Relation, "relation")
    require_valid_map(f)
    if si.lattice != f.source:
        raise MalformedInput("relation and map source live on different lattices")
    # a relation's carrier is a checked index set of its own lattice
    _require_strong_inclusion(si, Basis._derived(f.source, si.carrier), PreconditionError,
                              "not a strong inclusion")
    return _finer(si, f)


def _finer(si, f):
    """``finer_than`` of a checked strong inclusion and a valid map on its
    source, without the checks: the memo lookup of the verdict."""
    key = ("finer", si.rows, si.carrier, f._key)
    return MapClassTag(f, si, *f.source.once(key, lambda: _finer_verdict(si, f)))


def _finer_verdict(si, f):
    """``finer_than``'s (finer, failing), uncached: one pair (y_x, x) per
    target element x (module docstring), y_x the owner of the down cone
    ``well_inside(target).cols[x]``."""
    src, rows, ext = f.source, si.rows, f.ext
    widest, up, down = f.target._down_owner, src._up, src._down
    for x, inside in enumerate(well_inside(f.target).cols):
        below = down[ext[x]]
        for p in _bits(up[ext[widest[inside]]]):
            if rows[p] & below:
                break
        else:
            failing = (pair for pair, witness in _sandwich_scan(si, f) if witness is None)
            return False, _explain(failing, f"{f!r}: extension class at one pair per element")
    return True, None


def _witness_search(si, f):
    """The witnesses of ``MapClassTag.witnesses``, uncached."""
    return tuple(takewhile(itemgetter(1), _sandwich_scan(si, f)))


def _sandwich_scan(si, f):
    """Each well-inside pair (y, x) of the target, in order, with its witness,
    up to the first pair without one, which comes with None.

    The elements p with some p <| q below f(x) form the mask ``reach``, the
    OR of the columns of the elements below f(x), built once per distinct
    f(x); the witness for (y, x) is then the lowest p of ``reach`` above
    f(y), and the lowest q below f(x) that p relates to.
    """
    src, rows, cols, ext = f.source, si.rows, si.cols, f.ext
    reach = {}
    for y, x in well_inside(f.target):
        fx = ext[x]
        if fx not in reach:
            reach[fx] = 0
            for q in _bits(src._down[fx]):
                reach[fx] |= cols[q]
        above = src._up[ext[y]] & reach[fx]
        if not above:
            yield (y, x), None
            return
        p = _lowest(above)
        yield (y, x), (p, _lowest(rows[p] & src._down[fx]))
