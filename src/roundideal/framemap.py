"""Continuous maps between finite frames.

A map from L to M is stored contravariantly: an assignment from a basis of
the target M into L.  The whole-frame inverse-image homomorphism is always
the derived join extension, which keeps map equality decidable pointwise.

Continuity reports are derived once per map value, in the source lattice's
memo (``PcdLattice.once``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import InvariantViolation, MalformedInput, PreconditionError
from .lattice import Basis, _bits, _index, _lowest, full_basis, well_inside
from .relation import check_strong_inclusion


class ContinuousMap:
    """A map L -> M given by its inverse assignment on a basis of M.

    Immutable: ``assignment`` is a read-only view, so the extension values
    cached on the object stay sound.
    """

    def __init__(self, source, target, basis, assignment):
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
        self.source = source
        self.target = target
        self.basis = basis
        self.assignment = MappingProxyType(assignment)
        self._basis_mask = sum(1 << b for b in assignment)
        self._ext = {}  # extension values, never part of equality or repr

    @classmethod
    def identity(cls, lat):
        b = full_basis(lat)
        return cls(lat, lat, b, {a: a for a in range(lat.n)})

    def __call__(self, a):
        """Inverse image of a target basis element."""
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
        return hash(
            (self.source, self.target, self.basis,
             tuple(sorted(self.assignment.items())))
        )


@dataclass(frozen=True)
class MapClassTag:
    """Whether a strong inclusion is finer than a map's well-inside preimages."""

    map: ContinuousMap
    si: object
    finer: bool
    witnesses: tuple = ()
    failing: tuple | None = None


def extend(f, a):
    """Whole-frame inverse image: join over basis elements below ``a``."""
    if a in f._ext:
        return f._ext[a]
    a = _index(a, f.target.n, "target element")
    value = f.source.join_all(
        f.assignment[b] for b in _bits(f._basis_mask & f.target._down[a])
    )
    f._ext[a] = value
    return value


def validate_map(f):
    """Report of violated continuity conditions; empty means valid.

    The third condition quantifies over arbitrary basis subfamilies; at
    finite scale it collapses to monotonicity on the basis plus binary-join
    preservation of the derived extension, which is what gets checked.

    The meets condition compares f(a) ^ f(b) with the join of f(c) over the
    basis elements c below both a and b.  In a valid target those are
    exactly the basis elements below a ^ b, so the right-hand side is
    ``extend(f, a ^ b)``, which makes the whole check O(|B|^2).

    The report is computed once per map value on the source lattice, keyed
    by the target lattice and the assignment; every call returns a fresh
    list.
    """
    key = ("continuity", f.target, frozenset(f.assignment.items()))
    return list(f.source.once(key, lambda: tuple(_continuity_report(f))))


def _continuity_report(f):
    src, tgt = f.source, f.target
    src.require_valid()
    tgt.require_valid()
    report = []
    basis = sorted(f.basis.elements)
    total = src.join_all(f.assignment[b] for b in basis)
    if total != src.top:
        report.append(
            f"covering: basis images join to {src.names[total]}, not the top"
        )
    for a in basis:
        for b in basis:
            lhs = src.meet[f.assignment[a]][f.assignment[b]]
            rhs = extend(f, tgt.meet[a][b])
            if lhs != rhs:
                report.append(
                    f"meets: images of ({tgt.names[a]}, {tgt.names[b]}) "
                    f"meet at {src.names[lhs]} but common refinements join to {src.names[rhs]}"
                )
                break
        else:
            continue
        break
    mono = next(
        (
            (a, b)
            for a in basis
            for b in basis
            if tgt.leq(a, b) and not src.leq(f.assignment[a], f.assignment[b])
        ),
        None,
    )
    if mono is not None:
        a, b = mono
        report.append(
            f"cover refinement: assignment not monotone at ({tgt.names[a]}, {tgt.names[b]})"
        )
    else:
        if extend(f, tgt.bottom) != src.bottom:
            report.append("cover refinement: image of the bottom is not the bottom")
        bad = next(
            (
                (m, b)
                for m in range(tgt.n)
                for b in basis
                if extend(f, tgt.join[m][b])
                != src.join[extend(f, m)][extend(f, b)]
            ),
            None,
        )
        if bad is not None:
            m, b = bad
            report.append(
                f"cover refinement: extension misses the join of "
                f"({tgt.names[m]}, {tgt.names[b]})"
            )
    return report


def require_valid_map(f):
    report = validate_map(f)
    if report:
        raise PreconditionError(f"invalid continuous map: {report[0]}")


def maps_equal(f, g):
    """Pointwise equality of the derived extensions over the whole target."""
    if f.source != g.source or f.target != g.target:
        return False
    return all(extend(f, a) == extend(g, a) for a in range(f.target.n))


def compose(f, g):
    """Composite of f: M -> N after g: L -> M, as a map L -> N."""
    if g.target != f.source:
        raise MalformedInput("middle lattices do not match")
    require_valid_map(f)
    require_valid_map(g)
    assignment = {a: extend(g, f.assignment[a]) for a in f.basis.elements}
    out = ContinuousMap(g.source, f.target, f.basis, assignment)
    report = validate_map(out)
    if report:
        raise InvariantViolation(f"composite map is not continuous: {report[0]}")
    return out


def is_dense(f):
    """The extension reflects the bottom."""
    require_valid_map(f)
    src, tgt = f.source, f.target
    return all(
        extend(f, a) != src.bottom or a == tgt.bottom for a in range(tgt.n)
    )


def is_embedding(f):
    """The extension is onto the source."""
    require_valid_map(f)
    image = {extend(f, a) for a in range(f.target.n)}
    return image == set(range(f.source.n))


def finer_than(si, f):
    """Search sandwich witnesses p <| p' for every well-inside pair of the target.

    ``si`` is first checked to be a strong inclusion on its carrier.  Returns
    a tag holding a witness per pair (searched lexicographically by element
    index) or the first failing pair in index order.

    The elements p with some p <| q below f(x) form the mask ``reach``, the
    OR of the columns of the elements below f(x), built once per distinct
    f(x); the witness for (y, x) is then the lowest p of ``reach`` above
    f(y), and the lowest q below f(x) that p relates to.
    """
    require_valid_map(f)
    report = check_strong_inclusion(si, Basis(f.source, si.carrier))
    if not report.ok:
        bad = report.failed()[0]
        raise PreconditionError(
            f"not a strong inclusion: condition {bad.number} fails at {bad.witness}"
        )
    src, rows, cols = f.source, si.rows, si.cols
    ext = [extend(f, a) for a in range(f.target.n)]
    reach = {}
    witnesses = []
    for y, x in well_inside(f.target):
        fx = ext[x]
        if fx not in reach:
            reach[fx] = 0
            for q in _bits(src._down[fx]):
                reach[fx] |= cols[q]
        above = src._up[ext[y]] & reach[fx]
        if not above:
            return MapClassTag(f, si, False, tuple(witnesses), (y, x))
        p = _lowest(above)
        witnesses.append(((y, x), (p, _lowest(rows[p] & src._down[fx]))))
    return MapClassTag(f, si, True, tuple(witnesses), None)
