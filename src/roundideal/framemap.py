"""Continuous maps between finite frames.

A map from L to M is stored contravariantly: an assignment from a basis of
the target M into L.  The whole-frame inverse-image homomorphism is always
the derived join extension, which keeps map equality decidable pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import InvariantViolation, MalformedInput, PreconditionError
from .lattice import Basis, _bits, _lowest, full_basis, well_inside
from .relation import check_strong_inclusion


class ContinuousMap:
    """A map L -> M given by its inverse assignment on a basis of M.

    Immutable: ``assignment`` is a read-only view, so the continuity report
    and the extension values cached on the object stay sound.
    """

    def __init__(self, source, target, basis, assignment):
        if basis.lattice != target:
            raise MalformedInput("basis must belong to the target lattice")
        assignment = {int(a): int(x) for a, x in assignment.items()}
        if set(assignment) != set(basis.elements):
            raise MalformedInput("assignment must cover exactly the target basis")
        for a, x in assignment.items():
            if not 0 <= x < source.n:
                raise MalformedInput(f"assignment value {x} outside the source lattice")
        self.source = source
        self.target = target
        self.basis = basis
        self.assignment = MappingProxyType(assignment)
        self._basis_mask = sum(1 << b for b in assignment)
        # caches: derived once per object, never part of equality or repr
        self._ext = {}
        self._report = None

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

    The report is computed once per map object and cached on it; every call
    returns a fresh list.
    """
    if f._report is None:
        f._report = tuple(_continuity_report(f))
    return list(f._report)


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
    """
    require_valid_map(f)
    report = check_strong_inclusion(si, Basis(f.source, si.carrier))
    if not report.ok:
        bad = report.failed()[0]
        raise PreconditionError(
            f"not a strong inclusion: condition {bad.number} fails at {bad.witness}"
        )
    src, rows = f.source, si.rows
    witnesses = []
    for y, x in well_inside(f.target):
        below = src._down[extend(f, x)]
        found = next(
            ((p, _lowest(rows[p] & below))
             for p in _bits(src._up[extend(f, y)]) if rows[p] & below),
            None,
        )
        if found is None:
            return MapClassTag(f, si, False, tuple(witnesses), (y, x))
        witnesses.append(((y, x), found))
    return MapClassTag(f, si, True, tuple(witnesses), None)
