"""Round-ideal compactifications of finite frames.

Round ideals over a pcd-sublattice carrying a strong inclusion form a
compact regular frame; the join map back into the source is a dense map and,
for compatible strong inclusions over a generating carrier, a
compactification.  This module builds those frames, the extension maps that
factor suitable continuous maps through them, the reconstruction of a frame
of round ideals from an arbitrary compactification, and the induced ordering
between compactifications.

On finite input that ordering collapses.  A finite regular frame is
Boolean: each a is a finite join b1 v ... v bk of elements well-inside a,
so a v a* = (a v b1*) ^ ... ^ (a v bk*) = 1.  A dense onto frame map out of
a Boolean algebra is one-one: h(a) = h(c) gives h(a ^ c*) = h(c ^ c*) = 0,
so a ^ c* = 0 by density, a <= c, and c <= a likewise.  So every
compactification of a finite L is an isomorphism, any two compare ``iso``,
and the basis of ``compactify_extending`` already closes to all of L.

On a finite carrier P the round ideals are the sets down(s) & P for the
self-related s (s <| s), so the frame is that set S ordered as in the
lattice.  A round ideal I is finite and join closed, so it is down(t) & P
for t, the join of I, which I holds; roundness at t gives t <| y for some y
in I, y <= t, and the sandwich condition gives t <| t.  Conversely down(s) &
P is round for s in S, since x <= s <| s gives x <| s.  S is closed in the
lattice under 0, 1, meet, join and *, so the frame's tables and stars are
the lattice's read off at the tops' positions, with no table derived.  A
frame keeps its tops, the join map's values; an extension sends a to the
ideal whose top is ``f.ext[a]`` (``_extension_map``).  Each ideal is held
as a member mask (bit x says x is a member), frames list their ideals by
sorted members, and the frame checks run on masks:
inclusion is the order, AND the meet, ``_down[join[s][t]] & P`` the join of
the ideals with tops s and t, all decided on the tops
(``_assert_frame_structure``); the ideal of elements strongly included in a
is ``si.cols[a]``, so the ideal of a top t is round exactly when it is
``si.cols[t]`` (``_round_by_columns``).

Maps into a regular codomain are read on all of its elements.  The paper
allows a codomain basis, but in a finite frame a generating basis that is
closed under meet, join and pseudocomplement holds every join of its
members, so it is the whole codomain.  A map's own basis may still be any
generating set; the map is read through its extension ``ext``.

Frames, join maps, extension maps, reconstructions and compactification
reports are derived once per value in the memo of their lattice
(``PcdLattice.once``), and a compatibility test shares the lattice's entry
for regularity and strong regularity (``lattice._is_compatible``); argument
checks run on every call of a public entry, before the lookup.  The
library's own calls go to the kernels behind the entries (``_frame``,
``_join``, ``_extension_in_class``, ``_from_maps``), which skip those
checks, so a value is checked once, where it enters.  A frame holds its
strong inclusion on its own carrier ``p``, so every later check of
``fr.si`` is a check on ``p``.  A factorisation is checked on the extension
vectors: g after m equals f exactly when ``m.ext[g.ext[a]]`` is
``f.ext[a]`` for every a, so no composite map is built to compare.
``compare`` reads each mediating map off the reconstruction's vector: it
inverts the isomorphism's ``ext`` as a dict and reads the extension's
assignment through it, one map built and checked per witness.  Maps built
here take the vectors the library already holds, the frame's tops and
each full-basis assignment in index order, with no fold and none of the
index checks a caller's map gets (``ContinuousMap._built``); the continuity
check still runs, and a vector that passes it is the fold (``framemap``),
while one that fails and is not the fold is reported, and its verdict
stored, as the fold (``_require_continuous``).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from types import MappingProxyType

from .errors import (
    InvariantViolation,
    MalformedInput,
    NotACoverError,
    PreconditionError,
)
from .framemap import (
    ContinuousMap,
    _basis_gap,
    _continuity,
    _finer,
    _is_dense,
    _is_embedding,
    require_valid_map,
    validate_map,
)
from .lattice import (
    Basis,
    Cover,
    PcdLattice,
    Relation,
    _Value,
    _bits,
    _closure,
    _explain,
    _flags,
    _index,
    _is_compatible,
    _items,
    _lowest,
    _mask,
    _picker,
    _require,
    _require_type,
    full_basis,
    is_compact,
    is_regular,
    minimal_subcover,
    well_inside,
)
from .relation import (
    _require_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    least_strong_inclusion,
    ordered_sandwich,
)


_MEMBER_FIRST = str.maketrans("01", "10")


class RoundIdeal(_Value):
    """A downward- and join-closed subset where every member sits below another.

    ``mask`` is the bitmask of the members; it takes no part in equality,
    hashing or ``repr``.  An ideal the library derived holds only its mask
    until ``members`` is first read.
    """

    _fields = ("basis", "members")

    def __init__(self, basis, members):
        _require_type(basis, Basis, "carrier")
        n = basis.lattice.n
        members = frozenset(
            _index(x, n, "ideal member") for x in _items(members, "ideal members")
        )
        self.__dict__.update(basis=basis, members=members, mask=_mask(members))

    @classmethod
    def _derived(cls, basis, mask):
        """The ideal of an in-range member mask the library derived itself."""
        ideal = cls.__new__(cls)
        ideal.__dict__.update(basis=basis, mask=mask)
        return ideal

    @cached_property
    def members(self):
        """The member indices, a frozenset, read off ``mask`` once."""
        return frozenset(_bits(self.mask))

    def violations(self, si):
        """Why the members are not a round ideal of (carrier, si); empty when they are.

        Plain scans over the members, naming every witness: the least carrier
        element missing below each member, the least partner whose join with
        a member leaves the members, and the least member related to no
        member.  ``strong_downset`` checks its ideal here, and a round-ideal
        frame runs it only to name an ideal that failed the frame's column
        test (``_round_by_columns``).
        """
        _require_type(si, Relation, "relation")
        lat = self.basis.lattice
        if si.lattice != lat:
            raise MalformedInput("relation belongs to another lattice")
        lat.require_valid()
        names, down, join = lat.names, lat._down, lat.join
        keep, inside = self.basis.mask, self.mask
        if inside & ~keep:
            return ["members leave the carrier"]
        out = [] if inside >> lat.bottom & 1 else ["missing the bottom"]
        members = list(_bits(inside))
        out += [f"not downward closed at {names[_lowest(down[b] & keep & ~inside)]}"
                for b in members if down[b] & keep & ~inside]
        for a in members:
            b = next((b for b in members if not inside >> join[a][b] & 1), None)
            if b is not None:
                out.append(f"not join closed at ({names[a]}, {names[b]})")
        flat = next((b for b in members if not si.rows[b] & inside), None)
        if flat is not None:
            out.append(f"not round at {names[flat]}")
        return out


class RoundIdealFrame:
    """The frame of all round ideals of (P, <|), ordered by inclusion.

    ``tops[i]`` is the top of ideal i.  Read-only (``tops`` is a tuple,
    ``down_index`` a read-only view), since one frame is shared by every
    caller that derives it from equal arguments.
    """

    def __init__(self, p, si, ideals, tops, lattice, ideal_basis, down_index):
        self.p = p
        self.si = si
        self.ideals = ideals
        self.tops = tops
        self.lattice = lattice
        self.ideal_basis = ideal_basis
        self.down_index = MappingProxyType(down_index)

    def down(self, a):
        """Index of the ideal of elements strongly included in ``a``."""
        a = _index(a, self.p.lattice.n, "carrier element")
        if a not in self.down_index:
            raise MalformedInput(f"element {self.p.lattice.names[a]} is outside the carrier")
        return self.down_index[a]


class Compactification(_Value):
    """A dense embedding into a compact regular frame."""

    _fields = ("map", "frame")

    def __init__(self, map, frame=None):
        _require_type(map, ContinuousMap, "compactification map")
        if frame is not None:
            _require_type(frame, RoundIdealFrame, "compactification frame")
        self.__dict__.update(map=map, frame=frame)

    @property
    def source(self):
        return self.map.source

    @property
    def codomain(self):
        return self.map.target

    def violations(self):
        """Reasons this is not a compactification, derived once per value; fresh list."""
        key = ("compactification", self.map._key, self.frame)
        return list(self.source.once(key, lambda: tuple(_check_compactification(self))))

    def require_valid(self):
        _require(self.violations(), PreconditionError, "not a compactification")


def _check_compactification(k):
    """The reasons ``k`` is not a compactification, uncached."""
    out = validate_map(k.map)
    if out:
        return out
    gap = _basis_gap(k.map)
    if gap:
        return [gap]
    if not _is_dense(k.map):
        out.append("map is not dense")
    if not _is_embedding(k.map):
        out.append("map is not an embedding")
    cod = k.codomain  # valid: its continuity report validated it
    if not _is_compatible(full_basis(cod), well_inside(cod)):
        out.append("codomain is not regular")
    if k.frame is not None and k.frame.lattice != cod:
        out.append("frame does not match the codomain")
    return out


def strong_downset(p, si, a):
    """The round ideal of elements strongly included in ``a``."""
    _require_strong_inclusion(si, p, PreconditionError, "not a strong inclusion")
    a = _index(a, p.lattice.n, "element")
    if a not in p.elements:
        raise MalformedInput("element outside the carrier")
    ideal = RoundIdeal._derived(p, si.cols[a])
    _require(ideal.violations(si), InvariantViolation, "strong-downset ideal invalid")
    return ideal


def enumerate_round_ideals(p, si):
    """All round ideals of (p, si) with their inclusion-ordered frame.

    Round ideals of a finite carrier are the principal downsets of
    self-related elements; the ideals are checked round by one column test
    (``_round_by_columns``), the frame is validated as a pcd-lattice, and
    meets/joins are checked against set intersection and the covering-family
    join formula.  The frame stores ``p`` and ``si`` on the carrier ``p``,
    whatever carrier ``si`` was built with, so it is shared per (rows of
    ``si``, ``p``) on the lattice.
    """
    _require_strong_inclusion(si, p, PreconditionError, "not a strong inclusion")
    return _frame(p, si)


def _frame(p, si):
    """``enumerate_round_ideals`` of a strong inclusion already checked on
    ``p``: the memo lookup of its frame."""
    return p.lattice.once(("frame", si.rows, p.elements), lambda: _round_ideal_frame(p, si))


def _round_ideal_frame(p, si):
    """The checked frame of round ideals of (p, si), uncached; it holds ``si`` on ``p``.

    The frame is the set of tops, ordered as in the lattice and closed there
    under the bounds, meet, join and pseudocomplement (module docstring), so
    its order, tables and stars are the lattice's read off at the tops'
    positions (``PcdLattice._sublattice``).  A disagreement of the column
    test that no later check names still raises, at the end.
    """
    lat, keep = p.lattice, p.mask
    if si.carrier != p.elements:  # the check on p found every pair inside p
        si = Relation._from_rows(lat, si.rows, p.elements)
    top_of = {lat._down[t] & keep: t for t in _bits(keep) if si.rows[t] >> t & 1}
    masks = sorted(top_of, key=_by_members)
    tops = tuple(top_of[m] for m in masks)  # ideal i's top
    round_by_columns = _round_by_columns(p, si, masks, tops)
    ideals = tuple(RoundIdeal._derived(p, m) for m in masks)
    names = [f"dn({lat.names[t]})" for t in tops]
    frame_lat = lat._sublattice(tops, names, f"R({lat.name})")
    _require(frame_lat.validate(), InvariantViolation, "round-ideal frame invalid")
    index = {m: i for i, m in enumerate(masks)}
    down_index = {a: index.get(si.cols[a]) for a in _bits(keep)}
    for a, idx in down_index.items():
        if idx is None:
            raise InvariantViolation(
                f"strong downset of {lat.names[a]} is not among the round ideals")
    ideal_basis = Basis._derived(frame_lat, frozenset(down_index.values()))
    fr = RoundIdealFrame(p, si, ideals, tops, frame_lat, ideal_basis, down_index)
    _assert_frame_structure(fr, masks, tops)
    if frame_lat._irreducibles & ~ideal_basis.mask:
        raise InvariantViolation("basic downset ideals do not generate the frame")
    if not round_by_columns:
        raise InvariantViolation("round ideals are not the strong downsets of their tops")
    return fr


def _round_by_columns(p, si, masks, tops):
    """Whether each mask ``masks[i]`` is the column of its top ``tops[i]``
    in ``si``, one comparison of two lists; a fault that
    ``RoundIdeal.violations`` names raises, with its message.

    For a strong inclusion on P and m = down(t) & P, the column of t is m
    exactly when t <| t: x <| t gives x <= t, and x <= t <| t gives x <| t
    (condition 2).  Then m is round (module docstring).  So a passing test
    proves every ideal round; a failing one runs the per-ideal scans to name
    the fault, and returns False when they find none.
    """
    if list(map(si.cols.__getitem__, tops)) == masks:
        return True
    for m in masks:
        _require(RoundIdeal._derived(p, m).violations(si), InvariantViolation,
                 "enumerated ideal invalid")
    return False


def _by_members(mask):
    """Sort key of member masks, in the order of their sorted member tuples:
    the mask's binary digits, lowest first, with 1 and 0 swapped.

    Two tuples agree up to the lowest member d that only one of them, A,
    holds, and A holds d next.  If the other, B, has a member above d, B
    holds a larger one next and B's key has the larger digit at d (a 0
    swapped to 1); otherwise B's tuple ends, and B's key is a proper prefix
    of A's.
    """
    return bin(mask)[:1:-1].translate(_MEMBER_FIRST)


def _assert_frame_structure(fr, masks, tops):
    """Frame meets are intersections, frame joins follow the covering formula,
    and the frame's tables and stars are the source's read through the tops.

    Ideal i has member mask m(i) = ``masks[i]`` and top t(i) = ``tops[i]``.
    Two tests decide it: each m(i) is down(t(i)) & p and holds t(i), and
    each row of the meet and join tables and the star vector, translated
    from positions to tops, is the source's row at that top gathered at the
    tops.  They imply the rest.  The masks are distinct dict keys, so the
    tops are distinct, and the comparison gives t(x ^ y) = t(x) ^ t(y), and
    the same for v and *.  So the frame order read off its meet table (x <=
    y iff x ^ y = x) is the tops' order, and the tables are the frame's true
    bounds.  Then m(x ^ y) = down(t(x) ^ t(y)) & p = m(x) & m(y), and m(x v
    y) = down(t(x) v t(y)) & p, the covering formula.  A failure is named by
    the first pair of the meet scan, else of the join scan (a join pair
    also fails when its first ideal misses its top), else as a table fault.
    """
    lat, frame, keep = fr.p.lattice, fr.lattice, fr.p.mask
    ldown = lat._down
    to_tops = bytes(tops).ljust(256, b"\0")
    rows = [*frame.meet, *frame.join, bytes(frame.pstar)]
    sources = [*map(lat.meet.__getitem__, tops), *map(lat.join.__getitem__, tops), lat.pstar]
    if (all(m == ldown[t] & keep and m >> t & 1 for m, t in zip(masks, tops))
            and [row.translate(to_tops) for row in rows]
            == list(map(bytes, map(_picker(tops), sources)))):
        return
    up, down, names = frame._up, frame._down, frame.names
    cap, cup, join = frame._down_owner, frame._up_owner, lat.join
    meets = ((i, j) for i, a in enumerate(masks) for j, b in enumerate(masks)
             if masks[cap[down[i] & down[j]]] != a & b)
    joins = ((i, j) for i, s in enumerate(tops) for j, t in enumerate(tops)
             if masks[cup[up[i] & up[j]]] != ldown[join[s][t]] & keep
             or not masks[i] >> s & 1)
    for scan, what in ((meets, "meet is not set intersection"),
                       (joins, "join misses the covering formula")):
        pair = next(scan, None)
        if pair is not None:
            raise InvariantViolation(f"frame {what} at ({names[pair[0]]}, {names[pair[1]]})")
    raise InvariantViolation("frame tables are not the source's read through the tops")


class CompactRegularReport(_Value):
    _fields = ("ok", "problems", "subcover")

    def __init__(self, ok, problems, subcover):
        self.__dict__.update(ok=ok, problems=problems, subcover=subcover)

    def __bool__(self):
        return self.ok


def check_compact_regular(fr):
    """Compactness witness extraction plus regularity over the ideal basis."""
    _require_type(fr, RoundIdealFrame, "frame")
    problems = []
    subcover = ()
    frame = fr.lattice
    try:
        witness = is_compact(
            frame, fr.ideal_basis, Cover(frame.top, frozenset(fr.ideal_basis.elements))
        )
        subcover = tuple(witness)
    except NotACoverError:
        problems.append("basic ideals do not cover the top ideal")
    if not is_regular(frame, fr.ideal_basis):
        problems.append("frame is not regular over the ideal basis")
    return CompactRegularReport(not problems, tuple(problems), subcover)


def is_compatible(l, p, si):
    """Every carrier element is the join of elements strongly included in it.

    Decided once per (relation rows, carrier) on the lattice, in the entry
    that regularity and strong regularity share (``lattice._is_compatible``);
    the argument checks run on every call, before the lookup.
    """
    _require_type(l, PcdLattice, "lattice")
    _require_type(p, Basis, "carrier")
    _require_type(si, Relation, "relation")
    l.require_valid()
    if p.lattice != l or si.lattice != l:
        raise MalformedInput("carrier and relation must belong to the lattice")
    return _is_compatible(p, si)


def join_map(l, fr):
    """The map from the source into the round-ideal frame: an ideal goes to its join.

    Built and checked once per frame, in the lattice's memo; later calls
    return the same map.
    """
    _require_type(l, PcdLattice, "lattice")
    _require_type(fr, RoundIdealFrame, "frame")
    if fr.p.lattice != l:
        raise MalformedInput("frame was not built over this lattice")
    return _join(fr)


def _join(fr):
    """``join_map`` of a frame over its own source: the memo lookup."""
    return fr.p.lattice.once(("join_map", fr), lambda: _join_map(fr))


def _join_map(fr):
    """The checked join map of ``fr``, uncached: each ideal holds its join, its top."""
    assignment = {idx: fr.tops[idx] for idx in fr.ideal_basis.elements}
    m = ContinuousMap._built(fr.p.lattice, fr.lattice, fr.ideal_basis, assignment, fr.tops)
    _require_continuous(m, "join map")
    return m


def _require_continuous(m, what):
    """Raise InvariantViolation, ``what`` is not continuous, unless ``m``, a
    map built with a vector its caller held, is.  A passing vector is the
    fold (``framemap``).  A failing one that is not gives up its place in
    the memo, whose key ``(target, assignment)`` stands for the fold, to
    the fold's verdict, and the fold's failures are named where it has any."""
    failures = _continuity(m)
    if failures:
        fold = ContinuousMap._built(m.source, m.target, m.basis, m.assignment)
        if fold.ext != m.ext:
            del m.source._memo[("continuity", m._key)]
            failures = _continuity(fold) or failures
    _require(failures, InvariantViolation, f"{what} is not continuous")


def extension_map(fr, f):
    """The unique map out of the round-ideal frame with g after join_map equal to f.

    ``f`` must have a regular codomain and the frame's strong inclusion must
    be finer than the well-inside preimages of ``f``; the factorization and
    continuity of the result are asserted when it is first derived.  The
    extension is derived once per (frame, codomain name, map value) in the
    source lattice's memo; the argument checks and the extension-class test
    run on every call, before the lookup.
    """
    _require_type(fr, RoundIdealFrame, "frame")
    require_valid_map(f)
    if fr.p.lattice != f.source:
        raise MalformedInput("frame and map sources do not match")
    _require_regular_codomain(f, "codomain")
    _require_strong_inclusion(fr.si, fr.p, PreconditionError, "not a strong inclusion")
    return _extension_in_class(fr, f)


def _extension_in_class(fr, f):
    """``extension_map`` of a valid map with a regular codomain through a
    frame whose strong inclusion is checked: the class verdict, which
    raises outside the class, and the extension's memo lookup."""
    tag = _finer(fr.si, f)
    if not tag.finer:
        y, x = (f.target.names[v] for v in tag.failing)
        raise PreconditionError("map is outside the extension class: no sandwich witnesses "
                                f"for the well-inside pair ({y}, {x})")
    return _extension(fr, f)


def _extension(fr, f):
    """``extension_map`` of a valid map in the frame's extension class, once
    per (frame, codomain name, map value) in the source lattice's memo."""
    # lattice equality ignores names, and the result holds the codomain
    return f.source.once(("extension", fr, f.target.name, f._key),
                         lambda: _extension_map(fr, f))


def _extension_map(fr, f):
    """The checked extension of ``f`` through ``fr``, uncached.

    The paper sends a to the round ideal {x in P : x <= f(b) for some b << a}.
    Every caller's codomain is regular, so Boolean (module docstring), and
    there b << a exactly when b <= a; ``ext`` is monotone, so that set is
    down(f(a)) & P.  It is a round ideal exactly when f(a) is a frame top,
    that is when ``si.cols[f(a)]`` is down(f(a)) & P: a carrier element
    that is not self-related misses itself, and the column of an element
    outside P misses the bottom, which P holds.  Continuity and the
    factorisation through ``join_map``, checked below, pin the map down.
    """
    lsrc, ltgt = f.source, f.target
    down, cols, keep = lsrc._down, fr.si.cols, fr.p.mask
    for a, x in enumerate(f.ext):
        if cols[x] != down[x] & keep:
            raise InvariantViolation(
                f"extension image of {ltgt.names[a]} is not a round ideal"
            )
    ext = tuple(map(fr.down_index.__getitem__, f.ext))
    g = ContinuousMap._built(fr.lattice, ltgt, full_basis(ltgt), dict(enumerate(ext)), ext)
    _require_continuous(g, "extension map")
    if tuple(map(_join(fr).ext.__getitem__, g.ext)) != f.ext:
        raise InvariantViolation("extension does not factor the map through join_map")
    return g


def _require_regular_codomain(f, what):
    """Raise unless the codomain of ``f`` (``what``), a valid map, is regular
    over all its elements: each element the join of those well inside it."""
    if not _is_compatible(full_basis(f.target), well_inside(f.target)):
        raise PreconditionError(f"{what} is not regular")


def _preimage_seed(f):
    """The preimages of the codomain's elements, and the seed rows of its well-inside pairs.

    Row ``ext[b]`` holds ``ext[a]`` for each a with b well-inside a: one
    C-level OR over the preimage bits that the row of b selects.
    """
    ext, n = f.ext, f.target.n
    bits = [1 << x for x in ext]
    rows = [0] * f.source.n
    for b, row in enumerate(well_inside(f.target).rows):
        rows[ext[b]] |= reduce(or_, compress(bits, _flags(row, n)), 0)
    return set(ext), rows


def _admitted_maps(l, maps):
    """``maps`` as a tuple, each a valid map out of ``l`` with a regular codomain."""
    maps = _items(maps, "maps")
    for f in maps:
        _require_type(f, ContinuousMap, "map")
        if f.source != l:
            raise MalformedInput("map source does not match the lattice")
        require_valid_map(f)
        _require_regular_codomain(f, "map codomain")
    return maps


def strong_inclusion_from_maps(l, s, maps):
    """Carrier and least strong inclusion induced by a family of maps.

    The carrier is the pcd-closure of ``s`` together with the preimages of
    every codomain element; the strong inclusion is generated by the
    preimages of well-inside pairs of each codomain.
    """
    _require_type(l, PcdLattice, "lattice")
    l.require_valid()
    s_f = {_index(x, l.n, "carrier seed") for x in _items(s, "carrier seed")}
    return _from_maps(l, s_f, _admitted_maps(l, maps))


def _from_maps(l, s_f, maps):
    """``strong_inclusion_from_maps`` of a set of checked seed indices and
    admitted maps on a valid lattice, without the checks."""
    rows = [0] * l.n
    for f in maps:
        images, seed_rows = _preimage_seed(f)
        s_f |= images
        rows = list(map(or_, rows, seed_rows))
    p = _closure(l, frozenset(s_f))
    # every seed pair joins two preimages, which the carrier holds
    return p, least_strong_inclusion(p, Relation._from_rows(l, rows, p.elements))


def compactify_extending(l, b, maps):
    """Compactify over L, the closure of any basis, and extend the given maps.

    The paper closes a strongly regular basis ``b`` together with the maps'
    preimages.  A closed carrier holds every finite join of ``b``, and in a
    finite lattice those are all joins, so that closure is L whatever ``b``
    and the maps are.  Returns the compactification (through the
    interpolative core of well-inside on L, which is checked compatible)
    and the unique extension of every supplied map.
    """
    _require_type(l, PcdLattice, "lattice")
    _require_type(b, Basis, "basis")
    l.require_valid()
    if b.lattice != l:
        raise MalformedInput("basis belongs to another lattice")
    if l._irreducibles & ~b.mask:  # b generates l exactly when it holds them
        raise PreconditionError("not a basis of the lattice")
    if not is_strongly_regular_basis(l, b):
        x, v = _uncomplemented(l)
        raise PreconditionError(f"basis is not strongly regular: {x} is not complemented "
                                f"({x} v {x}* is {v}, not the top)")
    maps = _admitted_maps(l, maps)
    p = full_basis(l)
    si = interpolative_core_on_basis(l, p)
    if not _is_compatible(p, si):
        raise InvariantViolation("core strong inclusion is not compatible")
    fr = enumerate_round_ideals(p, si)  # the core's check as a strong inclusion
    comp = Compactification(map=_join(fr), frame=fr)
    comp.require_valid()
    return comp, [_extension_in_class(fr, f) for f in maps]


def _uncomplemented(l):
    """The lowest-index x with x v x* below the top, and that join, both by label.

    Called once a basis has failed strong regularity.  On a Boolean lattice
    every element is well-inside itself, so the core relates each basis
    element to itself and every basis is strongly regular; a failing basis
    therefore lies on a lattice with such an x, or the test is at fault.
    """
    names, join, top = l.names, l.join, l.top
    x, v = _explain(((x, join[x][s]) for x, s in enumerate(l.pstar) if join[x][s] != top),
                    f"{l.name}: strong regularity")
    return names[x], names[v]


def explicit_strong_inclusion(p, f):
    """Sandwich description of the strong inclusion generated by one map.

    The pair (x, y) is related when x sits under the preimage of some b and y
    sits over the preimage of some a with b well-inside a.  Requires the
    extension of ``f`` to preserve pseudocomplements; the result is checked
    equal to ``least_strong_inclusion`` of the same seed before returning.
    """
    _require_type(p, Basis, "carrier")
    require_valid_map(f)
    if p.lattice != f.source:
        raise MalformedInput("carrier and map source live on different lattices")
    lsrc, ltgt, ext = f.source, f.target, f.ext
    for a in range(ltgt.n):
        if ext[ltgt.pstar[a]] != lsrc.pstar[ext[a]]:
            raise PreconditionError(
                f"extension does not preserve the pseudocomplement of {ltgt.names[a]}"
            )
    _require_regular_codomain(f, "codomain")
    images, rows = _preimage_seed(f)
    if not images <= p.elements:
        raise PreconditionError("carrier does not contain the basis preimages")
    seed = Relation._from_rows(lsrc, rows, p.elements)
    rhs = ordered_sandwich(seed)
    lhs = least_strong_inclusion(p, seed)
    if lhs != rhs:
        raise InvariantViolation(
            "sandwich description disagrees with the generated strong inclusion"
        )
    return rhs


class Reconstruction(_Value):
    """Round-ideal presentation of an existing compactification."""

    _fields = ("p", "si", "iso", "frame")

    def __init__(self, p, si, iso, frame):
        self.__dict__.update(p=p, si=si, iso=iso, frame=frame)


def from_compactification(k):
    """Recover a carrier, strong inclusion and frame isomorphic to the codomain.

    The carrier is the pcd-closure of the preimages of the codomain's
    elements, the strong inclusion is generated by preimages of well-inside
    pairs, and the isomorphism witness is the extension of the
    compactification itself; it is verified bijective and order-preserving in
    both directions.  The result is shared through the source lattice's memo
    by every compactification with an equal map.
    """
    _require_type(k, Compactification, "compactification")
    k.require_valid()
    # lattice equality ignores names, and the result holds the codomain
    key = ("reconstruction", k.codomain.name, k.map._key)
    return k.source.once(key, lambda: _reconstruct(k))


def _reconstruct(k):
    """``from_compactification`` of a checked compactification, uncached.

    Its map is valid with a regular codomain, and its least strong inclusion
    was checked on ``p`` when it was derived, so the kernels take them as
    they stand.
    """
    l, klat = k.source, k.codomain
    p, si = _from_maps(l, set(), [k.map])
    if not _is_compatible(p, si):
        raise InvariantViolation("reconstructed strong inclusion is not compatible")
    fr = _frame(p, si)
    g = _extension_in_class(fr, k.map)
    images = g.ext
    if len(set(images)) != klat.n:
        raise InvariantViolation("reconstruction witness is not one-one")
    if set(images) != set(range(fr.lattice.n)):
        raise InvariantViolation("reconstruction witness is not onto")
    # a bijection preserves order both ways iff it maps each up cone onto
    # the up cone of the image
    bits = [1 << x for x in images]
    for m, cone in enumerate(klat._up):
        if reduce(or_, compress(bits, _flags(cone, klat.n)), 0) != fr.lattice._up[images[m]]:
            raise InvariantViolation(
                "reconstruction witness does not preserve order both ways"
            )
    return Reconstruction(p=p, si=si, iso=g, frame=fr)


class Ordering(Enum):
    """The verdict of ``compare``.

    Finite input reaches only ``ISO`` (see the module docstring); ``LE``,
    ``GE`` and ``INCOMPARABLE`` stay part of the API, for the order of
    compactifications in general.
    """

    LE = "<="
    GE = ">="
    ISO = "iso"
    INCOMPARABLE = "incomparable"

    def __str__(self):
        return self.value


class CompareResult(_Value):
    _fields = ("verdict", "le_witness", "ge_witness")

    def __init__(self, verdict, le_witness=None, ge_witness=None):
        self.__dict__.update(verdict=verdict, le_witness=le_witness, ge_witness=ge_witness)


def _mediating(ka, kb, rb):
    """Map h with ka = h after kb.

    On finite input the reconstruction ``rb`` of ``kb`` is finer than ``ka``
    (both are isomorphisms, see the module docstring), so a verdict that it
    is not is an ``InvariantViolation``, naming the failing well-inside pair.

    h(a) is the m whose image ``rb.iso.ext[m]`` is h0(a), for h0 the extension
    of ``ka`` through ``rb``'s frame: the vector of ``rb.iso`` is a bijection.
    The class verdict above is the one ``extension_map`` would reach, ``ka``
    is a checked compactification of ``rb``'s source, and ``rb.si`` was
    checked with its frame, so the verdict and h0 are looked up without
    ``extension_map``'s checks.
    """
    tag = _finer(rb.si, ka.map)
    if not tag.finer:
        y, x = (ka.codomain.names[v] for v in tag.failing)
        raise InvariantViolation(f"reconstruction is not finer than the map at ({y}, {x})")
    h0 = _extension(rb.frame, ka.map)
    inverse = {v: m for m, v in enumerate(rb.iso.ext)}
    ext = tuple(inverse[h0.assignment[a]] for a in range(h0.target.n))
    h = ContinuousMap._built(kb.codomain, ka.codomain, h0.basis, dict(enumerate(ext)), ext)
    _require_continuous(h, "mediating map")
    if tuple(map(kb.map.ext.__getitem__, h.ext)) != ka.map.ext:
        raise InvariantViolation("mediating map does not factor the compactification")
    return h


def compare(k1, k2):
    """Order two compactifications of the same source; on finite input, ``iso``.

    ``k1 <= k2`` holds exactly when the strong inclusion reconstructed from
    ``k2`` is finer than the well-inside preimages of ``k1``.  Every
    compactification of a finite frame is an isomorphism (module docstring),
    so both orders hold and the verdict is ``Ordering.ISO``; each mediating
    map is built by extension through the round-ideal frame and checked
    pointwise.  Both compactifications are checked valid by
    ``from_compactification``.
    """
    _require_type(k1, Compactification, "compactification")
    _require_type(k2, Compactification, "compactification")
    if k1.source != k2.source:
        raise MalformedInput("compactifications have different sources")
    r1 = from_compactification(k1)
    r2 = from_compactification(k2)
    return CompareResult(Ordering.ISO, _mediating(k1, k2, r2), _mediating(k2, k1, r1))


class CoverWitness(_Value):
    """Interpolating families squeezed between an element and a cover."""

    _fields = ("lower", "middle", "upper")

    def __init__(self, lower, middle, upper):
        self.__dict__.update(lower=lower, middle=middle, upper=upper)


def interpolated_subcover(l, p, b, parts):
    """Interpolated finite subcover under an element well-inside a cover's join.

    For ``b`` well-inside the join of ``parts`` (all within the carrier),
    produce index-deterministic families lower_i <| middle_i <| upper_i with
    upper_i among the parts, b under the join of the lower family, and the
    two family joins well-inside each other and the cover join.  Returns
    None when the minimal subcover shows b is the bottom.
    """
    _require_type(l, PcdLattice, "lattice")
    _require_type(p, Basis, "carrier")
    l.require_valid()
    if p.lattice != l:
        raise MalformedInput("carrier belongs to another lattice")
    b = _index(b, l.n, "element")
    parts = sorted({_index(x, l.n, "cover part") for x in _items(parts, "cover parts")})
    if any(x not in p.elements for x in parts):
        raise PreconditionError("cover parts must lie in the carrier")
    wi = well_inside(l)
    total = l._join_all(parts)
    if (b, total) not in wi:
        raise PreconditionError("element is not well-inside the join of the cover")
    keep, cover = p.mask, _mask(parts)
    # carrier elements well-inside some part, and those well-inside one of them
    mids = _mask(m for m in _bits(keep) if wi.rows[m] & cover)
    candidates = [q for q in _bits(keep) if wi.rows[q] & mids]
    bstar = l.pstar[b]
    cover_parts = [bstar] + [q for q in candidates if q != bstar]
    if l._join_all(cover_parts) != l.top:
        raise PreconditionError(
            "carrier is not regular enough to refine the cover"
        )
    chosen = minimal_subcover(l, cover_parts, l.top)
    lower = sorted(q for q in chosen if q != bstar)
    if not lower:
        if b != l.bottom:
            raise InvariantViolation("empty refinement for a non-bottom element")
        return None
    middle = [_lowest(wi.rows[q] & mids) for q in lower]
    upper = [_lowest(wi.rows[m] & cover) for m in middle]
    vee = l._join_all(lower)
    vee_m = l._join_all(middle)
    checks = (
        l.leq(b, vee)
        and (vee, vee_m) in wi
        and (vee_m, total) in wi
        and all((q, m) in wi for q, m in zip(lower, middle))
        and all((m, u) in wi for m, u in zip(middle, upper))
        and all(u in parts for u in upper)
    )
    if not checks:
        raise InvariantViolation("interpolated subcover fails its inequalities")
    return CoverWitness(tuple(lower), tuple(middle), tuple(upper))
