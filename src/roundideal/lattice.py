"""Finite pseudocomplemented distributive lattices.

A lattice is held as the up cones of its elements, integer bitmasks: bit j
of ``_up[i]`` says i <= j, and ``_down`` is the transpose, taken in one
C-level pass over the masks' binary digits.  Every lattice is built from
its labels and up cones (``PcdLattice._from_cones``): ``chain``,
``downset_lattice``, round-ideal frames and parsed documents hand their
masks over, and only the public constructor takes an order matrix, which
it packs into masks once.  Bounds, meet and join tables and
pseudocomplements are derived eagerly but defensively, so that
``validate`` can report every violated axiom instead of crashing on bad
input.  All subsequent operations require a valid lattice.

On every order the meet of i and j is the unique reflexive element whose
down cone is the common down cone of i and j, and the join the unique one
whose up cone is their common up cone, None when there is no such element
or more than one; in a transitive order that is the greatest (least) member
of the common cone.  So each table entry is one subscript of one dict from
cones to their single owners, except on a partial order (transitive, and
every element owning its cone), where some rows follow from a cover's row.

There let i be join-irreducible with lower cover c, so down(i) is down(c)
with i added.  For j >= i the common down cone of i and j is down(i), owned
by i; for any other j it is the common cone of c and j, as i is not in
down(j).  Row c holds c at every position in up(i), since c <= i <= j.  So
meet row i is row c, read as a little-endian integer, plus i - c times the
0/1 selector of up(i) (``_flags``), with no carry, as every entry stays a
byte.  Dually join row m of a meet-irreducible m with upper cover u is row
u plus m - u times the selector of down(m).  A derived row misses a bound
exactly where its cover's row does, so by induction along covers a table is
complete exactly when its looked-up rows are, and the one pass of lookups
that raises on a missing bound still decides ``_meets`` and ``_joins``.
The rows of atoms and coatoms, whose covers are the bounds, are looked up
like all others: a Boolean algebra has no other irreducibles, and at its
sizes a looked-up row is the cheaper.  Below about 20 elements any derived
row costs more than the subscripts it saves, so a small order with
irreducibles off the bounds, such as a chain of 4..16 elements, builds at
0.75-0.9 times the speed of lookups alone; this kernel alone breaks the
size rule below.  The join table seeks its covers only when the meet table
found some: in a distributive lattice j -> the greatest element not above j
is an order isomorphism from the join-irreducibles onto the
meet-irreducibles, so the meet-irreducibles are all coatoms exactly when
the join-irreducibles are all atoms; on any other order a row not derived
is looked up, so the tables are the same either way.

A complete table, as every valid lattice has, holds ``bytes`` rows (at most
256 elements, so every index is a byte); only a table missing a bound is
rebuilt, whole and by lookups, with list rows of ints and None entries, and
scanned for it.  A sublattice closed under the bounds, meet, join and
pseudocomplement, such as a round-ideal frame, derives no table: it reads
its tables and pseudocomplements off its source's rows at its elements'
positions, and its order off its meet table (``_sublattice``).  The order
axioms are checked on the masks in O(n^2) word operations, each a pass over
a whole row: row i is transitive when one C-level OR of the up cones that
up(i) selects adds nothing to it, and only the first failing row is scanned
to name the witness.  Every whole-row check in the package names its
failure so, through ``_explain``: the scan starts only after the row test
has failed, and an exact test whose scan finds nothing is an internal
fault.  The elements disjoint from y are the positions of the bottom in
meet row y, one mask per row from one ``bytes.translate``
(``_position_masks``).  On a transitive order with every meet, y* is the
owner of that mask when it is a down cone, down(s): the fold of
``join_all`` over it then agrees.  At each step the two elements lie below
s, and the meet m of all their common upper bounds, which exists, owns
their common up cone U (it is in U, below all of U, and a second owner
would share m's down cone, leaving meet(m, m) missing); so the fold ends at
the owner of up(s), which is s.  Anywhere else (in M3, or on any other
order) y* folds the positions, found by C-level list searches
(``_positions``), through the join table, and the check compares their
number with the size of down(y*).  A well-inside row is join row y*, read
off by the same translation with 1 at the top.  Cover pairs take one mask
test per comparable pair.  Most round-ideal frames and sources have 4..16
elements, so a kernel form must be no slower than a plain per-pair loop at
that size as well as faster at 32..64; there is one form per kernel and no
size threshold.

The same holds for a family M in a valid lattice: the common up cone of M
is the up cone of its join, so the join is one AND over the members' up
cones and one owner lookup (``_join_of``); ``_cone_keys`` maps ``up[m] & K``
and ``down[m] & K`` of a carrier K to m.  The members are
gathered in C: ``_flags`` turns a mask into 0/1 bytes that
``itertools.compress`` selects with, and ``functools.reduce`` folds the
selected cones.  Distributivity is decided by the join-prime test: a finite
lattice is distributive iff each join-irreducible element is join-prime
(Davey & Priestley, ch. 10).  j is join-irreducible iff the elements
strictly below it form a down cone, and join-prime iff the elements not
above it do, so the test is two owner lookups per element.  Only a lattice
that fails is scanned over its n^3 triples, one row of n at a time, to
name the first failing triple.

Binary relations over a lattice (``Relation``) use the same encoding, one
row mask per element.  The package's value types (``Basis``, ``Cover``,
reports, round ideals, compactifications, results) derive from ``_Value``:
immutable, with equality, hash and ``repr`` over their fields.

Each lattice keeps one memo, the only store of derived results (besides
the ``cols`` and ``pairs`` views of a ``Relation`` and the ``mask`` of a
``Basis``): its axiom report, full basis and well-inside relation, the
pcd-closure of each seed set (and of each closure, which is its own; the
set of every element closes to the full basis with no derivation),
compatibility tests, the principal filters and ideals of each carrier
mask short of the whole lattice, keyed by their cones (``_cone_keys``),
strong-inclusion reports, order sandwiches, least strong inclusions,
interpolative cores, round-ideal frames and their join maps, and for
maps out of it continuity reports, extension-class verdicts and sandwich
witnesses, extension maps, compactification reports and reconstructions.
Each is computed and checked in full once per distinct value (a key
holding everything the result depends on and stores) and then shared, so
equal values built apart are checked once.

Every carrier question is decided by one of two kernels.  A carrier is a
closed sub-pcd exactly when it is its own ``pcd_closure``.  Regularity,
strong regularity and compatibility ask whether each carrier element is the
join of the carrier elements related to it, by well-inside, by the
interpolative core and by a strong inclusion respectively; the three share
one memo entry per (relation rows, carrier) (``_is_compatible``).
Generation needs neither: a subset B generates L (each element is the join
of the members of B below it) exactly when B holds every join-irreducible
element, so each lattice keeps the set J of them as one mask
(``_irreducibles``, the keys of the dict from each to its lower cover that
the meet table derives its rows from) and a basis is tested by one AND.  If
j in J is the join of the members of B below it, j is one of them, for
otherwise they all lie below the one lower cover of j and so does their
join.  Conversely each element a is the join of the elements of J below it,
by induction: a is the bottom (the empty join), in J, or the join of two
elements strictly below it.  Once B holds J those lie in B, so the members
of B below a join to a (Davey & Priestley, ch. 2).

Argument checks (argument types, foreign lattice, index range, carrier
closure) run on every call before the lookup.  A check that is a function
of the key alone, such as a strong-inclusion report's stray pairs, runs
inside the derivation, and a derivation that raises stores nothing, so a
repeated call raises what the first call raised.  The memo
lives and dies with its lattice and takes no part in equality, hashing or
``repr``; every map's memo key holds its target, so a lattice hashes its
order once, when it is built.

Sizes are desk scale: no lattice, document or frame has more than
``CONSTRUCTION_CAP`` = 256 elements, and downset lattices are built over at
most ``GENERATE_POSET_CAP`` = 8 points, whose 2^8 downsets meet that cap;
both caps are enforced before any table or enumeration is built.  Every
axiom check runs in full, unsampled.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, compress, repeat
from operator import and_, attrgetter, index, itemgetter, or_

from .errors import InvariantViolation, MalformedInput, NotACoverError, PreconditionError

GENERATE_POSET_CAP = 8  # points of a poset whose downset lattice is built
CONSTRUCTION_CAP = 1 << GENERATE_POSET_CAP  # elements of any lattice

_FLAG = bytes.maketrans(b"01", b"\0\1")
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask):
    """Index of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _flags(mask, n):
    """0/1 bytes, byte i set when bit i of ``mask`` is: a selector for ``compress``.

    ``compress(values, _flags(mask, n))`` gathers ``values[i]`` for the set
    bits i < n of ``mask`` in one C-level pass, so a fold over a mask's
    members (``reduce`` with ``or_``/``and_``) runs without a Python loop.
    """
    # the digits of mask with a sentinel bit n above them, lowest first
    return bin(mask | 1 << n)[:2:-1].encode().translate(_FLAG)


def _transpose(rows, n):
    """The n column masks of the masks ``rows`` over range(n): bit i of column
    j is bit j of row i.  ``rows`` is nonempty when n is not 0.

    One C-level pass: with the rows' binary digits laid out last row first
    and highest bit first, column j is every n-th digit from n - 1 - j.
    """
    digits = "".join([bin(row | 1 << n)[3:] for row in reversed(rows)])
    return [int(digits[c::n], 2) for c in range(n - 1, -1, -1)]


def _mask(indices):
    """Bitmask with the given (in-range) indices set."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _index(x, n, what):
    """``x`` as an int in range(n); MalformedInput naming ``what`` otherwise,
    and for a ``bool``, which ``_require_type`` refuses as no ``int``."""
    if type(x) is not int:
        if type(x) is bool:
            _require_type(x, int, what)
        try:
            x = index(x)
        except TypeError:
            raise MalformedInput(f"{what} {x!r} is not an integer") from None
    if not 0 <= x < n:
        raise MalformedInput(f"{what} {x} out of range")
    return x


def _items(value, what, pairs=False):
    """The items of the collection ``value`` as a tuple, each a 2-tuple when ``pairs``.

    MalformedInput naming ``what`` when ``value`` cannot be iterated or, with
    ``pairs``, when one of its items does not unpack into exactly two values.
    """
    try:
        items = tuple(value)
        return tuple((a, b) for a, b in items) if pairs else items
    except (TypeError, ValueError):
        shape = "a collection of pairs" if pairs else "a collection"
        raise MalformedInput(f"{what} must be {shape}") from None


def _explain(scan, what, exact=True):
    """First witness of ``scan``, started only once the row test of ``what`` failed.

    An ``exact`` row test is equivalent to its condition, so an empty scan is
    an internal fault (InvariantViolation).  A row test that is only sound
    may fail while the condition holds; then the result is None.
    """
    witness = next(scan, None)
    if witness is None and exact:
        raise InvariantViolation(f"{what} fails its row test, yet the scan finds no witness")
    return witness


def _require(report, error, what):
    """Raise ``error`` with ``what`` and the first entry of ``report``, if any."""
    if report:
        raise error(f"{what}: {report[0]}")


def _owners(cone):
    """Dict from each cone c to its owner, the k with ``cone[k] == c`` and k in c.

    A cone several elements share (failing antisymmetry) is no key.  The bound
    of i and j (meet on down cones, join on up cones) is the owner of their
    common cone.  In a valid lattice a mask is a key exactly when it is an
    element's cone.
    """
    owner, shared = {}, []
    for k, c in enumerate(cone):
        if c >> k & 1:
            if c in owner:
                shared.append(c)
            owner[c] = k
    for c in shared:
        owner.pop(c, None)
    return owner


def _position_masks(rows, value):
    """Per ``bytes`` row, the mask of the positions holding ``value``: the
    row's bytes translated to binary digits, 1 at ``value``, lowest first."""
    digits = bytearray(b"0" * 256)
    digits[value] = ord("1")
    return [int(row.translate(digits)[::-1], 2) for row in rows]


def _positions(row, value):
    """Indices of ``value`` in the table row ``row`` (list or bytes), lowest first.

    One C-level count and one C-level search per hit, so a row with few hits
    costs few Python steps whatever its length.
    """
    i = -1
    for _ in range(row.count(value)):
        i = row.index(value, i + 1)
        yield i


class PcdLattice:
    """A finite bounded distributive lattice with pseudocomplements.

    Fields after construction: ``n``, ``names``, ``bottom``, ``top``,
    ``meet``/``join`` (n x n index tables), ``pstar`` (pseudocomplement
    vector, a list).  A complete table, as every valid lattice has, is a
    list of ``bytes`` rows, so ``meet[i][j]`` is an int.  A table the order
    leaves incomplete has list rows, with None where a bound is missing, and
    a pseudocomplement the order fails to produce is None; ``validate``
    explains why (``_meets``/``_joins``: the table is complete).
    """

    def __init__(self, names, leq, name="lattice"):
        names = tuple(str(x) for x in _items(names, "element labels"))
        n = len(names)
        if n > CONSTRUCTION_CAP:
            raise MalformedInput(f"lattices are capped at {CONSTRUCTION_CAP} elements, got {n}")
        if len(set(names)) != n:
            raise MalformedInput("duplicate element labels")
        try:
            square = len(leq) == n and all(len(row) == n for row in leq)
        except TypeError:  # not a sized collection of sized rows
            square = False
        if not square:
            raise MalformedInput(f"order matrix must be {n} x {n}")
        powers = [1 << j for j in range(n)]
        # the matrix rows select each row's up cones as they are
        self._analyze(names, [sum(compress(powers, row)) for row in leq], name, leq)

    @classmethod
    def _from_cones(cls, names, up, name):
        """The lattice whose element ``i`` is labelled ``names[i]`` and has the up
        cone ``up[i]`` (bit j says i <= j), for an order the library built: the
        labels unique strings, ``up`` a list of as many masks, at most
        ``CONSTRUCTION_CAP``, and no bit at or above their number."""
        lat = cls.__new__(cls)
        lat._analyze(names, up, name)
        return lat

    def _sublattice(self, elements, names, name):
        """The lattice on ``elements``, a list of indices of this valid lattice
        closed under its bounds, meet, join and pseudocomplement, ordered as
        here: element i is ``elements[i]``, labelled ``names[i]``.

        Its tables and pseudocomplements are this lattice's, read off at the
        elements' positions: one C-level gather and one ``bytes.translate``
        from indices here to positions there per row.  Its order is read off
        its meet table: i <= j exactly when ``meet[i][j]`` is i, so meet row
        i translated through a table that maps i alone to 1 is the 0/1
        selector of i's up cone.  Closure is the caller's to check: a value
        outside ``elements`` reads as position 0.
        """
        pick, pos = _picker(elements), bytearray(256)
        for i, e in enumerate(elements):
            pos[e] = i
        meet = [bytes(pick(self.meet[e])).translate(pos) for e in elements]
        join = [bytes(pick(self.join[e])).translate(pos) for e in elements]
        pstar = list(bytes(pick(self.pstar)).translate(pos))
        selectors = [row.translate(bytes(i) + b"\1" + bytes(255 - i))
                     for i, row in enumerate(meet)]
        up = [int(picked.translate(_DIGIT)[::-1], 2) for picked in selectors]
        lat = PcdLattice.__new__(PcdLattice)
        lat._analyze(names, up, name, selectors, (meet, join, pstar))
        return lat

    # -- derived structure ------------------------------------------------

    def _analyze(self, names, up, name, selectors=None, tables=None):
        """Every field from the labels and up cones.  ``selectors[i]`` picks the
        up cones above i for the transitivity test (``_flags`` of ``up[i]``
        by default); ``tables`` is a complete (meet, join, pstar) read off
        elsewhere, derived here by default."""
        self.names, self.name, self._up = tuple(names), str(name), up
        self.n = n = len(up)
        self._index = {label: i for i, label in enumerate(self.names)}
        self._down = down = _transpose(up, n)
        full = (1 << n) - 1
        self.bottom = up.index(full) if up.count(full) == 1 else None
        self.top = down.index(full) if down.count(full) == 1 else None
        if selectors is None:
            selectors = map(_flags, up, repeat(n))
        self._intransitive = self._transitivity_witness(selectors)
        # kept for the family bounds and the distributivity test too
        self._down_owner, self._up_owner = _owners(down), _owners(up)
        # each join-irreducible, whose strict down set is one element's cone,
        # to that element, its lower cover
        cones, owner = self._down_owner, self._up_owner
        lower = {j: cones[d ^ 1 << j] for j, d in enumerate(down) if d ^ 1 << j in cones}
        self._irreducibles = _mask(lower)
        if tables is None:
            # on a partial order the row of an irreducible whose cover is no
            # bound comes from its cover's row; the join table seeks such
            # covers only when the meet table found some (module docstring)
            order = self._intransitive is None and len(cones) == n
            derived = order and {j: c for j, c in lower.items() if c != self.bottom}
            self.meet, self._meets = _bound_table(cones, down, up, derived)
            self.join, self._joins = _bound_table(owner, up, down, derived and {
                m: c for m, u in enumerate(up)
                if (c := owner.get(u ^ 1 << m, self.top)) != self.top})
            # y* owns the elements disjoint from y when they form a down cone
            # of a transitive order with every meet (module docstring)
            owned = self._intransitive is None and self._meets and self.bottom is not None
            apart = _position_masks(self.meet, self.bottom) if owned else [None] * n
            self.pstar = [cones[m] if m in cones else self._pstar_of(y)
                          for y, m in enumerate(apart)]
        else:
            (self.meet, self.join, self.pstar), self._meets, self._joins = tables, True, True
        self._memo = {}  # derivation key -> checked result; see once()
        # every memo key of a map holds its target
        self._hash = hash((self.names, tuple(up)))

    def _transitivity_witness(self, selectors):
        """First (i, j, k) with i <= j <= k but not i <= k, or None.

        Row i is transitive when the up cones of the elements above i add
        nothing to ``_up[i]``: one C-level OR over the cones that
        ``selectors[i]`` picks, the row of the order matrix or ``_flags`` of
        ``_up[i]``.  Only the first failing row is scanned, to name its
        first j and lowest k.
        """
        up = self._up
        for i, (u, picked) in enumerate(zip(up, selectors)):
            if reduce(or_, compress(up, picked), u) != u:
                return _explain(
                    ((i, j, _lowest(up[j] & ~u)) for j in _bits(u) if up[j] & ~u),
                    f"{self.name}: transitivity at {self.names[i]}",
                )
        return None

    def _pstar_of(self, y):
        # the meet table is symmetric, so row y holds every meet c ^ y; the
        # elements disjoint from y are the positions of the bottom in it
        row = self.meet[y]
        if self.bottom is None or not self._meets and None in row:
            return None
        return self._join_all(_positions(row, self.bottom))

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        n = self.n
        return bool(self._up[_index(i, n, "element")] >> _index(j, n, "element") & 1)

    def down_list(self, i):
        return list(_bits(self._down[_index(i, self.n, "element")]))

    def element(self, label):
        try:
            return self._index[label]
        except (KeyError, TypeError):  # unknown, or unhashable and so no label
            raise MalformedInput(f"unknown element label {label!r}") from None

    def join_all(self, items):
        """Join of a finite family of elements; the empty join is the bottom."""
        n = self.n
        return self._join_all([_index(x, n, "element") for x in _items(items, "elements")])

    def _join_all(self, items):
        """``join_all`` of in-range indices, folded through the join table."""
        out = self.bottom
        for x in items:
            if out is None:
                return None
            out = self.join[out][x]
        return out

    def _join_of(self, selected):
        """Join of the elements picked by the 0/1 bytes ``selected`` (``_flags``).

        In a valid lattice the common up cone of a family is the up cone of
        its join, so the join is one AND over the members' up cones and one
        lookup of that cone's owner; the empty join is the bottom.  Valid
        lattices only: there every element has a cone of its own.
        """
        full = (1 << self.n) - 1
        return self._up_owner[reduce(and_, compress(self._up, selected), full)]

    def covers(self):
        """Cover pairs (i, j) with j directly above i, for Hasse output.

        j covers i when it is strictly above i and no element strictly above
        i is strictly below j: one mask test per comparable pair.
        """
        below = [d & ~(1 << k) for k, d in enumerate(self._down)]
        out = []
        for i, u in enumerate(self._up):
            above = u & ~(1 << i)
            for j in _bits(above):
                if not above & below[j]:
                    out.append((i, j))
        return out

    def once(self, key, derive):
        """``derive()``, computed once per ``key`` on this lattice and then shared.

        ``key`` starts with the derivation's name and holds everything its
        result depends on and stores.  A ``derive`` that raises stores
        nothing, so errors are raised afresh on every call.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = derive()
            return value

    # -- validation --------------------------------------------------------

    def validate(self):
        """Report of violated axioms; empty means valid.  Derived once, fresh list."""
        return list(self.once(("validate",), self._axiom_report))

    def _axiom_report(self):
        """The violated axioms, as a tuple; uncached."""
        names, up, down = self.names, self._up, self._down
        report = []
        for i in range(self.n):
            if not up[i] >> i & 1:
                report.append(f"reflexivity fails at {names[i]}")
                break
        for i in range(self.n):
            twins = up[i] & down[i] & ~(1 << i)
            if twins:
                j = _lowest(twins)
                report.append(f"antisymmetry fails at ({names[i]}, {names[j]})")
                break
        if self._intransitive is not None:
            i, j, k = self._intransitive
            report.append(f"transitivity fails at ({names[i]}, {names[j]}, {names[k]})")
        if self.bottom is None:
            report.append("no bottom element")
        if self.top is None:
            report.append("no top element")
        if not self._meets:
            i, j = _first_none(self.meet)
            report.append(f"no greatest lower bound for ({names[i]}, {names[j]})")
        if not self._joins:
            i, j = _first_none(self.join)
            report.append(f"no least upper bound for ({names[i]}, {names[j]})")
        if not report:
            report += self._check_distributive()
            report += self._check_pseudocomplements()
        return tuple(report)

    def _check_distributive(self):
        # a finite lattice is distributive iff every join-irreducible j is
        # join-prime (Davey & Priestley, ch. 10).  Both ask whether a down-set
        # is the down cone of an element, one lookup each among the down
        # cones: j is join-irreducible iff the elements strictly below it are
        # the cone of one lower cover (the bottom's empty set is no cone; the
        # lattice keeps them as ``_irreducibles``), and join-prime iff the
        # elements not above it are the cone of their join.
        cones, up = self._down_owner, self._up
        full = (1 << self.n) - 1
        if any(full ^ up[j] not in cones for j in _bits(self._irreducibles)):
            return [_explain(self._distributive_failures(), f"{self.name}: distributivity")]
        return []

    def _distributive_failures(self):
        # x ^ (y v z) == (x ^ y) v (x ^ z) for every z at once: both sides
        # are row gathers, join[y] picked out of meet[x] and meet[x] picked
        # out of join[x ^ y]; the per-z loop names each failure in order
        n, meet, join, names = self.n, self.meet, self.join, self.names
        through_join = [itemgetter(*row) for row in join]
        for x in range(n):
            mx = meet[x]
            through_meet = itemgetter(*mx)
            for y in range(n):
                if through_join[y](mx) == through_meet(join[mx[y]]):
                    continue
                for z in range(n):
                    if mx[join[y][z]] != join[mx[y]][mx[z]]:
                        yield f"distributivity fails at ({names[x]}, {names[y]}, {names[z]})"

    def _check_pseudocomplements(self):
        # pstar is the join of all elements disjoint from y, so maximality can
        # only fail through disjointness of that join itself; the meet table
        # is symmetric, so row y holds every meet c ^ y.  This runs on
        # lattices only, where meets are monotone: c <= y* gives
        # c ^ y <= y* ^ y = 0, so the elements disjoint from y include
        # down(y*) and equal it exactly when they are as many.
        names, meet, bottom, down = self.names, self.meet, self.bottom, self._down
        for y, s in enumerate(self.pstar):
            row = meet[y]
            if s is None or row[s] != bottom:
                return [f"pseudocomplement fails at {names[y]}: y and y* do not meet at 0"]
            if row.count(bottom) != down[s].bit_count():
                c = _lowest(_mask(_positions(row, bottom)) ^ down[s])
                return [
                    f"pseudocomplement fails at {names[y]}: "
                    f"{names[c]} disjoint from y does not match c <= y*"
                ]
        return []

    @property
    def is_valid(self):
        return not self.validate()

    def require_valid(self):
        _require(self.once(("validate",), self._axiom_report), PreconditionError,
                 "invalid lattice")

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PcdLattice):
            return NotImplemented
        return self.names == other.names and self._up == other._up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PcdLattice({self.name!r}, n={self.n})"


def _bound_table(owner, cone, other, derived):
    """The table of owners of common cones, and whether it is complete.

    A complete table has ``bytes`` rows (an index is below 256).  The row of
    each i that ``derived`` maps to a cover c, on a partial order, is row c
    with i at the positions ``other[i]`` selects: one multiply-add on the
    rows read as integers, after row c, as a cover's cone is a smaller mask
    (module docstring).  Every other row is sliced from one flat pass of
    subscripts; only a missing bound rebuilds the whole table, with list
    rows holding None entries.
    """
    n = len(cone)
    looked = [c for i, c in enumerate(cone) if i not in derived] if derived else cone
    try:
        flat = bytes([owner[c & d] for c in looked for d in cone])
    except KeyError:
        get = owner.get
        return [[get(c & d) for d in cone] for c in cone], False
    table = [flat[k:k + n] for k in range(0, len(flat), n or 1)]
    if derived:
        for i in sorted(derived):  # a place for each derived row, lowest first
            table.insert(i, None)
        for i in sorted(derived, key=cone.__getitem__):
            c = derived[i]
            table[i] = (int.from_bytes(table[c], "little") + int.from_bytes(
                _flags(other[i], n), "little") * (i - c)).to_bytes(n, "little")
    return table, True


def _picker(indices):
    """A getter of the items at ``indices`` (at least one) as a tuple, in C."""
    pick = itemgetter(*indices)
    return pick if len(indices) > 1 else lambda row: (pick(row),)


def _first_none(table):
    """First (i, j) in row-major order with ``table[i][j] is None``; one must be."""
    return _explain(((i, row.index(None)) for i, row in enumerate(table) if None in row),
                    "bound table completeness")


def _require_type(value, kind, what):
    """MalformedInput naming ``what`` unless ``value`` is a ``kind``; a ``bool``
    is no ``int`` here, though Python makes it one."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        an = "an" if kind.__name__[0] in "AEIOaeio" else "a"  # yet "a Universe"
        raise MalformedInput(f"{what} must be {an} {kind.__name__}, not {type(value).__name__}")


def _checked_carrier(lattice, carrier):
    """``carrier`` as a frozenset of element indices; None means all of them."""
    if carrier is None:
        return frozenset(range(lattice.n))
    return frozenset(_index(x, lattice.n, "carrier index") for x in _items(carrier, "carrier"))


class Relation:
    """A binary relation over a lattice, held as one row mask per element.

    Bit b of ``rows[a]`` says (a, b) is related; ``cols`` is the transpose,
    derived once, or handed over by the code that built the rows.  The carrier records which sublattice the relation is
    considered on and holds every related element.  ``pairs``, membership,
    iteration (in index order), ``len`` and ``repr`` are views of the rows;
    equality ignores the carrier and compares the rows (matrix equality).
    """

    def __init__(self, lattice, pairs, carrier=None):
        _require_type(lattice, PcdLattice, "relation lattice")
        carrier = _checked_carrier(lattice, carrier)
        n = lattice.n
        rows = [0] * n
        for a, b in _items(pairs, "relation pairs", pairs=True):
            a, b = _index(a, n, "pair element"), _index(b, n, "pair element")
            if a not in carrier or b not in carrier:
                raise MalformedInput(f"pair ({a}, {b}) outside the carrier")
            rows[a] |= 1 << b
        self.lattice, self.carrier, self.rows = lattice, carrier, tuple(rows)
        self._cols = self._pairs = None

    @classmethod
    def _from_rows(cls, lattice, rows, carrier, cols=None):
        """The relation with these row masks on a checked carrier holding them,
        and with their column masks, a tuple, when the caller already has them."""
        rel = cls.__new__(cls)
        rel.lattice, rel.carrier, rel.rows, rel._cols = lattice, carrier, tuple(rows), cols
        rel._pairs = None
        return rel

    @property
    def cols(self):
        """Column masks: bit a of ``cols[b]`` says (a, b) is related."""
        if self._cols is None:
            self._cols = tuple(_transpose(self.rows, len(self.rows)))
        return self._cols

    @property
    def pairs(self):
        """The related index pairs, as a frozenset."""
        if self._pairs is None:
            self._pairs = frozenset(self)
        return self._pairs

    def __contains__(self, pair):
        try:
            a, b = map(index, pair)
        except (TypeError, ValueError):
            return False  # not a pair of integers
        return 0 <= a < len(self.rows) and b >= 0 and bool(self.rows[a] >> b & 1)

    def __iter__(self):
        for a, row in enumerate(self.rows):
            for b in _bits(row):
                yield a, b

    def __len__(self):
        return sum(row.bit_count() for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.lattice == other.lattice and self.rows == other.rows

    def __hash__(self):
        return hash((self.lattice, self.rows))

    def __repr__(self):
        names = self.lattice.names
        inner = ", ".join(f"({names[a]},{names[b]})" for a, b in self)
        return f"Relation{{{inner}}}"


def _cone_keys(lat, keep):
    """Dicts from each principal filter ``up[m] & K`` of the carrier mask K =
    ``keep`` to m, and from each principal ideal ``down[j] & K`` to j.

    Members of K have distinct cones in K (antisymmetry), so each key has
    one value, its least (greatest) member.  On the whole lattice the dicts
    are ``_up_owner`` and ``_down_owner``; any other pair is derived once
    per carrier mask in the lattice's memo.
    """
    n = lat.n
    if keep == (1 << n) - 1:
        return lat._up_owner, lat._down_owner

    def derive():
        picked = _flags(keep, n)
        return tuple(dict(zip(map(and_, compress(cones, picked), repeat(keep)),
                              compress(range(n), picked))) for cones in (lat._up, lat._down))

    return lat.once(("cone_keys", keep), derive)


class _Value:
    """An immutable value: equality (within one class), hash and ``repr`` over
    ``_fields``.  ``__init__`` stores the fields, and any attribute derived
    from them such as a ``mask``, with ``self.__dict__.update``."""

    def __init_subclass__(cls):
        # the field tuple's getter; not a descriptor, so called as self._values(self)
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Basis(_Value):
    """A distinguished subset of a lattice.

    Also used for pcd-sublattice carriers that do not generate the whole
    lattice; ``is_basis`` tells the two roles apart.  ``mask`` is the bitmask
    of the elements, computed once; it takes no part in equality, hashing or
    ``repr``.
    """

    _fields = ("lattice", "elements")

    def __init__(self, lattice, elements):
        _require_type(lattice, PcdLattice, "basis lattice")
        elements = frozenset(
            _index(x, lattice.n, "basis index") for x in _items(elements, "basis elements")
        )
        self.__dict__.update(lattice=lattice, elements=elements, mask=_mask(elements))

    @classmethod
    def _derived(cls, lattice, elements):
        """The basis of a frozenset of in-range indices the library derived itself."""
        basis = cls.__new__(cls)
        basis.__dict__.update(lattice=lattice, elements=elements, mask=_mask(elements))
        return basis

    def is_basis(self):
        """Every element is the join of the basis elements below it: the
        basis holds every join-irreducible element (module docstring).

        Valid lattices only: PreconditionError on any other.
        """
        lat = self.lattice
        lat.require_valid()
        return not lat._irreducibles & ~self.mask

    def is_sub_pcd(self):
        """Contains the bounds and is closed under meet, join and star.

        The carrier is closed exactly when it is its own ``pcd_closure``,
        which is derived once per carrier in the lattice's memo.  Valid
        lattices only: PreconditionError on any other.
        """
        self.lattice.require_valid()
        return _closure(self.lattice, self.elements).mask == self.mask


def full_basis(lat):
    """The basis of all elements; one shared ``Basis`` per lattice."""
    _require_type(lat, PcdLattice, "lattice")
    return lat.once(("full_basis",), lambda: Basis._derived(lat, frozenset(range(lat.n))))


class Cover(_Value):
    """A family of parts intended to cover a target element."""

    _fields = ("target", "parts")

    def __init__(self, target, parts):
        # no lattice to bound the indices by: they need only be integers >= 0
        target = _index(target, float("inf"), "cover target")
        parts = (_index(x, float("inf"), "cover part") for x in _items(parts, "cover parts"))
        self.__dict__.update(target=target, parts=frozenset(parts))


def pseudocomplement(l, y):
    """Largest element disjoint from y."""
    _require_type(l, PcdLattice, "lattice")
    l.require_valid()
    return l.pstar[_index(y, l.n, "element")]


def well_inside(l):
    """The relation of pairs (y, x) with top = x v y*; built once per lattice."""
    _require_type(l, PcdLattice, "lattice")
    return l.once(("well_inside",), lambda: _well_inside(l))


def _well_inside(l):
    l.require_valid()
    # the join table is symmetric, so row y* holds every x v y*
    rows = _position_masks(map(l.join.__getitem__, l.pstar), l.top)
    return Relation._from_rows(l, rows, frozenset(range(l.n)))


def is_regular(l, b):
    """Every basis element is the join of basis elements well-inside it; memoised."""
    _require_type(l, PcdLattice, "lattice")
    _require_type(b, Basis, "basis")
    l.require_valid()
    if b.lattice != l:
        raise MalformedInput("basis belongs to another lattice")
    return _is_compatible(b, well_inside(l))


def _is_compatible(p, rel):
    """Whether each element of the carrier ``p`` is the join of the carrier
    elements ``rel`` relates to it; decided once per (rows, carrier).

    Regularity (``rel`` is well-inside), strong regularity (the interpolative
    core) and compatibility (a strong inclusion) are this one question, so
    they share one memo entry.  ``p`` and ``rel`` are checked by the caller.
    """
    return p.lattice.once(("compatible", rel.rows, p.elements), lambda: _compatible(p, rel))


def _compatible(p, rel):
    """``_is_compatible``, uncached.

    The related carrier elements join to a at once when they are
    ``down[a] & P``, the key of a among the carrier's principal ideals; any
    other set is folded through up cones (``_join_of``).
    """
    lat, pool, cols = p.lattice, p.mask, rel.cols
    n, down = lat.n, lat._down
    return all(cols[a] & pool == down[a] & pool
               or lat._join_of(_flags(cols[a] & pool, n)) == a for a in p.elements)


def minimal_subcover(l, parts, target):
    """Smallest sub-family of parts joining to target, earliest parts first.

    ``parts`` is a sequence of distinct elements; of the smallest covering
    sub-families the first in the lexicographic order of positions is
    returned, in sequence order.  The empty family is admitted: it covers
    the top of the degenerate one-element lattice.
    """
    _require_type(l, PcdLattice, "lattice")
    l.require_valid()
    parts = [_index(x, l.n, "cover part") for x in _items(parts, "cover parts")]
    target = _index(target, l.n, "cover target")
    if l._join_all(parts) != target:
        raise NotACoverError(f"parts do not cover {l.names[target]}")
    for k in range(len(parts) + 1):
        for combo in combinations(parts, k):
            if l._join_all(combo) == target:
                return list(combo)
    raise NotACoverError(f"parts do not cover {l.names[target]}")  # pragma: no cover


def is_compact(l, b, c):
    """Finite subcover witness for a genuine basic cover of the top."""
    _require_type(l, PcdLattice, "lattice")
    _require_type(b, Basis, "basis")
    _require_type(c, Cover, "cover")
    l.require_valid()
    if b.lattice != l:
        raise MalformedInput("basis belongs to another lattice")
    target = _index(c.target, l.n, "cover target")
    if target != l.top:
        raise PreconditionError(f"cover target {l.names[target]} is not the top")
    if not c.parts <= b.elements:
        raise PreconditionError("cover parts must be basis elements")
    parts = sorted(c.parts)
    if l._join_all(parts) != l.top:
        raise NotACoverError("parts do not join to the top")
    return minimal_subcover(l, parts, l.top)


def pcd_closure(l, seed):
    """Least subset containing seed, the bounds, and closed under *, meet, join.

    A worklist closure: the members found so far are kept in a list (and a
    set), and each member in turn adds its star and its meets and joins
    with itself and every member listed before it, gathered in C from its
    table rows (``map`` over ``__getitem__``) less the members already
    found.  Of any two members, the one processed later finds the other
    already listed, so the result is closed; it holds only the bounds, the
    seed and what the operations derive from them, so it is the least closed
    set.  Cost: r^2 table lookups for a closure of r elements.  A carrier is
    a closed sub-pcd exactly when it is its own closure (``Basis.is_sub_pcd``).
    The closure is derived once per seed set on the lattice and shared; the
    seed's indices are checked on every call, before the lookup.
    """
    _require_type(l, PcdLattice, "lattice")
    l.require_valid()
    return _closure(l, frozenset(_index(x, l.n, "seed index") for x in _items(seed, "seed")))


def _closure(l, seed):
    """``pcd_closure`` of a checked seed set on a valid lattice, derived once per seed.

    A seed holding every element is closed as it stands: its closure is the
    full basis, with no derivation.
    """
    if len(seed) == l.n:
        return full_basis(l)

    def derive():
        closure = _pcd_closure(l, seed)
        # a closed set is its own closure: every carrier closed here is a hit
        return l.once(("closure", closure.elements), lambda: closure)

    return l.once(("closure", seed), derive)


def _pcd_closure(l, seed):
    """``pcd_closure`` of a checked seed set, uncached."""
    meet, join, pstar = l.meet, l.join, l.pstar
    members = list(dict.fromkeys([l.bottom, l.top, *sorted(seed)]))
    found = set(members)
    for i, x in enumerate(members, 1):  # grows while it is walked
        head = members[:i]
        new = {pstar[x], *map(meet[x].__getitem__, head), *map(join[x].__getitem__, head)}
        new -= found
        found |= new
        members += new
    return Basis._derived(l, frozenset(members))


# -- constructors ----------------------------------------------------------


def downset_lattice(point_labels, point_leq, name="downsets"):
    """Lattice of downward-closed subsets of a finite poset, ordered by inclusion.

    Always a valid pcd-lattice: a sublattice of a powerset closed under
    intersection and union.  Downsets are ordered by (size, bitmask) and
    labelled by their members.
    """
    point_labels = [str(x) for x in _items(point_labels, "point labels")]
    k = len(point_labels)
    if k > GENERATE_POSET_CAP:
        raise MalformedInput(f"posets are capped at {GENERATE_POSET_CAP} points, got {k}")
    rows = [_items(row, "point order row") for row in _items(point_leq, "point order")]
    if len(rows) != k or any(len(row) != k for row in rows):
        raise MalformedInput(f"point order must be {k} x {k}")
    powers = [1 << j for j in range(k)]
    # bit i of below[j] says point i <= point j
    below = _transpose([sum(compress(powers, row)) for row in rows], k)
    down = [
        mask
        for mask in range(1 << k)
        if all(below[j] & ~mask == 0 for j in _bits(mask))
    ]
    down.sort(key=lambda m: (bin(m).count("1"), m))
    names = []
    for mask in down:
        inside = [point_labels[i] for i in range(k) if (mask >> i) & 1]
        names.append("{" + ",".join(inside) + "}")
    # bit d of holding[i] says downset d holds point i; the downsets above d
    # hold each of its points
    holding = _transpose(down, k)
    full = (1 << len(down)) - 1
    up = [reduce(and_, compress(holding, _flags(mask, k)), full) for mask in down]
    return PcdLattice._from_cones(names, up, name)


def chain(k, name=None):
    """Total order with k elements."""
    _require_type(k, int, "chain length")
    if not 1 <= k <= CONSTRUCTION_CAP:  # before any cone or table is built
        raise MalformedInput(f"chain length must be between 1 and {CONSTRUCTION_CAP}, got {k}")
    full = (1 << k) - 1
    up = [full >> i << i for i in range(k)]
    return PcdLattice._from_cones([f"c{i}" for i in range(k)], up, name or f"chain{k}")


def boolean(k, name=None):
    """Boolean algebra of subsets of k atoms (downsets of an antichain)."""
    _require_type(k, int, "atom count")
    if not 0 <= k <= GENERATE_POSET_CAP:
        raise MalformedInput(f"atom count must be between 0 and {GENERATE_POSET_CAP}, got {k}")
    labels = [chr(ord("a") + i) for i in range(k)]
    eye = [[i == j for j in range(k)] for i in range(k)]
    lat = downset_lattice(labels, eye, name=name or f"bool{k}")
    return lat
