"""Line-oriented text formats, seeded instance generation, DOT export.

Lattice documents::

    lattice <name> <mode>        # mode: lattice | poset-downsets
    elements <label> <label> ...
    le <a> <b>                   # a <= b; closed reflexively/transitively

Relation documents have the headers ``relation <name>`` and ``host <name>``
and ``pair <a> <b>`` lines; map documents have the headers ``map <name>``,
``source <path>``, ``target <path>`` (paths relative to the document) and
``basis <label> ...``, and ``to <b> <x>`` lines (target basis element b,
source element x).  One grammar, read by ``_document``, covers all three:
``#`` starts a comment, each header appears at most once with exactly its
arguments (``elements`` and ``basis`` take any number), and every other
line is ``<body> <x> <y>``.  Structural faults (an unknown directive, a
repeated header, a wrong argument count) are reported first, for the first
faulty line; only then does each parser give the lines their meaning.  A
label naming no element of its lattice is refused with its line
(``_element``), and documents read from paths are decoded as UTF-8
whatever the locale (``_read_document``).

The pairs are closed in one depth-first pass in postorder, repeated only
when the search meets a back edge (a cycle or a pair ``le a a``).  In
``lattice`` mode the closure must validate as a pcd-lattice of at most 256
elements; in ``poset-downsets`` mode it must be a poset of at most 8 points,
whose downset lattice (at most 256 elements, always valid) is built.  Both
caps are checked before the pairs are closed.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import compress
from operator import or_
from pathlib import Path

from .compactify import RoundIdealFrame
from .errors import MalformedInput, ValidationFailure
from .framemap import ContinuousMap
from .lattice import (
    CONSTRUCTION_CAP,
    GENERATE_POSET_CAP,
    Basis,
    PcdLattice,
    _bits,
    _explain,
    _flags,
    _mask,
    _require_type,
    downset_lattice,
    full_basis,
)
from .relation import Relation


def _document(text, body, headers):
    """Read ``text`` by the module's one grammar, in one pass.

    ``body`` and ``headers`` are usages such as ``le <a> <b>``; a header
    usage naming no argument takes any number.  Returns {head: (line number,
    arguments)} and the body lines as (line number, x, y).
    """
    _require_type(text, str, "document")
    verb = body.split()[0]
    usages = {usage.split()[0]: usage for usage in headers}
    found, rows = {}, []
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        usage = usages.get(head)
        if head == verb:
            if len(tokens) != 3:
                raise MalformedInput(f"line {no}: expected '{body}'")
            rows.append((no, tokens[1], tokens[2]))
        elif usage is None:
            raise MalformedInput(f"line {no}: unknown directive {head!r}")
        elif head in found:
            raise MalformedInput(f"line {no}: duplicate '{head}' line")
        elif " " in usage and len(tokens) != len(usage.split()):
            raise MalformedInput(f"line {no}: expected '{usage}'")
        else:
            found[head] = no, tokens[1:]
    return found, rows


def _read_document(path):
    """The text of the document at ``path``, read as UTF-8 whatever the locale.

    MalformedInput naming the path when it is not UTF-8; an unreadable file
    raises its OSError.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None


def parse_lattice(text):
    """Build a lattice from a document; raises on parse or axiom failures."""
    found, rows = _document(text, "le <a> <b>", ("lattice <name> <mode>", "elements"))
    if "lattice" in found:
        no, (name, mode) = found["lattice"]
        if mode not in ("lattice", "poset-downsets"):
            raise MalformedInput(f"line {no}: unknown mode {mode!r}")
    at, labels = found.get("elements", (None, None))
    index = {label: i for i, label in enumerate(labels or ())}
    if labels is not None and len(index) != len(labels):
        raise MalformedInput(f"line {at}: element labels must be unique")
    if rows and (labels is None or rows[0][0] < at):
        raise MalformedInput(f"line {rows[0][0]}: 'le' before 'elements'")
    try:
        pairs = [(index[a], index[b]) for _, a, b in rows]
    except KeyError:
        no, label = _explain(((no, x) for no, *pair in rows for x in pair if x not in index),
                             "label lookup")
        raise MalformedInput(f"line {no}: undeclared label {label!r}") from None
    if "lattice" not in found:
        raise MalformedInput("missing 'lattice <name> <mode>' header")
    if labels is None:
        raise MalformedInput("missing 'elements' line")
    k = len(labels)
    if mode == "lattice" and k > CONSTRUCTION_CAP:
        raise MalformedInput(
            f"lattice mode is capped at {CONSTRUCTION_CAP} elements, got {k}"
        )
    if mode == "poset-downsets" and k > GENERATE_POSET_CAP:
        raise MalformedInput(
            f"poset-downsets mode is capped at {GENERATE_POSET_CAP} points, got {k}"
        )
    up = _reflexive_transitive_closure(k, pairs)
    if mode == "poset-downsets":
        bad = next(((i, j) for i, u in enumerate(up)
                    for j in _bits(u & ~(1 << i)) if up[j] >> i & 1), None)
        if bad:
            raise ValidationFailure(
                [f"poset antisymmetry fails at ({labels[bad[0]]}, {labels[bad[1]]})"]
            )
        points = [[u >> j & 1 for j in range(k)] for u in up]  # at most 8 x 8
        return downset_lattice(labels, points, name=name)
    lat = PcdLattice._from_cones(labels, up, name)
    report = lat.validate()
    if report:
        raise ValidationFailure(report)
    return lat


def _reflexive_transitive_closure(k, pairs):
    """Up cones of the least preorder on range(k) containing the pairs: bit j
    of row i says i <= j.

    A depth-first search ORs the row masks of each point's successors into
    its own as it leaves the point, so in postorder every successor's row is
    final first and one pass closes an acyclic order: O(k + pairs) mask
    operations, recursing at most k deep.  A point still on the search path
    has the row ``pending`` (bit k, beyond every point), so a back edge
    leaves that bit in a row; then the pass repeats in the same postorder
    until nothing changes.
    """
    succ = [[] for _ in range(k)]
    for a, b in pairs:
        succ[a].append(b)
    rows = [0] * k  # 0 until a point is reached
    order = []
    pending = 1 << k
    for v in range(k):
        rows[v] or _close(v, succ, rows, order, pending)
    changed = reduce(or_, rows, 0) >> k  # a back edge was met
    while changed:
        old = rows[:]
        for v in order:
            rows[v] = reduce(or_, map(rows.__getitem__, succ[v]), rows[v])
        changed = rows != old
    return [row & ~pending for row in rows]


def _close(v, succ, rows, order, pending):
    """The depth-first visit of point v in ``_reflexive_transitive_closure``:
    fills ``rows[v]``, appends v to ``order`` in postorder and returns the
    row.  Its state is passed in, so the search makes no reference cycle."""
    rows[v] = pending
    row = 1 << v
    for w in succ[v]:
        row |= rows[w] or _close(w, succ, rows, order, pending)
    rows[v] = row
    order.append(v)
    return row


def _require_tokens(groups):
    """MalformedInput naming the first token, of the (what, tokens) ``groups``,
    that is empty or holds whitespace or ``#``: the tokens joined by spaces
    must split back into themselves.  Only a refused document is scanned."""
    tokens = [t for _, ts in groups for t in ts]
    joined = " ".join(tokens)
    if "#" in joined or joined.split() != tokens:
        what, token = _explain(
            ((what, t) for what, ts in groups for t in ts if "#" in t or t.split() != [t]),
            "document tokens",
        )
        raise MalformedInput(f"{what} {token!r} cannot be written: empty, or holds "
                             "whitespace or '#'")


def serialize_lattice(l):
    """Canonical document: declaration order, Hasse pairs only."""
    _require_type(l, PcdLattice, "lattice")
    _require_tokens([("lattice name", [l.name]), ("element label", l.names)])
    out = [f"lattice {l.name} lattice", "elements " + " ".join(l.names)]
    for i, j in sorted(l.covers()):
        out.append(f"le {l.names[i]} {l.names[j]}")
    return "\n".join(out) + "\n"


def parse_relation(text, lattice):
    """Read ``pair`` lines resolved against the given host lattice."""
    _require_type(lattice, PcdLattice, "host lattice")
    found, rows = _document(text, "pair <a> <b>", ("relation <name>", "host <name>"))
    if "host" in found:
        no, (host,) = found["host"]
        if host != lattice.name:
            raise MalformedInput(
                f"line {no}: host {host!r} does not match lattice {lattice.name!r}"
            )
    return Relation(lattice, {(_element(lattice, a, no), _element(lattice, b, no))
                              for no, a, b in rows})


def _element(lattice, label, no):
    """The element of ``lattice`` labelled ``label``, read on line ``no``."""
    try:
        return lattice.element(label)
    except MalformedInput as exc:
        raise MalformedInput(f"line {no}: {exc}") from None


def serialize_relation(rel, name="relation"):
    """Document of the pairs; only labels in a pair must be writable."""
    _require_type(rel, Relation, "relation")
    names, rows, name = rel.lattice.names, rel.rows, str(name)
    # in some pair: set in some row, or the element of a nonempty row
    used = reduce(or_, rows, 0) | _mask(a for a, row in enumerate(rows) if row)
    _require_tokens([("relation name", [name]), ("host name", [rel.lattice.name]),
                     ("element label", list(compress(names, _flags(used, len(names)))))])
    out = [f"relation {name}", f"host {rel.lattice.name}"]
    for a, b in rel:
        out.append(f"pair {names[a]} {names[b]}")
    return "\n".join(out) + "\n"


def parse_map(text, base_dir="."):
    """Read a map document; source and target lattices load from their paths."""
    try:
        base = Path(base_dir)
    except TypeError:
        kind = type(base_dir).__name__
        raise MalformedInput(f"base directory must be a path, not {kind}") from None
    found, rows = _document(text, "to <b> <x>",
                            ("map <name>", "source <path>", "target <path>", "basis"))

    def load(head):
        no, (path,) = found[head]
        path = base / path
        try:
            doc = _read_document(path)
        except OSError as exc:
            raise MalformedInput(f"line {no}: cannot read {path}: {exc}") from None
        except MalformedInput as exc:
            raise MalformedInput(f"line {no}: {exc}") from None
        return parse_lattice(doc)

    source, target = (load(head) if head in found else None for head in ("source", "target"))
    if source is None or target is None:
        raise MalformedInput("map document needs 'source <path>' and 'target <path>'")
    if "basis" in found:
        no, labels = found["basis"]
        basis = Basis(target, frozenset(_element(target, x, no) for x in labels))
    else:
        basis = full_basis(target)
    assignment = {}
    for no, b_label, x_label in rows:
        b = _element(target, b_label, no)
        if b in assignment:
            raise MalformedInput(f"line {no}: duplicate assignment for {b_label!r}")
        assignment[b] = _element(source, x_label, no)
    if set(assignment) != set(basis.elements):
        raise MalformedInput("assignment must cover exactly the declared target basis")
    return ContinuousMap(source, target, basis, assignment)


def serialize_map(f, name="map", source_path="source.lat", target_path="target.lat"):
    _require_type(f, ContinuousMap, "map")
    name, source_path, target_path = str(name), str(source_path), str(target_path)
    basis = sorted(f.basis.elements)
    labels = [f.target.names[b] for b in basis]
    images = [f.source.names[f.assignment[b]] for b in basis]
    _require_tokens([("map name", [name]), ("path", [source_path, target_path]),
                     ("element label", labels), ("element label", images)])
    out = [f"map {name}", f"source {source_path}", f"target {target_path}",
           "basis " + " ".join(labels)]
    out += [f"to {b} {x}" for b, x in zip(labels, images)]
    return "\n".join(out) + "\n"


def generate(seed, size):
    """Deterministic random poset of the given size, then its downset lattice.

    Each pair i < j becomes comparable with probability one half; the result
    is transitively closed before the downsets are enumerated.
    """
    _require_type(seed, int, "seed")
    _require_type(size, int, "poset size")
    if not 0 <= size <= GENERATE_POSET_CAP:
        raise MalformedInput(f"poset size must be between 0 and {GENERATE_POSET_CAP}")
    rng = random.Random(seed)
    pairs = [
        (i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.5
    ]
    up = _reflexive_transitive_closure(size, pairs)
    labels = [f"p{i}" for i in range(size)]
    points = [[u >> j & 1 for j in range(size)] for u in up]
    return downset_lattice(labels, points, name=f"gen-s{seed}-k{size}")


def export_dot(obj):
    """Hasse diagram in DOT; frames get their basic ideals highlighted."""
    highlight = frozenset()
    lat = obj
    if isinstance(obj, RoundIdealFrame):
        lat = obj.lattice
        highlight = obj.ideal_basis.elements
    else:
        _require_type(obj, PcdLattice, "diagram source")
    safe = "".join(c if c.isalnum() else "_" for c in lat.name)
    if "0" <= safe[:1] <= "9":  # a DOT ID may not start with a digit
        safe = "_" + safe
    out = [f"digraph {safe} {{", "  rankdir=BT;"]
    # quoted DOT strings escape their quotes, and so their backslashes too
    names = [x.replace("\\", "\\\\").replace('"', '\\"') for x in lat.names]
    for i, label in enumerate(names):
        attrs = ""
        if i in highlight:
            attrs = " [style=filled, fillcolor=lightblue]"
        out.append(f'  "{label}"{attrs};')
    for i, j in sorted(lat.covers()):
        out.append(f'  "{names[i]}" -> "{names[j]}";')
    out.append("}")
    return "\n".join(out) + "\n"
