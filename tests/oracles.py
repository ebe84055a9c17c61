"""Independent brute-force oracles.

Everything here recomputes results by exhaustive enumeration or naive
full-scan iteration, sharing no code path with the library implementations
it checks.  The one exception is ``scale_pairs``, which reaches a relation
through the library's dyadic scales, a route that shares no code with the
order sandwich that builds interpolative cores.
"""

from itertools import combinations

from roundideal.errors import NoScaleError
from roundideal.relation import build_scale


def _compile_steps(defn):
    idx = defn.universe.index
    return [
        (1 << idx[concl], sum(1 << idx[t] for t in prem))
        for concl, prem in defn.steps
    ]


def _tokens(defn, mask):
    items = defn.universe.items
    return frozenset(items[i] for i in range(len(items)) if (mask >> i) & 1)


def brute_lfp(defn):
    """Least closed set as the intersection of all closed candidate subsets."""
    n = len(defn.universe)
    steps = _compile_steps(defn)
    least = (1 << n) - 1
    for mask in range(1 << n):
        closed = True
        for concl, prem in steps:
            if prem & ~mask == 0 and concl & ~mask:
                closed = False
                break
        if closed:
            least &= mask
    return _tokens(defn, least)


def brute_gfp(defn):
    """Union of every subset contained in its own one-step consequences."""
    n = len(defn.universe)
    steps = _compile_steps(defn)
    union = 0
    for mask in range(1 << n):
        consequences = 0
        for concl, prem in steps:
            if prem & ~mask == 0:
                consequences |= concl
        if mask & ~consequences == 0:
            union |= mask
    return _tokens(defn, union)


def brute_largest_interpolative(pairs):
    """Union of all interpolative subsets of a pair set (at most 14 pairs)."""
    pairs = sorted(pairs)
    m = len(pairs)
    assert m <= 14, "oracle capped at 14 pairs"
    pos = {q: i for i, q in enumerate(pairs)}
    witnesses = []
    for x, z in pairs:
        options = []
        for a, y in pairs:
            if a != x:
                continue
            k = pos.get((y, z))
            if k is not None:
                options.append((pos[(x, y)], k))
        witnesses.append(options)
    union = 0
    for mask in range(1 << m):
        ok = True
        probe = mask
        i = 0
        while probe:
            if probe & 1:
                if not any(
                    (mask >> j) & 1 and (mask >> k) & 1 for j, k in witnesses[i]
                ):
                    ok = False
                    break
            probe >>= 1
            i += 1
        if ok:
            union |= mask
    return frozenset(pairs[i] for i in range(m) if (union >> i) & 1)


def exhaustive_round_ideals(p, si):
    """Member sets of all round ideals, by filtering every subset of the carrier."""
    lat = p.lattice
    members = sorted(p.elements)
    k = len(members)
    assert k <= 16, "oracle capped at 16 carrier elements"
    out = set()
    for mask in range(1 << k):
        sub = [members[i] for i in range(k) if (mask >> i) & 1]
        subset = set(sub)
        if lat.bottom not in subset:
            continue
        if any(
            lat.leq(c, b) and c not in subset for b in sub for c in members
        ):
            continue
        if any(lat.join[a][b] not in subset for a in sub for b in sub):
            continue
        if any(not any((b, a) in si.pairs for a in sub) for b in sub):
            continue
        out.add(frozenset(subset))
    return out


def naive_closure_conditions_1_to_5(lat, carrier, start_pairs):
    """Full-scan naive iteration of the five generating conditions.

    Materializes every rule instance each round instead of using a worklist;
    the limit is the least relation containing the start pairs and closed
    under the conditions.
    """
    members = sorted(carrier)
    current = set(start_pairs)
    current.add((lat.bottom, lat.bottom))
    current.add((lat.top, lat.top))
    while True:
        add = set()
        snapshot = list(current)
        for a, b in snapshot:
            add.add((lat.pstar[b], lat.pstar[a]))
            for x in members:
                if lat.leq(x, a):
                    for y in members:
                        if lat.leq(b, y):
                            add.add((x, y))
        for x, a in snapshot:
            for x2, b in snapshot:
                if x2 == x:
                    add.add((x, lat.meet[a][b]))
        for x, a in snapshot:
            for y, a2 in snapshot:
                if a2 == a:
                    add.add((lat.join[x][y], a))
        if add <= current:
            return frozenset(current)
        current |= add


def assert_minimal_subcover(lat, parts, target, result):
    """Check a claimed subcover is genuine, smallest, and lexicographically first."""
    parts = sorted(parts)
    assert set(result) <= set(parts)
    assert lat.join_all(result) == target
    k = len(result)
    for smaller in range(1, k):
        for combo in combinations(parts, smaller):
            assert lat.join_all(combo) != target, (
                f"smaller subcover exists: {combo}"
            )
    for combo in combinations(parts, k):
        if list(combo) == sorted(result):
            break
        assert lat.join_all(combo) != target, (
            f"earlier subcover exists: {combo}"
        )


def reference_tables(names, leq):
    """Bounds, meet/join tables, pseudocomplements and the axiom report of an
    order matrix, from the definitions on Python sets of pairs.

    Follows the lattice conventions: a bound or table entry is None unless
    exactly one element qualifies, the pseudocomplement of y is the join of
    the elements whose meet with y is the bottom, and each report line names
    the first witness of its failed axiom in index order.

    The meet of i and j is the reflexive k whose down set equals the common
    lower set L of i and j (the join dually on up sets).  On a transitive
    order this is the greatest member of L: such a k lies in its own down
    set, so in L, and holds all of L below it; conversely a member k of L
    with all of L below it is reflexive, and every c <= k lies in L by
    transitivity through k, so its down set is L.  The two rules pick the
    same candidates, hence the same unique one.
    """
    n = len(names)
    el = range(n)
    le = {(i, j) for i in el for j in el if leq[i][j]}
    down = [{c for c in el if (c, k) in le} for k in el]
    up = [{c for c in el if (k, c) in le} for k in el]

    def unique(candidates):
        return candidates[0] if len(candidates) == 1 else None

    def owner(cones, i, j):
        return unique([k for k in el if (k, k) in le and cones[k] == cones[i] & cones[j]])


    bottom = unique([b for b in el if all((b, x) in le for x in el)])
    top = unique([t for t in el if all((x, t) in le for x in el)])
    meet = [[owner(down, i, j) for j in el] for i in el]
    join = [[owner(up, i, j) for j in el] for i in el]

    def join_all(items):
        out = bottom
        for x in items:
            if out is None:
                return None
            out = join[out][x]
        return out

    def star(y):
        column = [meet[c][y] for c in el]
        if bottom is None or None in column:
            return None
        return join_all([c for c in el if column[c] == bottom])

    pstar = [star(y) for y in el]

    report = []
    refl = [i for i in el if (i, i) not in le]
    if refl:
        report.append(f"reflexivity fails at {names[refl[0]]}")
    anti = [(i, j) for i, j in sorted(le) if i != j and (j, i) in le]
    if anti:
        i, j = anti[0]
        report.append(f"antisymmetry fails at ({names[i]}, {names[j]})")
    trans = reference_transitivity_witness(leq)
    if trans:
        i, j, k = trans
        report.append(f"transitivity fails at ({names[i]}, {names[j]}, {names[k]})")
    if bottom is None:
        report.append("no bottom element")
    if top is None:
        report.append("no top element")
    no_meet = [(i, j) for i in el for j in el if meet[i][j] is None]
    if no_meet:
        i, j = no_meet[0]
        report.append(f"no greatest lower bound for ({names[i]}, {names[j]})")
    no_join = [(i, j) for i in el for j in el if join[i][j] is None]
    if no_join:
        i, j = no_join[0]
        report.append(f"no least upper bound for ({names[i]}, {names[j]})")
    if not report:
        dist = [
            (x, y, z)
            for x in el for y in el for z in el
            if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]
        ]
        if dist:
            x, y, z = dist[0]
            report.append(f"distributivity fails at ({names[x]}, {names[y]}, {names[z]})")
        for y in el:
            s = pstar[y]
            if s is None or meet[y][s] != bottom:
                report.append(
                    f"pseudocomplement fails at {names[y]}: y and y* do not meet at 0"
                )
                break
            odd = [c for c in el if (meet[c][y] == bottom) != ((c, s) in le)]
            if odd:
                report.append(
                    f"pseudocomplement fails at {names[y]}: "
                    f"{names[odd[0]]} disjoint from y does not match c <= y*"
                )
                break
    return {
        "bottom": bottom, "top": top, "meet": meet, "join": join,
        "pstar": pstar, "report": report,
    }


def reference_transitivity_witness(leq):
    """First triple (i, j, k) in lexicographic order with i <= j <= k but not
    i <= k, from the order as a set of pairs; None for a transitive order."""
    el = range(len(leq))
    le = {(i, j) for i in el for j in el if leq[i][j]}
    return next(
        (
            (i, j, k)
            for i in el for j in el for k in el
            if (i, j) in le and (j, k) in le and (i, k) not in le
        ),
        None,
    )


def reference_closure(k, pairs):
    """Reflexive-transitive closure of the pairs on range(k), as 0/1 rows:
    row i has a 1 at j when a breadth-first search from i along the pairs
    reaches j."""
    succ = {i: set() for i in range(k)}
    for a, b in pairs:
        succ[a].add(b)
    rows = []
    for i in range(k):
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [w for v in frontier for w in succ[v] if w not in seen]
            seen.update(frontier)
        rows.append([int(j in seen) for j in range(k)])
    return rows


def reference_covers(leq):
    """Pairs (i, j), in lexicographic order, with i <= j, i != j and no third
    element k with i <= k <= j, from the order as a set of pairs."""
    el = range(len(leq))
    le = {(i, j) for i in el for j in el if leq[i][j]}
    return [
        (i, j)
        for i in el for j in el
        if i != j and (i, j) in le
        and not any((i, k) in le and (k, j) in le for k in el if k not in (i, j))
    ]


def reference_round_ideal_violations(lat, carrier, members, related):
    """The violation list of ``RoundIdeal(carrier, members).violations(si)``
    from its set definitions, with ``related`` the pairs of ``si``.

    One line per member whose carrier down set leaves the members (naming the
    least such element), one per member a with a partner b whose join leaves
    them (naming the least b), and one for the least member related to no
    member, in that order, after a missing bottom.
    """
    members = sorted(members)
    inside = set(members)
    if not inside <= set(carrier):
        return ["members leave the carrier"]
    out = []
    if lat.bottom not in inside:
        out.append("missing the bottom")
    names = lat.names
    for b in members:
        gaps = [c for c in sorted(carrier) if lat.leq(c, b) and c not in inside]
        if gaps:
            out.append(f"not downward closed at {names[gaps[0]]}")
    for a in members:
        outside = [b for b in members if lat.join[a][b] not in inside]
        if outside:
            out.append(f"not join closed at ({names[a]}, {names[outside[0]]})")
    flat = [b for b in members if not any((b, a) in related for a in members)]
    if flat:
        out.append(f"not round at {names[flat[0]]}")
    return out


def reference_parse(labels, pairs, mode):
    """Outcome of reading a well-formed lattice document, by naive rescans.

    Returns ``("malformed",)`` for a document over the size caps (64
    elements in ``lattice`` mode, 8 points in ``poset-downsets`` mode),
    ``("invalid", report)`` for one that does not describe a pcd-lattice,
    and ``("ok", names, order)`` with the order as a set of index pairs.
    """
    k = len(labels)
    if k > (64 if mode == "lattice" else 8):
        return ("malformed",)
    le = {(i, i) for i in range(k)} | set(pairs)
    while True:
        more = {(i, m) for i, j in le for j2, m in le if j == j2} - le
        if not more:
            break
        le |= more
    if mode == "lattice":
        leq = [[(i, j) in le for j in range(k)] for i in range(k)]
        report = reference_tables(labels, leq)["report"]
        if report:
            return ("invalid", report)
        return ("ok", tuple(labels), frozenset(le))
    cyclic = sorted((i, j) for i, j in le if i != j and (j, i) in le)
    if cyclic:
        i, j = cyclic[0]
        return ("invalid", [f"poset antisymmetry fails at ({labels[i]}, {labels[j]})"])
    downsets = []
    for mask in range(1 << k):
        members = {i for i in range(k) if mask >> i & 1}
        if all(i in members for i, j in le if j in members):
            downsets.append((len(members), mask, frozenset(members)))
    downsets.sort(key=lambda d: d[:2])
    sets = [d[2] for d in downsets]
    names = tuple(
        "{" + ",".join(labels[i] for i in sorted(s)) + "}" for s in sets
    )
    order = frozenset(
        (a, b) for a in range(len(sets)) for b in range(len(sets)) if sets[a] <= sets[b]
    )
    return ("ok", names, order)


def brute_pcd_closure(lat, seed):
    """Least subset holding seed and the bounds and closed under *, meet, join.

    The intersection of every closed subset that contains the seed and the
    bounds, found by enumerating all subsets (at most 16 free elements).
    """
    forced = set(seed) | {lat.bottom, lat.top}
    free = [x for x in range(lat.n) if x not in forced]
    assert len(free) <= 16, "oracle capped at 2^16 candidate subsets"
    least = set(range(lat.n))
    for mask in range(1 << len(free)):
        s = forced | {x for i, x in enumerate(free) if mask >> i & 1}
        if all(
            lat.pstar[u] in s
            and all(lat.meet[u][v] in s and lat.join[u][v] in s for v in s)
            for u in s
        ):
            least &= s
    return frozenset(least)


def reference_join(leq, items):
    """The join of ``items`` read off the order matrix ``leq``: the upper
    bound of them below every other upper bound (the bottom for no items)."""
    uppers = [u for u in range(len(leq)) if all(leq[x][u] for x in items)]
    return next(u for u in uppers if all(leq[u][v] for v in uppers))


def reference_join_irreducibles(leq):
    """The join-irreducible elements of the lattice with order matrix ``leq``,
    in index order: those that are not the bottom and not the join of the
    elements strictly below them."""
    els = range(len(leq))
    bottom = reference_join(leq, [])
    return [j for j in els if j != bottom
            and reference_join(leq, [x for x in els if leq[x][j] and x != j]) != j]


def reference_joins_of_related(leq, targets, pool, related, join=None):
    """Whether each target a is the join of the ``pool`` elements x with
    ``related(x, a)``, every join read off the order matrix ``leq``.

    ``join`` maps a tuple of elements to their join; a caller asking about
    many pools on one lattice may pass a cached ``reference_join``.
    """
    join = join or (lambda items: reference_join(leq, items))
    return all(join(tuple(x for x in pool if related(x, a))) == a for a in targets)


def reference_well_inside_order(leq):
    """Pairs (y, x) with x v y* the top, everything read off the order matrix
    ``leq``: y* is the join of the elements whose only lower bound in common
    with y is the bottom."""
    els = range(len(leq))
    bottom, top = reference_join(leq, []), reference_join(leq, els)
    star = [reference_join(leq, [c for c in els
                                 if not any(leq[d][c] and leq[d][y] and d != bottom
                                            for d in els)])
            for y in els]
    return frozenset((y, x) for y in els for x in els
                     if reference_join(leq, [x, star[y]]) == top)


def reference_si_report(lat, carrier, pairs):
    """``(holds, witness, detail)`` of the seven strong-inclusion conditions.

    Written from the definitions over a Python set of pairs: the order is
    read off the meet table (x <= y when x ^ y = x) and well-inside from the
    join table and the pseudocomplements.  Each condition names its first
    counterexample in the enumeration order of its definition (pairs in
    index order, then the quantified elements in index order), with the
    library's detail text.
    """
    names, meet, join, pstar = lat.names, lat.meet, lat.join, lat.pstar
    members = sorted(carrier)
    rel = set(pairs)
    ordered = sorted(rel)

    def le(x, y):
        return meet[x][y] == x

    def first(failures):
        return next(iter(failures), None)

    bounds = first(q for q in [(lat.bottom, lat.bottom), (lat.top, lat.top)] if q not in rel)
    failures = [
        bounds and (bounds, "0<|0 or 1<|1 missing"),
        first(
            ((x, y), f"derived from ({names[a]}, {names[b]})")
            for a, b in ordered
            for x in members if le(x, a)
            for y in members if le(b, y) and (x, y) not in rel
        ),
        first(
            ((x, meet[a][b]), f"from ({names[x]})<|both")
            for x in members
            for a in members if (x, a) in rel
            for b in members if (x, b) in rel and (x, meet[a][b]) not in rel
        ),
        first(
            ((join[x][y], a), f"joint lower bounds of {names[a]}")
            for a in members
            for x in members if (x, a) in rel
            for y in members if (y, a) in rel and (join[x][y], a) not in rel
        ),
        first(
            ((pstar[b], pstar[a]), f"stars of ({names[a]}, {names[b]})")
            for a, b in ordered if (pstar[b], pstar[a]) not in rel
        ),
        first(
            ((y, x), "pair is not well-inside")
            for y, x in ordered if join[x][pstar[y]] != lat.top
        ),
        first(
            ((x, y), "no interpolant")
            for x, y in ordered
            if not any((x, z) in rel and (z, y) in rel for z in members)
        ),
    ]
    return [
        (True, None, "") if failure is None else (False, *failure)
        for failure in failures
    ]


def reference_well_inside(lat, carrier):
    """Pairs (y, x) of carrier elements with x v y* = 1, read off the tables."""
    members = sorted(carrier)
    return frozenset(
        (y, x) for y in members for x in members if lat.join[x][lat.pstar[y]] == lat.top
    )


def sandwich(lat, carrier, selves):
    """Pairs (x, y) of carrier elements with x <= s <= y for some s in ``selves``.

    The order is read off the meet table (x <= y when x ^ y = x).
    """
    members = sorted(carrier)

    def le(x, y):
        return lat.meet[x][y] == x

    return frozenset(
        (x, y) for x in members for y in members
        if any(le(x, s) and le(s, y) for s in selves)
    )


def reference_continuity_report(f):
    """The report of ``validate_map(f)`` by plain per-pair scans, for valid lattices.

    Reads only the meet and join tables, ``leq`` and the assignment of ``f``:
    the extension is re-derived as the join of the assignment over the basis
    elements below each target element.  Each condition names its first
    failing pair in index order, with the library's text; monotonicity
    failing skips the bottom and join conditions.
    """
    src, tgt, asg = f.source, f.target, f.assignment
    names, tnames = src.names, tgt.names
    basis = sorted(asg)

    def join_of(items):
        out = src.bottom
        for x in items:
            out = src.join[out][x]
        return out

    ext = [join_of(asg[b] for b in basis if tgt.leq(b, a)) for a in range(tgt.n)]
    report = []
    total = join_of(asg[b] for b in basis)
    if total != src.top:
        report.append(f"covering: basis images join to {names[total]}, not the top")
    meets = [(a, b) for a in basis for b in basis
             if src.meet[asg[a]][asg[b]] != ext[tgt.meet[a][b]]]
    if meets:
        a, b = meets[0]
        report.append(
            f"meets: images of ({tnames[a]}, {tnames[b]}) meet at "
            f"{names[src.meet[asg[a]][asg[b]]]} but common refinements join to "
            f"{names[ext[tgt.meet[a][b]]]}"
        )
    mono = [(a, b) for a in basis for b in basis
            if tgt.leq(a, b) and not src.leq(asg[a], asg[b])]
    if mono:
        a, b = mono[0]
        report.append(f"cover refinement: assignment not monotone at ({tnames[a]}, {tnames[b]})")
        return report
    if ext[tgt.bottom] != src.bottom:
        report.append("cover refinement: image of the bottom is not the bottom")
    joins = [(m, b) for m in range(tgt.n) for b in basis
             if ext[tgt.join[m][b]] != src.join[ext[m]][ext[b]]]
    if joins:
        m, b = joins[0]
        report.append(
            f"cover refinement: extension misses the join of ({tnames[m]}, {tnames[b]})"
        )
    return report


def scale_pairs(rel, depth):
    """Pairs (y, x) of carrier elements joined by a scale of ``depth`` in ``rel``.

    Each pair in index order is tried with ``build_scale``; equality with an
    interpolative core checks the core against repeated interpolation.
    """
    found = set()
    for y in sorted(rel.carrier):
        for x in sorted(rel.carrier):
            try:
                build_scale(rel, y, x, depth)
            except NoScaleError:
                continue
            found.add((y, x))
    return found


def reference_frame_failure(frame_tables, source_tables, masks, tops, keep):
    """The first failure of the round-ideal frame structure, by the pair scan.

    ``frame_tables`` and ``source_tables`` are ``reference_tables`` of the
    frame and of its source; ideal i has member mask ``masks[i]`` and top
    ``tops[i]`` on the carrier mask ``keep``.  Returns ("meet", i, j) for the
    first pair in index order whose frame meet is not the intersection of
    the two ideals; else ("join", i, j) for the first pair whose frame join
    is not the carrier part of the down set of the source join of their
    tops, or whose ideal i does not hold its top; else None.
    """
    def members(mask):
        return {x for x in range(len(source_tables["meet"])) if mask >> x & 1}

    fmeet, fjoin = frame_tables["meet"], frame_tables["join"]
    smeet, sjoin = source_tables["meet"], source_tables["join"]
    pairs = [(i, j) for i in range(len(masks)) for j in range(len(masks))]
    for i, j in pairs:
        if masks[fmeet[i][j]] != masks[i] & masks[j]:
            return "meet", i, j
    for i, j in pairs:
        top = sjoin[tops[i]][tops[j]]
        below = sum(1 << x for x in range(len(smeet)) if smeet[x][top] == x)
        if masks[fjoin[i][j]] != below & keep or tops[i] not in members(masks[i]):
            return "join", i, j
    return None


def reference_fold(f, source_tables):
    """The vector of the map ``f`` by its definition: for each target element
    a, the join of the assignment over the basis elements below a, folded
    from the bottom, lowest basis element first.

    Reads the target's order matrix (``leq``) and the source's bottom and
    join table from ``source_tables``, ``reference_tables`` of the source's
    order matrix, so it shares no code with ``framemap``.
    """
    tgt, asg = f.target, f.assignment
    join, out = source_tables["join"], []
    for a in range(tgt.n):
        value = source_tables["bottom"]
        for b in sorted(asg):
            if tgt.leq(b, a):
                value = join[value][asg[b]]
        out.append(value)
    return tuple(out)


def reference_extension(f, carrier):
    """The paper's extension of ``f`` by its definition: for each target
    element a, the set of carrier elements x with x <= f(b) for some b
    well-inside a.

    Reads only ``leq``, the meet and join tables and the assignment of
    ``f``: f(b) is the join of the assignment over the basis elements below
    b, b* the element meeting b at the bottom that lies above every other
    such element, and b is well-inside a when a v b* is the top.
    """
    src, tgt, asg = f.source, f.target, f.assignment
    els = range(tgt.n)

    def join_of(items):
        out = src.bottom
        for x in items:
            out = src.join[out][x]
        return out

    image = [join_of(asg[c] for c in asg if tgt.leq(c, b)) for b in els]
    star = []
    for b in els:
        apart = [s for s in els if tgt.meet[s][b] == tgt.bottom]
        star.append(next(s for s in apart if all(tgt.leq(d, s) for d in apart)))
    return [frozenset(x for x in sorted(carrier)
                      if any(tgt.join[a][star[b]] == tgt.top and src.leq(x, image[b])
                             for b in els))
            for a in els]
