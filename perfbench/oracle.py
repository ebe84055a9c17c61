"""Naive, set-based recomputation of the benchmark's expected results.

Nothing here imports ``roundideal``.  Every quantity is recomputed from an
order matrix by the definitions alone (full scans, fixpoints iterated to
stability), so a defect in the library cannot leak into the expected values.
``make_expected.py`` runs these functions offline and stores the results in
``expected.json``; the benchmark only reads that file.
"""

from __future__ import annotations


class Tables:
    """Bounds, meet, join and pseudocomplement of a finite lattice."""

    def __init__(self, leq):
        n = len(leq)
        idx = range(n)
        self.n = n
        self.leq = leq
        self.bottom = next(i for i in idx if all(leq[i][j] for j in idx))
        self.top = next(i for i in idx if all(leq[j][i] for j in idx))
        self.meet = [[self._glb(a, b) for b in idx] for a in idx]
        self.join = [[self._lub(a, b) for b in idx] for a in idx]
        self.pstar = [self._pstar(y) for y in idx]

    def _glb(self, a, b):
        leq = self.leq
        lower = [c for c in range(self.n) if leq[c][a] and leq[c][b]]
        return next(c for c in lower if all(leq[d][c] for d in lower))

    def _lub(self, a, b):
        leq = self.leq
        upper = [c for c in range(self.n) if leq[a][c] and leq[b][c]]
        return next(c for c in upper if all(leq[c][d] for d in upper))

    def _pstar(self, y):
        disjoint = [c for c in range(self.n) if self.meet[c][y] == self.bottom]
        return next(c for c in disjoint if all(self.leq[d][c] for d in disjoint))

    def join_all(self, items):
        out = self.bottom
        for x in items:
            out = self.join[out][x]
        return out


def downset_order(points, le):
    """Order matrix of the downsets of a poset, ordered by (size, bitmask).

    ``le`` lists comparable pairs (i, j) with i <= j; it is closed
    transitively here.
    """
    below = [[i == j for j in range(points)] for i in range(points)]
    for i, j in le:
        below[i][j] = True
    for m in range(points):
        for i in range(points):
            for j in range(points):
                if below[i][m] and below[m][j]:
                    below[i][j] = True
    downs = [
        mask
        for mask in range(1 << points)
        if all(
            (mask >> i) & 1
            for j in range(points)
            if (mask >> j) & 1
            for i in range(points)
            if below[i][j]
        )
    ]
    downs.sort(key=lambda m: (bin(m).count("1"), m))
    return downs, [[a & ~b == 0 for b in downs] for a in downs]


def chain_order(k):
    return [[i <= j for j in range(k)] for i in range(k)]


def lattice_order(lattice):
    """Order matrix of a pool lattice: ``{"chain": k}`` or a poset's downsets."""
    if "chain" in lattice:
        return chain_order(lattice["chain"])
    return downset_order(lattice["points"], lattice["le"])[1]


def covers(leq):
    """Hasse pairs (i, j): i < j with nothing strictly between."""
    n = len(leq)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    ]


def well_inside(t):
    return {
        (y, x) for y in range(t.n) for x in range(t.n) if t.join[x][t.pstar[y]] == t.top
    }


def pcd_closure(t, seed):
    """Least set holding the seed and the bounds, closed under meet, join and star."""
    out = set(seed) | {t.bottom, t.top}
    while True:
        grown = set(out)
        for u in out:
            grown.add(t.pstar[u])
            for v in out:
                grown.add(t.meet[u][v])
                grown.add(t.join[u][v])
        if grown == out:
            return out
        out = grown


def core(t, carrier):
    """Largest interpolative subrelation of well-inside on the carrier.

    Pairs without an interpolant are deleted until none is left to delete.
    """
    rel = {(a, b) for a, b in well_inside(t) if a in carrier and b in carrier}
    while True:
        kept = {
            (x, z) for x, z in rel if any((x, y) in rel and (y, z) in rel for y in carrier)
        }
        if kept == rel:
            return rel
        rel = kept


def least_strong_inclusion(t, carrier, seed):
    """Least relation holding the seed and closed under conditions 1 to 5.

    Every rule instance is materialised in every round (no worklist).
    """
    members = sorted(carrier)
    rel = set(seed) | {(t.bottom, t.bottom), (t.top, t.top)}
    while True:
        grown = set(rel)
        for a, b in rel:
            grown.add((t.pstar[b], t.pstar[a]))
            for x in members:
                if t.leq[x][a]:
                    for y in members:
                        if t.leq[b][y]:
                            grown.add((x, y))
        for x, a in rel:
            for y, b in rel:
                if y == x:
                    grown.add((x, t.meet[a][b]))
                if b == a:
                    grown.add((t.join[x][y], a))
        if grown == rel:
            return rel
        rel = grown


def round_ideals(t, carrier, si):
    """Member sets of the round ideals of (carrier, si).

    An ideal of a finite join-closed carrier is the carrier part of the
    principal downset of its own join, so the candidates are the principal
    downsets; each is tested against the definition.
    """
    members = sorted(carrier)
    found = set()
    for top in members:
        ideal = frozenset(c for c in members if t.leq[c][top])
        if t.bottom not in ideal:
            continue
        if any(t.join[a][b] not in ideal for a in ideal for b in ideal):
            continue
        if any(not any((b, a) in si for a in ideal) for b in ideal):
            continue
        found.add(ideal)
    return found


def strongly_regular(t):
    """Every element is the join of the elements core-below it."""
    full = set(range(t.n))
    rel = core(t, full)
    return all(t.join_all(x for x in full if (x, a) in rel) == a for a in full)
