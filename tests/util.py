"""Shared instance generators for the test suite."""

from roundideal import io as rio
from roundideal.framemap import ContinuousMap
from roundideal.lattice import boolean, chain, full_basis, pcd_closure
from roundideal.relation import (
    Relation,
    interpolative_core_on_basis,
    largest_interpolative,
    least_strong_inclusion,
)


def downset_instance(seed, size):
    return rio.generate(seed, size)


def atoms(lat):
    return [
        i
        for i in range(lat.n)
        if i != lat.bottom and lat.down_list(i) == sorted({lat.bottom, i})
    ]


def atom_map(src, tgt, phi):
    """Continuous map src -> tgt determined by a function on atoms.

    ``phi[i]`` names the target atom under the i-th source atom; the inverse
    assignment sends a target element to the join of source atoms landing
    under it.  Surjective phi gives a dense map, injective phi an embedding.
    """
    src_atoms = atoms(src)
    tgt_atoms = atoms(tgt)
    assert len(phi) == len(src_atoms)
    assignment = {}
    for t in range(tgt.n):
        images = [src_atoms[i] for i, a in enumerate(phi) if tgt.leq(tgt_atoms[a], t)]
        assignment[t] = src.join_all(images)
    return ContinuousMap(src, tgt, full_basis(tgt), assignment)


def random_phi(rng, n_src, n_tgt, surjective=False, injective=False):
    if injective:
        assert n_src <= n_tgt
        return rng.sample(range(n_tgt), n_src)
    while True:
        phi = [rng.randrange(n_tgt) for _ in range(n_src)]
        if not surjective or set(phi) == set(range(n_tgt)):
            return phi


def random_carrier(lat, rng, k=None):
    if k is None:
        k = rng.randrange(lat.n + 1)
    seed = rng.sample(range(lat.n), k) if k else []
    return pcd_closure(lat, seed)


def random_interpolative_seed(lat, p, rng):
    """An interpolative subrelation of well-inside on the carrier."""
    core = interpolative_core_on_basis(lat, p)
    chosen = [q for q in sorted(core.pairs) if rng.random() < 0.5]
    sub = largest_interpolative(Relation(lat, chosen, p.elements))
    return sub


def random_strong_inclusion(lat, p, rng):
    """One of: the core of well-inside, a generated closure, or the least one."""
    kind = rng.randrange(3)
    if kind == 0:
        return interpolative_core_on_basis(lat, p)
    if kind == 1:
        seed = random_interpolative_seed(lat, p, rng)
        return least_strong_inclusion(p, seed)
    return least_strong_inclusion(p, Relation(lat, (), p.elements))


def relabelled_boolean(k, rng, name="relabelled"):
    """A Boolean algebra with shuffled element order (same abstract frame)."""
    base = boolean(k)
    perm = list(range(base.n))
    rng.shuffle(perm)
    names = [base.names[perm[i]] for i in range(base.n)]
    leq = [
        [base.leq(perm[i], perm[j]) for j in range(base.n)]
        for i in range(base.n)
    ]
    from roundideal.lattice import PcdLattice

    return PcdLattice(names, leq, name=name)


def iso_map(src, tgt, phi):
    """Isomorphism src -> tgt from a bijection on atoms (both Boolean)."""
    return atom_map(src, tgt, phi)


ORDER_KINDS = ("arbitrary", "cyclic", "intransitive", "n5-m3", "downsets", "flipped")


def relabel(names, leq, rng):
    """The same order with its elements listed in a shuffled order."""
    perm = list(range(len(names)))
    rng.shuffle(perm)
    return (
        [names[p] for p in perm],
        [[leq[p][q] for q in perm] for p in perm],
    )


def order_of(lat):
    return list(lat.names), [[lat.leq(i, j) for j in range(lat.n)] for i in range(lat.n)]


def random_order(rng, kind):
    """Labels and a truth matrix on at most 9 elements, valid or not.

    ``arbitrary`` need not even be reflexive; ``cyclic`` is a preorder with
    cycles likely; ``intransitive`` is reflexive but rarely transitive;
    ``n5-m3`` is a relabelled pentagon or diamond (lattices that are not
    distributive); ``downsets`` is a relabelled downset lattice (valid);
    ``flipped`` is a chain or Boolean algebra with one or two entries
    flipped.
    """
    n = rng.randint(0, 9)
    p = rng.random()
    if kind == "arbitrary":
        return [f"e{i}" for i in range(n)], [
            [rng.random() < p for _ in range(n)] for _ in range(n)
        ]
    if kind == "intransitive":
        return [f"e{i}" for i in range(n)], [
            [i == j or rng.random() < p for j in range(n)] for i in range(n)
        ]
    if kind == "cyclic":
        leq = [[i == j or rng.random() < p / 3 for j in range(n)] for i in range(n)]
        for m in range(n):
            for i in range(n):
                if leq[i][m]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[m])]
        return [f"e{i}" for i in range(n)], leq
    if kind == "n5-m3":
        if rng.random() < 0.5:
            above = {0: {1, 2, 3, 4}, 1: {4}, 2: {3, 4}, 3: {4}}
        else:
            above = {0: {1, 2, 3, 4}, 1: {4}, 2: {4}, 3: {4}}
        leq = [[i == j or j in above.get(i, ()) for j in range(5)] for i in range(5)]
        return relabel(list("0abc1"), leq, rng)
    if kind == "downsets":
        lat = downset_instance(rng.randrange(10**6), rng.randint(0, 3))
        return relabel(*order_of(lat), rng)
    if kind == "flipped":
        lat = chain(rng.randint(1, 9)) if rng.random() < 0.5 else boolean(rng.randint(0, 3))
        names, leq = order_of(lat)
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(lat.n), rng.randrange(lat.n)
            leq[i][j] = not leq[i][j]
        return relabel(names, leq, rng)
    raise ValueError(kind)


def intersection_closed_order(rng, points=5, cap=24):
    """Labels and inclusion order of a random intersection-closed family.

    The family holds the full set of at most ``points`` points and random
    subsets of it, closed under intersection and kept to at most ``cap``
    members, listed in a shuffled order.  It is always a lattice (meet is
    intersection); about a third of them are not distributive.
    """
    k = rng.randint(1, points)
    family = {(1 << k) - 1}
    for _ in range(rng.randint(1, 3 * k)):
        s = rng.randrange(1 << k)
        grown = family | {s & t for t in family}
        if len(grown) > cap:
            break
        family = grown
    members = sorted(family)
    names = ["{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in members]
    leq = [[a & ~b == 0 for b in members] for a in members]
    return relabel(names, leq, rng)
