"""The per-lattice memo: each derivation runs once per value, and sharing is invisible.

Axiom reports, full bases, pcd-closures (which also decide whether a
subset is a closed sub-pcd), compatibility tests (which also decide
regularity and strong regularity),
strong-inclusion reports, least strong inclusions, interpolative cores,
order sandwiches (which a core shares with every least strong inclusion of
its self-related set), round-ideal frames, continuity reports,
extension-class verdicts, sandwich witnesses (on their first read),
extension maps, compactification reports and reconstructions are derived
once per distinct key on their lattice (``PcdLattice.once``); ``compare``
inverts the reconstruction's vector afresh, so it stores no inverse.  The
counting tests wrap the uncached derivations and require one run per key,
and one pins the memo lookups and validity checks of one compactify,
reconstruct and compare operation; the differential tests require a
lattice whose memo is warm to give the same reports, frames, verdicts and
error messages as a freshly built equal lattice.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import util
from roundideal import compactify, framemap, lattice, relation
from roundideal.compactify import (
    Compactification,
    compactify_extending,
    compare,
    enumerate_round_ideals,
    extension_map,
    from_compactification,
    is_compatible,
    Ordering,
)
from roundideal.errors import PreconditionError, RoundIdealError
from roundideal.framemap import ContinuousMap, finer_than, validate_map
from roundideal.lattice import (
    Basis,
    PcdLattice,
    boolean,
    chain,
    full_basis,
    is_regular,
    pcd_closure,
    well_inside,
)
from roundideal.relation import (
    Relation,
    check_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    least_strong_inclusion,
)

UNCACHED = {
    # module, function name, key of its arguments (lattices by identity)
    "report": (relation, "_strong_inclusion_report",
               lambda si, keep: (id(si.lattice), si.rows, keep)),
    "least": (relation, "_least_strong_inclusion",
              lambda p, seed, keep: (id(p.lattice), seed.rows, keep)),
    "core": (relation, "_interpolative_core",
             lambda l, b: (id(l), b.elements)),
    "sandwich": (relation, "_sandwich_of",
                 lambda lat, selves, carrier: (id(lat), selves, carrier)),
    "frame": (compactify, "_round_ideal_frame",
              lambda p, si: (id(p.lattice), si.rows, p.elements)),
    "continuity": (framemap, "_continuity_report",
                   lambda f: (id(f.source), f.target, frozenset(f.assignment.items()))),
    "reconstruction": (compactify, "_reconstruct",
                       lambda k: (id(k.source), k.codomain,
                                  frozenset(k.map.assignment.items()))),
    "validate": (PcdLattice, "_axiom_report", lambda l: (id(l),)),
    "compactification": (compactify, "_check_compactification",
                         lambda k: (id(k.source), k.codomain,
                                    frozenset(k.map.assignment.items()), id(k.frame))),
    "finer": (framemap, "_finer_verdict",
              lambda si, f: (id(f.source), si.rows, si.carrier, f.target,
                             frozenset(f.assignment.items()))),
    "witnesses": (framemap, "_witness_search",
                  lambda si, f: (id(f.source), si.rows, si.carrier, f.target,
                                 frozenset(f.assignment.items()))),
    "extension": (compactify, "_extension_map",
                  lambda fr, f: (id(fr), f.target, f.target.name,
                                 frozenset(f.assignment.items()))),
    "closure": (lattice, "_pcd_closure", lambda l, seed: (id(l), seed)),
    "compatible": (lattice, "_compatible",
                   lambda p, rel: (id(p.lattice), rel.rows, p.elements)),
}


@pytest.fixture
def runs(monkeypatch):
    """Keys of every uncached derivation run while the test is active."""
    out = {name: [] for name in UNCACHED}
    alive = []  # keeps the lattices alive, so that their ids stay unique

    def counting(name, real, key_of):
        def wrapper(*args):
            alive.append(args)
            out[name].append(key_of(*args))
            return real(*args)

        return wrapper

    for name, (module, attr, key_of) in UNCACHED.items():
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr), key_of))
    return out


def pipeline(l, target=None):
    """compactify_extending with one map (into ``target``, default a fresh
    ``boolean(2)``) and with none, then compare them."""
    f = util.atom_map(l, boolean(2) if target is None else target, [0, 1, 1])
    k, _ = compactify_extending(l, full_basis(l), [f])
    canonical, _ = compactify_extending(l, full_basis(l), [])
    return compare(k, canonical)


class TestLookupsPerOperation:
    # each value is checked where it enters; the library's own calls reach
    # its derivations through their lookups, with no entry checks repeated
    ONCE, REQUIRE_VALID = 104, 24

    def test_compactify_reconstruct_compare_on_two_maps(self, monkeypatch):
        l = boolean(4)
        maps = [util.atom_map(l, boolean(2), [0, 0, 1, 1]),
                util.atom_map(l, boolean(1), [0, 0, 0, 0])]
        counts = {"once": 0, "require_valid": 0}

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(PcdLattice, name, counting(name, getattr(PcdLattice, name)))
        k, _ = compactify_extending(l, full_basis(l), maps)
        from_compactification(k)
        canonical, _ = compactify_extending(l, full_basis(l), [])
        assert compare(canonical, k).verdict is Ordering.ISO
        assert counts == {"once": self.ONCE, "require_valid": self.REQUIRE_VALID}
        # at most 60% of the 191.6 and 73.4 per operation of the benchmark's
        # compactify-maps workload before the routing
        assert self.ONCE <= 0.6 * 191.6 and self.REQUIRE_VALID <= 0.6 * 73.4


class TestOncePerKey:
    def test_pipeline_derives_each_value_once(self, runs):
        l = boolean(3)
        assert pipeline(l).verdict is Ordering.ISO
        # the pipeline reads extension-class verdicts, never their witnesses
        assert runs["finer"] and not runs.pop("witnesses")
        # the pipeline closes only the full set, which is closed as it stands
        for _ in range(2):
            pcd_closure(l, [1])
        for name, keys in runs.items():
            assert keys, name
            assert len(set(keys)) == len(keys), f"{name} ran twice for one key"

    def test_second_pass_over_equal_values_derives_nothing(self, runs):
        # one target object for both passes: a lattice validates itself once,
        # so a target rebuilt for the second pass would be validated again
        l, target = boolean(3), boolean(2)
        pipeline(l, target)
        before = {name: len(keys) for name, keys in runs.items()}
        assert pipeline(l, target).verdict is Ordering.ISO
        assert {name: len(keys) for name, keys in runs.items()} == before
        # an equal target built afresh validates itself, decides whether it is
        # regular, and hits everything else
        assert pipeline(l).verdict is Ordering.ISO
        before["validate"] += 1
        before["compatible"] += 1
        assert {name: len(keys) for name, keys in runs.items()} == before

    def test_witnesses_are_derived_once_per_key_on_first_read(self, runs):
        l = boolean(2)
        p = full_basis(l)
        f = util.atom_map(l, boolean(2), [0, 1])
        narrow = least_strong_inclusion(p, Relation(l, (), p.elements))
        wide = least_strong_inclusion(p, Relation(l, well_inside(l).pairs))
        tags = [finer_than(si, f) for si in (narrow, wide, narrow, wide)]
        assert len(runs["finer"]) == 2 and not runs["witnesses"]
        first = [tag.witnesses for tag in tags[:2]]
        assert [tag.witnesses for tag in tags[2:]] == first
        assert finer_than(wide, util.atom_map(l, boolean(2), [0, 1])).witnesses is first[1]
        assert len(runs["witnesses"]) == len(set(runs["witnesses"])) == 2

    def test_a_closure_is_its_own_closure(self, runs):
        # a closed carrier the library built is a memo hit, as a seed and as
        # the carrier whose sub-pcd closure is asked
        l = boolean(3)
        p = pcd_closure(l, [1])
        assert pcd_closure(l, p.elements) is p
        assert Basis(l, p.elements).is_sub_pcd()
        assert runs["closure"] == [(id(l), frozenset({1}))]

    def test_closing_every_element_derives_nothing(self, runs):
        l = boolean(3)
        assert pcd_closure(l, range(l.n)) is full_basis(l)
        assert full_basis(l).is_sub_pcd()
        assert not runs["closure"]

    @pytest.mark.parametrize("l", [
        boolean(3), chain(4), util.downset_instance(0, 3), util.downset_instance(2, 4),
    ], ids=lambda l: f"{l.name}-{l.n}")
    def test_a_core_on_a_closed_carrier_is_its_own_least_strong_inclusion(self, runs, l):
        # the core is the sandwich of the carrier's complemented elements, a
        # closed set, so the least strong inclusion of the core is one lookup
        carriers = {pcd_closure(l, [a for a in range(l.n) if mask >> a & 1])
                    for mask in range(1 << l.n)}
        assert len(carriers) > 2
        for p in carriers:
            runs["sandwich"].clear()
            core = interpolative_core_on_basis(l, p)
            assert least_strong_inclusion(p, core) is core
            assert len(runs["sandwich"]) == 1

    def test_errors_are_not_stored(self, runs):
        l = boolean(2)
        p = full_basis(l)
        not_si = Relation(l, [(l.bottom, l.bottom)])
        for _ in range(2):
            with pytest.raises(RoundIdealError):
                enumerate_round_ideals(p, not_si)
        assert len(runs["report"]) == 1 and not runs["frame"]
        # a pair outside the carrier is found inside the report's derivation,
        # which stores nothing, so it raises on every call
        runs["report"].clear()
        bounds = pcd_closure(l, ())
        stray = Relation(l, [(l.bottom, l.bottom), (1, 1), (l.top, l.top)])
        for _ in range(2):
            with pytest.raises(PreconditionError) as caught:
                check_strong_inclusion(stray, bounds)
            assert str(caught.value) == "pair ({a}, {a}) leaves the carrier"
        assert not runs["report"]
        # so is a seed pair with no interpolant, and the derivation runs again
        bad_seed = Relation(l, [(l.bottom, l.top)])
        for _ in range(2):
            with pytest.raises(RoundIdealError, match="interpolant"):
                least_strong_inclusion(p, bad_seed)
        assert len(runs["least"]) == 2
        for _ in range(2):
            f = ContinuousMap(l, pentagon(), full_basis(pentagon()), dict.fromkeys(range(5), 0))
            with pytest.raises(RoundIdealError, match="invalid lattice"):
                validate_map(f)
        assert len(runs["continuity"]) == 2

    def test_memo_not_part_of_equality_hash_or_repr(self):
        warm, cold = boolean(3), boolean(3)
        fresh = repr(warm)
        pipeline(warm)
        assert warm._memo
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == fresh


def outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return "value", call()
    except RoundIdealError as exc:
        return "error", type(exc), str(exc)


def twin(lat, suffix=""):
    """A freshly built copy of ``lat``; equal to it unless ``suffix`` renames the elements."""
    leq = [[lat.leq(i, j) for j in range(lat.n)] for i in range(lat.n)]
    return PcdLattice([name + suffix for name in lat.names], leq, name=lat.name)


def pentagon():
    """The lattice N5: not distributive, so no map into it can be checked."""
    above = {0: {1, 2, 3, 4}, 1: {4}, 2: {3, 4}, 3: {4}}
    leq = [[i == j or j in above.get(i, ()) for j in range(5)] for i in range(5)]
    return PcdLattice(list("0abc1"), leq, name="N5")


TARGETS = {"bool1": lambda: boolean(1), "bool2": lambda: boolean(2),
           "chain4": lambda: PcdLattice(list("wxyz"), [[i <= j for j in range(4)]
                                                       for i in range(4)]),
           "N5": pentagon}


def queries(l, rng):
    """Seeded derivation requests on ``l``, as plain index data.

    Equal rows recur on several carriers, relations with equal rows carry
    different carriers of their own, every carrier gets the empty seed, and
    the last carrier is two random elements, seldom closed, so that a key
    missing a part would hand one request another's result.
    """
    everything = frozenset(range(l.n))
    carriers = [everything, pcd_closure(l, rng.sample(range(l.n), min(2, l.n))).elements,
                pcd_closure(l, ()).elements, frozenset(rng.sample(range(l.n), min(2, l.n)))]
    out = []
    for p in carriers:
        inside = sorted(p)
        core = interpolative_core_on_basis(l, Basis(l, p))
        start = util.random_interpolative_seed(l, Basis(l, p), rng)
        out += [("core", p), ("strongly regular", p), ("generating", p), ("regular", p),
                ("least", tuple(start), p), ("least", (), p), ("closure", tuple(p))]
        loose = [(rng.choice(inside), rng.choice(inside)) for _ in range(rng.randint(0, 6))]
        stray = [(rng.randrange(l.n), rng.randrange(l.n)) for _ in range(2)]
        for pairs in (tuple(loose), tuple(stray), tuple(core)):
            for own in (p, everything):
                for on in carriers:
                    out += [("report", pairs, own, on), ("frame", pairs, own, on),
                            ("compatible", pairs, own, on)]
        out.append(("foreign carrier", tuple(core), p))
    # equal assignments into unequal targets of one size
    for _ in range(2):
        images = tuple(rng.randrange(l.n) for _ in range(4))
        out += [("continuity", "bool2", images), ("continuity", "chain4", images)]
    out += [("continuity", "bool1", (l.bottom, l.top)),
            ("continuity", "N5", (l.bottom,) * 4 + (l.top,))]
    if l.n <= 16 and is_strongly_regular_basis(l, full_basis(l)):
        out.append(("verdict",))
    atoms = util.atoms(l)
    if l.n == 2 ** len(atoms) > 2:
        # Boolean: equal codomains, maps differing by an automorphism
        shuffled = rng.sample(range(len(atoms)), len(atoms))
        out += [("reconstruction", tuple(range(len(atoms)))), ("reconstruction", tuple(shuffled))]
    return out


def frame_view(fr):
    return fr.lattice, fr.ideals, fr.down_index, fr.ideal_basis, fr.p, fr.si, fr.si.carrier


def answer(lat, query):
    """What the library derives for ``query`` on ``lat``, as comparable values."""
    kind, *args = query
    if kind == "core":
        core = interpolative_core_on_basis(lat, Basis(lat, args[0]))
        return core.rows, core.carrier
    if kind == "strongly regular":
        return is_strongly_regular_basis(lat, Basis(lat, args[0]))
    if kind == "generating":
        return Basis(lat, args[0]).is_basis()
    if kind == "regular":
        return is_regular(lat, Basis(lat, args[0]))
    if kind == "least":
        pairs, p = args
        si = least_strong_inclusion(Basis(lat, p), Relation(lat, pairs, p))
        return si.rows, si.carrier
    if kind == "report":
        pairs, own, on = args
        return check_strong_inclusion(Relation(lat, pairs, own), Basis(lat, on))
    if kind == "closure":
        return pcd_closure(lat, args[0]).elements
    if kind == "compatible":
        pairs, own, on = args
        return is_compatible(lat, Basis(lat, on), Relation(lat, pairs, own))
    if kind == "frame":
        pairs, own, on = args
        return frame_view(enumerate_round_ideals(Basis(lat, on), Relation(lat, pairs, own)))
    if kind == "foreign carrier":
        pairs, p = args
        return check_strong_inclusion(Relation(lat, pairs, p), Basis(twin(lat, "'"), p))
    if kind == "continuity":
        name, images = args
        target = TARGETS[name]()
        f = ContinuousMap(lat, target, full_basis(target), dict(enumerate(images)))
        return validate_map(f)
    if kind == "reconstruction":
        (phi,) = args
        k = Compactification(map=util.atom_map(lat, boolean(len(phi)), list(phi)))
        rec = from_compactification(k)
        return rec.p, rec.si, frame_view(rec.frame), dict(rec.iso.assignment)
    k, _ = compactify_extending(lat, full_basis(lat), [])
    rec = from_compactification(k)
    j = Compactification(map=rec.iso)
    return rec.p, rec.si, frame_view(rec.frame), j.violations(), compare(k, k).verdict


class TestWarmEqualsCold:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_warm_lattice_answers_like_a_fresh_one(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.4:
            l = boolean(rng.randint(0, 3))
        else:
            l = util.downset_instance(seed, rng.randint(0, 4))
        asked = queries(l, rng)
        for query in asked + rng.sample(asked, len(asked)):
            warm = outcome(lambda: answer(l, query))
            assert warm == outcome(lambda: answer(twin(l), query)), query

    def test_equal_rows_different_carriers_share_a_report_and_a_frame(self, runs):
        # a frame holds its strong inclusion on its own carrier p, whatever
        # carrier the relation was built with
        l = boolean(2)
        p = pcd_closure(l, ())
        si = least_strong_inclusion(p, Relation(l, (), p.elements))
        narrow, wide = Relation(l, si, p.elements), Relation(l, si, range(l.n))
        assert narrow == wide and narrow.carrier != wide.carrier
        assert check_strong_inclusion(narrow, p) is check_strong_inclusion(wide, p)
        assert len(runs["report"]) == 1
        fr = enumerate_round_ideals(p, wide)
        assert enumerate_round_ideals(p, narrow) is fr
        assert fr.si.carrier == p.elements
        assert len(runs["frame"]) == 1

    def test_reconstruction_keeps_its_codomain_name(self):
        # lattice equality ignores names, so equal maps into equal codomains
        # named apart must not share a reconstruction that holds the codomain
        l = boolean(2)

        def identity_into(name):
            t = boolean(2, name=name)
            return Compactification(map=ContinuousMap(l, t, full_basis(t), {i: i for i in range(4)}))

        kx, ky = identity_into("x"), identity_into("y")
        rx, ry = from_compactification(kx), from_compactification(ky)
        assert ry is not rx
        assert (rx.iso.target.name, ry.iso.target.name) == ("x", "y")
        assert from_compactification(identity_into("x")) is rx

    def test_extension_keeps_its_codomain_name(self):
        # the extension holds the codomain of its map, so equal maps into
        # equal codomains named apart must not share one
        l = boolean(3)
        fr = compactify_extending(l, full_basis(l), [])[0].frame

        def extension_into(name):
            return extension_map(fr, util.atom_map(l, boolean(2, name=name), [0, 1, 1]))

        gx, gy = extension_into("x"), extension_into("y")
        assert gy is not gx
        assert (gx.target.name, gy.target.name) == ("x", "y")
        assert extension_into("x") is gx
