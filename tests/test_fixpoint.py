import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from roundideal.errors import MalformedInput
from roundideal.fixpoint import InductiveDefinition, Universe, consequences, gfp, lfp


def defn_of(universe_items, steps):
    return InductiveDefinition(Universe(universe_items), steps)


def random_defn(seed, max_size=12):
    rng = random.Random(seed)
    n = rng.randint(1, max_size)
    items = [f"t{i}" for i in range(n)]
    steps = []
    for _ in range(rng.randint(0, 2 * n)):
        concl = rng.choice(items)
        prem = [t for t in items if rng.random() < 0.25]
        steps.append((concl, prem))
    return defn_of(items, steps)


class TestGamma:
    def test_empty_premises_fire_on_empty_set(self):
        d = defn_of(["a"], [("a", [])])
        assert consequences(d, frozenset()) == {"a"}

    def test_no_steps_no_conclusions(self):
        d = defn_of(["a", "b"], [])
        assert consequences(d, frozenset({"a"})) == frozenset()

    def test_finite_subset_generator_on_two_points(self):
        # universe: the four subsets of {x, y}; steps add one point at a time
        subsets = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]
        steps = [(frozenset(), [])]
        for u in subsets:
            for point in "xy":
                steps.append((u | {point}, [u]))
        d = defn_of(subsets, steps)
        got = consequences(d, frozenset({frozenset(), frozenset("x")}))
        assert got == frozenset(subsets)

    def test_token_outside_universe_rejected(self):
        d = defn_of(["a"], [("a", [])])
        with pytest.raises(MalformedInput):
            consequences(d, frozenset({"zz"}))


class TestLfp:
    def test_empty_definition(self):
        assert lfp(defn_of(["a"], [])) == frozenset()

    def test_all_finite_subsets_reached(self):
        subsets = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]
        steps = [(frozenset(), [])]
        for u in subsets:
            for point in "xy":
                steps.append((u | {point}, [u]))
        assert lfp(defn_of(subsets, steps)) == frozenset(subsets)

    def test_chain_of_dependencies(self):
        d = defn_of("abc", [("a", []), ("b", ["a"]), ("c", ["b", "a"])])
        got = lfp(d)
        assert got == {"a", "b", "c"}
        assert got == oracles.brute_lfp(d)


class TestGfp:
    def test_empty_definition(self):
        assert gfp(defn_of(["a"], [])) == frozenset()

    def test_self_justifying_token(self):
        d = defn_of("ab", [("a", ["a"])])
        assert gfp(d) == {"a"}

    def test_mutual_justification(self):
        d = defn_of("ab", [("a", ["b"]), ("b", ["a"])])
        got = gfp(d)
        assert got == {"a", "b"}
        assert got == oracles.brute_gfp(d)


class TestAgainstOracle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_lfp_is_least_closed(self, seed):
        d = random_defn(seed, max_size=8)
        assert lfp(d) == oracles.brute_lfp(d)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gfp_is_largest_inclusive(self, seed):
        d = random_defn(seed, max_size=8)
        assert gfp(d) == oracles.brute_gfp(d)


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_fixpoint_laws(self, seed):
        d = random_defn(seed, max_size=8)
        lo = lfp(d)
        hi = gfp(d)
        assert consequences(d, lo) <= lo
        assert hi <= consequences(d, hi)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_consequences_monotone(self, seed):
        rng = random.Random(seed ^ 0xBEEF)
        d = random_defn(seed, max_size=8)
        items = list(d.universe.items)
        small = frozenset(t for t in items if rng.random() < 0.3)
        big = small | frozenset(t for t in items if rng.random() < 0.3)
        assert consequences(d, small) <= consequences(d, big)

    def test_determinism(self):
        a = random_defn(7)
        b = random_defn(7)
        assert a == b
        assert lfp(a) == lfp(b)
        assert gfp(a) == gfp(b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_iteration_stabilizes_within_universe_size(self, seed):
        d = random_defn(seed, max_size=8)
        n = len(d.universe)
        low = frozenset()
        for _ in range(n):
            low = low | consequences(d, low)
        assert low == low | consequences(d, low)
        assert low == lfp(d)
        high = frozenset(d.universe.items)
        for _ in range(n):
            high = high & consequences(d, high)
        assert high == high & consequences(d, high)
        assert high == gfp(d)

    def test_duplicate_steps_collapse(self):
        d1 = defn_of("ab", [("a", ["b"]), ("a", ["b"])])
        d2 = defn_of("ab", [("a", ["b"])])
        assert d1 == d2


class TestUniverse:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(MalformedInput):
            Universe(["a", "a"])

    def test_step_tokens_must_belong(self):
        with pytest.raises(MalformedInput):
            defn_of("ab", [("z", [])])
        with pytest.raises(MalformedInput):
            defn_of("ab", [("a", ["z"])])

    def test_sort_by_declaration_order(self):
        u = Universe(["z", "m", "a"])
        assert u.sort({"a", "z"}) == ["z", "a"]


U = Universe([1, 2])
DEFN = InductiveDefinition(U, [(1, []), (2, [1])])


@pytest.mark.parametrize("call, message", [
    (lambda: Universe(None), "universe must be a collection"),
    (lambda: Universe([[1]]), "token [1] is not hashable"),
    (lambda: InductiveDefinition(None, []), "universe must be a Universe"),
    (lambda: InductiveDefinition(U, [(1, None)]), "premises must be a collection"),
    (lambda: InductiveDefinition(U, [([1], [])]), "conclusion [1] outside universe"),
    (lambda: InductiveDefinition(U, [(1, [[2]])]), "premise [2] outside universe"),
    (lambda: InductiveDefinition(U, ["x"]), "steps must be a collection of pairs"),
    (lambda: consequences(None, []), "definition must be a InductiveDefinition"),
    (lambda: consequences(DEFN, [[1]]), "token [1] outside universe"),
    (lambda: consequences(DEFN, 5), "tokens must be a collection"),
    (lambda: lfp(None), "definition must be a InductiveDefinition"),
    (lambda: gfp(5), "definition must be a InductiveDefinition"),
    (lambda: U.sort([3]), "token 3 outside universe"),
])
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(MalformedInput) as caught:
        call()
    assert str(caught.value).startswith(message)


def test_valid_arguments_behave_as_before():
    assert consequences(DEFN, [1]) == {1, 2} and consequences(DEFN, []) == {1}
    assert lfp(DEFN) == gfp(DEFN) == {1, 2}
    assert U.sort([2, 1, 2]) == [1, 2, 2]
    assert InductiveDefinition(U, {(2, (1,)), (1, ())}) == DEFN
