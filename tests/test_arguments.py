"""Wrong-typed arguments at the public entry points.

Every entry point either returns a result or raises a ``RoundIdealError``
subclass, whatever it is handed: an argument replaced by an int, a string,
None, a dict or a nested tuple never escapes as a bare Python exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

import util
from roundideal import io as rio
from roundideal.compactify import (
    Compactification,
    RoundIdeal,
    check_compact_regular,
    compactify_extending,
    compare,
    enumerate_round_ideals,
    explicit_strong_inclusion,
    extension_map,
    from_compactification,
    interpolated_subcover,
    is_compatible,
    join_map,
    strong_downset,
    strong_inclusion_from_maps,
)
from roundideal.errors import MalformedInput, RoundIdealError
from roundideal.fixpoint import InductiveDefinition, Universe, consequences, gfp, lfp
from roundideal.framemap import (
    ContinuousMap,
    compose,
    extend,
    finer_than,
    is_dense,
    is_embedding,
    maps_equal,
    validate_map,
)
from roundideal.lattice import (
    Basis,
    Cover,
    PcdLattice,
    Relation,
    boolean,
    chain,
    downset_lattice,
    full_basis,
    is_compact,
    is_regular,
    minimal_subcover,
    pcd_closure,
    pseudocomplement,
    well_inside,
)
from roundideal.relation import (
    Scale,
    build_scale,
    check_strong_inclusion,
    interpolative_core_on_basis,
)

L = boolean(2)
B = full_basis(L)
TWO = boolean(1)
SI = interpolative_core_on_basis(L, B)
F = util.atom_map(L, TWO, [0, 0])
IDENTITY = ContinuousMap.identity(L)
K, _ = compactify_extending(L, B, [])
FRAME = K.frame
REPORT = check_strong_inclusion(SI, B)
U = Universe([1, 2])
DEFN = InductiveDefinition(U, [(1, []), (2, [1])])

# each entry point with arguments it accepts; the property swaps one of them
ENTRY_POINTS = {
    "well_inside": (well_inside, [L]),
    "pseudocomplement": (pseudocomplement, [L, 0]),
    "pcd_closure": (pcd_closure, [L, [1]]),
    "minimal_subcover": (minimal_subcover, [L, [1, 2], 3]),
    "is_regular": (is_regular, [L, B]),
    "is_compact": (is_compact, [L, B, Cover(3, frozenset(range(4)))]),
    "PcdLattice": (PcdLattice, [["a", "b"], [[True, True], [False, True]]]),
    "Basis": (Basis, [L, [0, 3]]),
    "Relation": (Relation, [L, [(0, 3)]]),
    "boolean": (boolean, [1]),
    "chain": (chain, [2]),
    "downset_lattice": (downset_lattice, [["a"], [[True]]]),
    "validate_map": (validate_map, [F]),
    "extend": (extend, [F, 1]),
    "compose": (compose, [IDENTITY, IDENTITY]),
    "maps_equal": (maps_equal, [F, F]),
    "is_dense": (is_dense, [F]),
    "is_embedding": (is_embedding, [F]),
    "finer_than": (finer_than, [SI, F]),
    "ContinuousMap": (ContinuousMap, [L, TWO, full_basis(TWO), dict(F.assignment)]),
    "Compactification": (Compactification, [K.map, FRAME]),
    "RoundIdeal.violations": (
        lambda basis, members, si: RoundIdeal(basis, members).violations(si),
        [B, frozenset({0}), SI],
    ),
    "strong_downset": (strong_downset, [B, SI, 3]),
    "enumerate_round_ideals": (enumerate_round_ideals, [B, SI]),
    "check_compact_regular": (check_compact_regular, [FRAME]),
    "is_compatible": (is_compatible, [L, B, SI]),
    "join_map": (join_map, [L, FRAME]),
    "extension_map": (extension_map, [FRAME, F]),
    "strong_inclusion_from_maps": (strong_inclusion_from_maps, [L, [], [F]]),
    "compactify_extending": (compactify_extending, [L, B, [F]]),
    "explicit_strong_inclusion": (explicit_strong_inclusion, [B, F]),
    "from_compactification": (from_compactification, [K]),
    "compare": (compare, [K, K]),
    "interpolated_subcover": (interpolated_subcover, [L, B, 0, [3]]),
    "build_scale": (build_scale, [SI, 0, 3, 1]),
    "Scale": (Scale, [L, 1, (0, 1, 3)]),
    "parse_lattice": (rio.parse_lattice, ["lattice x lattice\nelements a\n"]),
    "serialize_lattice": (rio.serialize_lattice, [L]),
    "parse_relation": (rio.parse_relation, ["pair {} {a}\n", L]),
    "serialize_relation": (rio.serialize_relation, [SI]),
    "serialize_map": (rio.serialize_map, [F]),
    "generate": (rio.generate, [1, 3]),
    "export_dot": (rio.export_dot, [L]),
    "PcdLattice.element": (L.element, [L.names[1]]),
    "SiReport.condition": (REPORT.condition, [1]),
    "Universe": (Universe, [[1, 2]]),
    "InductiveDefinition": (InductiveDefinition, [U, [(1, []), (2, [1])]]),
    "consequences": (consequences, [DEFN, [1]]),
    "lfp": (lfp, [DEFN]),
    "gfp": (gfp, [DEFN]),
}

# small ints only: a large chain or scale would be slow rather than wrong
WRONG = st.one_of(
    st.integers(-3, 9),
    st.text(max_size=3),
    st.none(),
    st.dictionaries(st.integers(-1, 5), st.integers(-1, 5), max_size=3),
    st.recursive(
        st.tuples(st.integers(-1, 5)),
        lambda inner: st.tuples(inner, inner) | st.tuples(inner),
        max_leaves=4,
    ),
)


def test_entry_points_accept_their_sample_arguments():
    for fn, args in ENTRY_POINTS.values():
        fn(*args)


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
@settings(max_examples=600, deadline=None)
def test_wrong_typed_argument_gives_result_or_library_error(name, data):
    fn, args = ENTRY_POINTS[name]
    args = list(args)
    position = data.draw(st.integers(0, len(args) - 1), label="position")
    args[position] = data.draw(WRONG, label="argument")
    try:
        fn(*args)
    except RoundIdealError:
        pass


@pytest.mark.parametrize("call", [
    lambda: PcdLattice(5, [[True]]),
    lambda: PcdLattice(["a"], None),
    lambda: PcdLattice(["a"], [5]),
    lambda: boolean("x"),
    lambda: chain("a"),
    lambda: downset_lattice(["a"], [[1, 2]]),
    lambda: downset_lattice(["a"], 5),
    lambda: rio.parse_lattice(5),
    lambda: rio.serialize_lattice(None),
    lambda: rio.export_dot("x"),
    lambda: ContinuousMap(L, TWO, None, dict(F.assignment)),
    lambda: compactify_extending(L, B, None),
    lambda: compactify_extending(L, B, [1]),
    lambda: is_compact(L, B, None),
    lambda: validate_map(None),
    lambda: compare(K, 5),
    lambda: Scale(L, "x", (0,)),
    lambda: Scale("nolattice", 1, (0, 1, 2)),
    lambda: Scale(L, 2, "ab"),
    lambda: Scale(L, 17, (0,)),
    lambda: Scale(L, 1, (0, 3)),
    lambda: Scale(L, 1, (0, 1, L.n)),
], ids=["labels-int", "order-none", "order-row-int", "boolean-str", "chain-str",
        "downsets-ragged", "downsets-order-int", "parse-int", "serialize-none",
        "dot-str", "map-basis-none", "maps-none", "maps-of-ints", "cover-none",
        "validate-map-none", "compare-int", "scale-depth-str", "scale-lattice-str",
        "scale-values-str", "scale-depth-17", "scale-values-short", "scale-value-out-of-range"])
def test_named_wrong_types_are_malformed_input(call):
    with pytest.raises(MalformedInput):
        call()
