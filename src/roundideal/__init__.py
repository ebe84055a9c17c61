"""Finite pcd-lattices, strong inclusions and round-ideal compactifications.

Everything is desk scale and exhaustively checkable: lattices are given by
explicit order matrices, relations by per-element row bitmasks, and the
compactification theorems are asserted instance by instance rather than
assumed.
"""

from .compactify import (
    CompareResult,
    Compactification,
    CoverWitness,
    Ordering,
    Reconstruction,
    RoundIdeal,
    RoundIdealFrame,
    check_compact_regular,
    compare,
    strong_downset,
    enumerate_round_ideals,
    explicit_strong_inclusion,
    extension_map,
    from_compactification,
    compactify_extending,
    is_compatible,
    interpolated_subcover,
    strong_inclusion_from_maps,
    join_map,
)
from .errors import (
    InvariantViolation,
    MalformedInput,
    NoScaleError,
    NotACoverError,
    PreconditionError,
    RoundIdealError,
    ValidationFailure,
)
from .fixpoint import InductiveDefinition, Universe, consequences, gfp, lfp
from .framemap import (
    ContinuousMap,
    MapClassTag,
    compose,
    extend,
    finer_than,
    is_dense,
    is_embedding,
    maps_equal,
    validate_map,
)
from .lattice import (
    Basis,
    Cover,
    PcdLattice,
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
from .relation import (
    Relation,
    Scale,
    SiReport,
    build_scale,
    check_strong_inclusion,
    interpolative_core_on_basis,
    is_strongly_regular_basis,
    largest_interpolative,
    least_strong_inclusion,
    ordered_sandwich,
)

__version__ = "0.1.0"
