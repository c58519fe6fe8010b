"""Desk-scale laboratory for partition-preserving transformation semigroups.

The package studies the semigroup of self-maps of a finite partitioned set
whose induced block maps (characters) lie in a chosen composition-closed set
of index maps.  Every structural criterion (regularity, unit-regularity,
idempotency, Green's relations) is implemented twice: as a brute-force
oracle and as the character-level characterization, and the harness verifies
their agreement exhaustively on small instances.
"""

from .errors import (
    InternalError,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .finite_maps import (
    FiniteMap,
    SetPartition,
    all_endomaps,
    all_maps,
    canonical_transversal,
    collapse_defect,
    compose,
    image,
    is_idempotent_def,
    kernel_partition,
    refines,
)
from .partition_action import (
    BlockDecomposition,
    BlockMapping,
    Partition,
    block_maps,
    character,
    is_E_preserving,
    is_unit_bijection,
    lift_character,
    pi_restricted,
    preserves_partition,
    reassemble,
)
from .ensemble import (
    IndexSemigroup,
    Instance,
    closure_from_generators,
    enumerate_elements,
    index_idempotents,
    index_units,
    is_member,
    predicted_size,
    units,
)
from .regularity import (
    build_inner_inverse,
    idempotents,
    is_idempotent_characterized,
    is_inverse_semigroup,
    is_regular_oracle,
    is_regular_semigroup,
    regular_character_witnesses,
    si_is_inverse,
    si_is_regular,
)
from .unit_regularity import (
    build_unit_inverse,
    fg_image_is_kernel_transversal,
    is_unit_regular_oracle,
    is_unit_regular_semigroup,
    make_c_neq_d_map,
    unit_regular_witnesses,
)
from .greens import (
    GreenWitness,
    build_d_middle,
    build_j_factors,
    build_left_factor,
    build_right_factor,
    d_related,
    eggbox,
    full_tx_green,
    j_related,
    l_related,
    principal_leq_oracle,
    r_related,
    txp_green,
    verify_witness,
    witness_maps,
)
from .harness import (
    Catalog,
    CatalogEntry,
    Report,
    SUITES,
    SuiteRecord,
    build_catalog,
    instance_to_json,
    run_all,
    run_suite,
)
from .cli import parse_instance, serialize_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
