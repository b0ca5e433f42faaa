"""shortroots: exact combinatorics of root systems, Weyl groups and the
modules whose highest weight is the short dominant root."""

from .antichains import (
    AntichainReport,
    RootPoset,
    antichain_report,
    count_antichains,
    count_antichains_formula,
    count_antichains_formula_alt,
    short_root_poset,
)
from .config import Limits, current_limits
from .errors import (
    IdentityViolation,
    NotFiniteType,
    SizeLimitExceeded,
    UnsupportedRootSystem,
)
from .gradedchar import (
    GradedCharacter,
    HilbertReport,
    QPoly,
    complete_intersection_series,
    graded_multiplicity,
    hilbert_check,
    nullcone_character,
    q_partition,
)
from .littleadjoint import (
    DeltaPartition,
    LittleAdjointDims,
    WeightSystem,
    delta_partition,
    freudenthal,
    hw_orbit_dim,
    little_adjoint_dims,
    weyl_dim,
)
from .reduction import (
    DimensionLedger,
    HyperplaneClasses,
    OneStepEntry,
    SimpleReduction,
    SummaryRow,
    TransitionIdentities,
    check_coxeter_power,
    dimension_ledger,
    hyperplane_classes,
    invariant_degrees,
    one_step_strings,
    orbit_count,
    partition_count,
    simple_reduction,
    summary_row,
    transition_identities,
)
from .rootsystem import (
    Root,
    RootSystem,
    RootSystemSpec,
    Weight,
    build,
    cartan_matrix,
    classify_cartan,
    dual_coxeter_of_dual,
)
from .weyl import (
    WeylElement,
    closure,
    coxeter_element,
    coxeter_orbits,
    decompose_semidirect,
    enumerate_group,
    identity,
    is_in_long_subgroup,
    long_root_base,
    long_subgroup,
    reflection,
    short_parabolic,
    simple_reflection,
)

__version__ = "0.1.0"
