"""Finite simplicial sets with exact integer homological algebra.

Spaces are stored by their nondegenerate simplices; products, pushouts,
quotients, nerves, and function complexes are computed levelwise and
normalized.  Chain-level tooling (sparse integer elimination, mapping
cones, Mayer-Vietoris, Dold-Kan, excisive approximation towers) works over
the integers with no floating point outside the one real-coefficient norm.
"""

from .build import (
    PullbackResult,
    PushoutResult,
    QuotientResult,
    disjoint_union,
    product,
    pushout,
    quotient,
    sset_pullback,
)
from .chain import (
    ChainComplex,
    ChainMap,
    ChainSquare,
    RealChain,
    Tower,
    boundary_operator_norm,
    check_exact_sequence,
    direct_sum,
    homology,
    homology_table,
    is_acyclic,
    is_homotopy_bicartesian,
    l1_norm,
    loop_shift,
    mapping_cone,
    quasi_iso,
    sequential_colimit,
    single_complex,
    total_complex_of_square,
    zero_complex,
)
from .delta import MonotoneMap, epi_mono_factor
from .dold_kan import (
    SimplicialAbelianGroup,
    dold_kan_K,
    map_homotopy_groups,
    moore_normalized,
    simplicial_homotopy_group,
    truncate_nonneg,
)
from .errors import EnumerationLimit, StabilizationError, ValidationError
from .excision import (
    CoverData,
    ExcisionReport,
    LongExactSequence,
    SSetSquare,
    cone,
    cover_from_names,
    cover_short_exact_sequence,
    cylinder,
    double_mapping_cylinder,
    excision_check,
    identity_counterexample_report,
    is_homology_pushout,
    mayer_vietoris,
    pushout_square,
    reduced_suspension,
    unreduced_suspension,
)
from .function_complex import (
    enumerate_maps,
    internal_hom_truncated,
    mapping_space,
)
from .groups import HomologyGroup, PresentedGroup
from .intmat import IntMat
from .nerve import (
    FiniteCategory,
    Preorder,
    linear_preorder,
    nerve_category,
    nerve_preorder,
)
from .quasicat import (
    HornMap,
    QcatVerdict,
    horn_fillers,
    is_quasicategory_up_to,
)
from .simplicial_chains import (
    chain_map_of,
    normalized_chains,
    reduced_chain_map_of,
    reduced_normalized_chains,
)
from .sset import (
    FiniteSSet,
    Simplex,
    SSetMap,
    are_isomorphic,
    boundary,
    constant_map,
    horn,
    pointed,
    simplex_as_map,
    standard_simplex,
    subcomplex,
    subset_intersection,
)
from .tower import (
    ReducednessCertificate,
    StageEvaluator,
    check_reduced,
    l1_mock_evaluator,
    p1_approximation,
    reduced_chains_evaluator,
    stage,
    tower,
)

__version__ = "0.1.0"
