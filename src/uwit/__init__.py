"""uwit: entanglement and EPR-steering detection from measurement statistics.

The library computes state-independent uncertainty bounds (majorization bound
vectors, entropic overlap bounds, fine-grained eigenvalue bounds), evaluates
quantifier-independent and fine-grained detection criteria against them, and
ships an independent brute-force oracle validating every bound.
"""

__version__ = "0.1.0"

from .assemblage import (
    Assemblage,
    ConditionalStats,
    assemblage_from_config,
    assemblage_to_config,
    conditional_stats,
    lhs_assemblage,
    steer,
)
from .bounds import (
    BoundVector,
    FineGrainedBound,
    fine_grained_bound,
    fine_grained_bound_map,
    fine_grained_bound_product,
    fingerprint_povms,
    maassen_uffink,
    matched_outcome_events,
    omega_numeric,
    omega_two_bases,
    omega_two_dichotomic,
    setting_pairs,
)
from .criteria import (
    DETECTED,
    NOT_DETECTED,
    DetectionReport,
    entanglement_fine_grained,
    entanglement_universal,
    steering_fine_grained,
    steering_fine_grained_tensor,
    steering_universal,
)
from .errors import (
    BadParameter,
    ConfigParse,
    Degenerate,
    DimensionMismatch,
    FingerprintMismatch,
    NoConvergence,
    NonMonotoneScan,
    NotADistribution,
    NotHermitian,
    UnsoundQuantifier,
    UwitError,
)
from .oracle import (
    ScanResult,
    ViolationCensus,
    brute_force_topk,
    cross_check_fine_grained,
    scan_to_csv,
    threshold_scan,
    verify_majorization_bound,
)
from .probvec import (
    ProbVec,
    majorized_by,
    make_probvec,
    point_mass,
    random_relabel,
    sort_desc,
    tensor,
    tensor_all,
    uniform,
)
from .quantifier import (
    MIN_ENTROPY,
    SHANNON,
    Quantifier,
    default_quantifiers,
    get_quantifier,
    min_entropy,
    renyi,
    renyi_quantifier,
    shannon,
    tsallis,
    tsallis_quantifier,
)
from .quantum import (
    DensityState,
    DensityStack,
    Observable,
    Povm,
    bell_phi_plus,
    bloch_observable,
    born_stats,
    correlation_tensor,
    eig_hermitian,
    isotropic,
    kron_state,
    maximally_mixed,
    mub_bases,
    observable_from_matrix,
    partial_trace,
    pauli_observable,
    product_observable_stats,
    schmidt_observables,
    state_from_correlation_tensor,
    von_neumann_entropy,
    werner,
)
