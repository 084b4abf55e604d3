"""Exact computational tools around the finitary Lie algebras gl/sl/so/sp(infinity):
Dynkin index calculus for the classical series, labeled Bratteli diagrams for
direct-system prefixes, socle reports for the natural and conatural modules,
and the maximality classification of subspace stabilizers."""

from .algebras import (
    SimpleAlgebra,
    dimension,
    dominant_weights_up_to_dim,
    dual_weight,
    positive_roots,
    rho,
    weight_form,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    LieLimitsError,
    NotStabilizedError,
    ParseError,
    ResourceBoundError,
)
from .index import (
    Diagonal,
    Embedding,
    General,
    ModuleDecomposition,
    SemisimpleAlgebra,
    Standard,
    Summand,
    classify_embedding,
    compose_index,
    decomposition,
    embedding_index,
    index_of_irrep,
    index_of_module,
    min_nondiagonal_index,
    natural_copies,
    restrict_to_factor,
)
from .oracle import WeightMultiset, freudenthal, tensor_decompose, trace_index
from .socle import (
    ExtendedDim,
    SocleReport,
    multiplicities,
    socle_report,
    standard_invariants,
    trivial_dims,
)
from .subspaces import (
    EvConstFunctional,
    StandardForm,
    SubspaceDescriptor,
    Verdict,
    classify_maximal,
    descriptor_intersection,
    descriptor_sum,
    double_perp_closed,
    is_isotropic,
    perp,
    uniqueness_check,
    uniqueness_invariant,
)
from .system import (
    BratteliGraph,
    Constituent,
    EdgeSpec,
    LevelSpec,
    RefinementReport,
    compute_labels,
    decompose,
    extract_refinement,
    level_sums,
    stabilization,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
