"""Partial spreads of finite vector spaces: bounds, constructions, checks.

The package computes the best known lower and upper bounds on the maximum
size of a partial t-spread of V(n, q), builds the packing-bound construction
from rank-distance matrix families, extends spreads to vector space
partitions and profiles their hyperplane section counts, emits and replays
descent certificates for the refined upper bound, and runs exhaustive
branch-and-bound search on desk-scale parameters as an independent oracle.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BHP_EXACT,
    DRAKE_FREEMAN,
    EJSSS_EXACT,
    KURZ_EXACT,
    MAIN_THEOREM,
    NS_EXACT,
    SOURCES,
    SPREAD_EXACT,
    TRIVIAL_OVERLAP,
    BoundReport,
    SpreadParams,
    UpperBound,
    best_known,
    c1_c2,
    compare_bounds,
    delta,
    descent_x,
    drake_freeman,
    h_of,
    in_main_regime,
    lemma_main_bound,
    lower_bound,
    main_bound,
    omega_floor,
    theta,
)
from .check import CertificateCheck, check_certificate
from .construct import (
    PartialSpread,
    VerificationResult,
    build_lower_bound_spread,
    spread_from_dict,
    verify_partial_spread,
)
from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    ConstructionSizeMismatchError,
    FieldMismatchError,
    HypothesisViolatedError,
    IdentityViolationError,
    InvalidParamsError,
    NotPrimeError,
    OutOfRegimeError,
    OverflowLimitError,
    SpreadLabError,
    UnverifiedSpreadError,
)
from .gf import Field, ext_field, field_for_order, field_new, prime_power
from .linalg import Subspace, enumerate_subspaces, gaussian_binomial
from .partition import (
    HyperplaneProfile,
    SubspacePartition,
    descent_certificate,
    hyperplane_profile,
    partition_from_spread,
)
from .search import SearchResult, greedy_result, greedy_spread, max_partial_spread

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
