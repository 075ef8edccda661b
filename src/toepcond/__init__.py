"""Condition-number bounds for triangular Toeplitz contractions.

Builds lower-triangular Toeplitz matrices as polynomials in the nilpotent
Jordan block, verifies the bracket max(r^n, 1-r^n) <= r^n ||T^{-1}|| <= 1
over parameter grids, constructs the model-operator matrices that attain
the 1/r^n bound, and estimates the extremal constant by derivative-free
search.
"""

from .blaschke import (
    BlaschkeFactor,
    BlaschkeProduct,
    eval_on_circle,
    reciprocal_taylor,
    sup_norm_estimate,
    taylor,
)
from .bounds import (
    BoundsRecord,
    RemarkScanReport,
    SearchConfig,
    SearchResult,
    bracket_endpoints,
    build_T_r,
    estimate_t_a,
    grid_sweep,
    kronecker_bound,
    remark_scan,
    scaled_trends,
    theorem_check,
)
from .core import (
    AnalyticPolynomial,
    AnalyticToeplitzMatrix,
    GeneralToeplitzMatrix,
    apply_calculus,
    bezout_remainder,
    commutes_with_shift,
    condition_number,
    jordan_block,
    reciprocal_series,
)
from .errors import (
    BezoutPairError,
    ExtremalityError,
    SingularMatrixError,
    SingularSymbolError,
    ToepcondError,
    TwoPathMismatchError,
)
from .linalg import (
    defect_rank,
    defect_singular_values,
    inverse_norm,
    spectral_norm,
)
from .model import (
    ExtremalityReport,
    ModelOperatorMatrix,
    model_operator,
    verify_extremality,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPolynomial",
    "AnalyticToeplitzMatrix",
    "BezoutPairError",
    "BlaschkeFactor",
    "BlaschkeProduct",
    "BoundsRecord",
    "ExtremalityError",
    "ExtremalityReport",
    "GeneralToeplitzMatrix",
    "ModelOperatorMatrix",
    "RemarkScanReport",
    "SearchConfig",
    "SearchResult",
    "SingularMatrixError",
    "SingularSymbolError",
    "ToepcondError",
    "TwoPathMismatchError",
    "apply_calculus",
    "bezout_remainder",
    "bracket_endpoints",
    "build_T_r",
    "commutes_with_shift",
    "condition_number",
    "defect_rank",
    "defect_singular_values",
    "estimate_t_a",
    "eval_on_circle",
    "grid_sweep",
    "inverse_norm",
    "jordan_block",
    "kronecker_bound",
    "model_operator",
    "reciprocal_series",
    "reciprocal_taylor",
    "remark_scan",
    "scaled_trends",
    "spectral_norm",
    "sup_norm_estimate",
    "taylor",
    "theorem_check",
    "verify_extremality",
]
