"""The public surface of the package: exactly these names, all importable."""

import toepcond

PUBLIC_NAMES = [
    "AnalyticPolynomial",
    "AnalyticToeplitzMatrix",
    "BezoutPairError",
    "BlaschkeFactor",
    "BoundsRecord",
    "ExtremalityError",
    "ExtremalityReport",
    "ModelOperatorMatrix",
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
    "spectral_norm",
    "taylor",
    "theorem_check",
    "verify_extremality",
]


def test_all_is_pinned():
    assert sorted(toepcond.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in toepcond.__all__:
        assert getattr(toepcond, name) is not None, name


def test_retired_helpers_are_gone():
    retired = ("GeneralToeplitzMatrix", "condition_number", "BlaschkeProduct",
               "sup_norm_estimate", "remark_scan", "RemarkScanReport")
    for name in retired:
        assert not hasattr(toepcond, name), name
