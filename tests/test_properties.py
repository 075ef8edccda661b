"""Property tests: the row-wise matrix printer against its per-entry oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from toepcond.cli import _matrix_lines

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308, 0.5e-6, -0.5e-6]
REALS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(min_value=1e299, max_value=1e308))
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4)
MATRICES = st.one_of(
    arrays(np.float64, SHAPES, elements=REALS),
    arrays(np.complex128, SHAPES, elements=st.builds(complex, REALS, REALS)),
)


def per_entry_lines(M):
    return ["  [" + ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in row) + "]" for row in M]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(MATRICES)
def test_row_wise_lines_match_per_entry_formatting(M):
    assert _matrix_lines(M) == per_entry_lines(M)
