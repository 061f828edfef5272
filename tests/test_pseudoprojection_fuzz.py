"""Fuzz gate for the pseudo-projection builders: whatever argument a public
builder gets, the only error that escapes is a PPLabError.

Each case takes a valid call and replaces one of its arguments by a value
drawn from BAD: the wrong type, the wrong shape, non-finite, empty,
oversized, a factor list of mixed kinds or dimensions, or a valid object of
the wrong kind.  The run is derandomized and bounded, so it draws the same
examples on every run.  A numpy RuntimeWarning fails the test.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    PPLabError,
    bloch_state,
    conjunction_pp,
    convex_pp,
    disjunction_pp,
    min_eigen_certificate,
    qubit_projector,
    symmetrized_pp,
    unit_pp,
)
from pplab.pseudoprojection import distinct_orderings

Z_PLUS = qubit_projector([0.0, 0.0, 1.0])
X_PLUS = qubit_projector([1.0, 0.0, 0.0])
FACTORS = [Z_PLUS, X_PLUS]
PP = unit_pp(FACTORS)
NAN, INF = float("nan"), float("inf")

REALS = st.floats(allow_nan=True, allow_infinity=True)
BAD = st.one_of(
    st.sampled_from([
        None, True, 0, 1, 2, -1, 0.5, 2.0, NAN, INF, 1j, "", "a", "3", [], (), {}, object(), np.int64(3), np.array(3),
        bloch_state([0.6, 0.0, 0.0]), Z_PLUS, PP, [Z_PLUS], [PP, PP], [Z_PLUS, PP], [Z_PLUS] * 9, [Z_PLUS, np.eye(4)],
        np.diag([1.0, -1.0]), np.zeros(0), np.zeros((2, 2)), np.eye(3), np.zeros((65, 65)),
        np.full((2, 2), NAN), np.full((2, 2), 1e308), np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]),
        [NAN], [1.0], [1 + 1j], [-1.0, 2.0], [[1, 0], [0]], np.array([1, 1]),
    ]),
    st.integers(-3, 12),
    REALS,
    st.text(max_size=4),
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=REALS),
    npst.arrays(np.complex128, st.sampled_from([(2, 2), (4, 4), (2, 2, 2), (1,)])),
    st.lists(st.one_of(st.integers(-2, 2), REALS, st.sampled_from([Z_PLUS, X_PLUS, PP])), max_size=4),
)

# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "distinct_orderings": (distinct_orderings, (3,)),
    "unit_pp": (unit_pp, (FACTORS,)),
    "symmetrized_pp": (symmetrized_pp, (FACTORS,)),
    "convex_pp": (convex_pp, (FACTORS, None)),
    "conjunction_pp": (conjunction_pp, (FACTORS,)),
    "disjunction_pp": (disjunction_pp, (Z_PLUS, X_PLUS)),
    "min_eigen_certificate": (min_eigen_certificate, (PP,)),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_pseudoprojection_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        call(*args)
    except PPLabError:
        pass
