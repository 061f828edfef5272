"""Fuzz gate for the operator core: whatever argument a public operator call
gets, the only error that escapes is a PPLabError.

Each case takes a valid call and replaces one of its arguments by a value
drawn from BAD: the wrong type, the wrong shape, non-finite, empty,
oversized, entries near the float limit, or a valid object of the wrong
kind.  The run is derandomized and bounded, so it draws the same examples on
every run.  A numpy RuntimeWarning (an overflow on any drawn example) fails
the test.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    DensityMatrix,
    PPLabError,
    Projector,
    anticommutator,
    bloch_state,
    expectation,
    partial_trace,
    qubit_projector,
    tensor_product,
    werner_state,
)
from pplab.operator_core import hermitian_eigen

# A valid operand with entries of modulus 2, so that a drawn entry near the float limit can overflow.
OP = np.array([[2.0, 1.0], [1.0, -2.0]])
RHO = bloch_state([0.6, 0.0, 0.0])
Z_PLUS = qubit_projector([0.0, 0.0, 1.0])
WERNER = werner_state(0.7)
NAN, INF = float("nan"), float("inf")

REALS = st.floats(allow_nan=True, allow_infinity=True)
BAD = st.one_of(
    st.sampled_from([
        None, True, 0, 1, -1, 0.5, NAN, INF, 1j, "", "a", [], (), {}, object(), (2, 2), (True, 2), (2.0, 2),
        RHO, WERNER, Z_PLUS, [Z_PLUS], OP, np.zeros(0), np.zeros((2, 2)), np.eye(3), np.eye(4), np.zeros((65, 65)),
        np.full((2, 2), NAN), np.full((2, 2), 1e308), np.full((4, 4), 1e308), np.diag([1e308, -1e308]),
        np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]), np.array([[0.0, 1.7e308j], [-1.7e308j, 0.0]]),
        [[1, 0], [0]], np.array([1, 1]),
    ]),
    # Entries near the float limit, where an unchecked product or sum overflows.
    npst.arrays(np.float64, st.sampled_from([(2, 2), (4, 4)]), elements=st.sampled_from([1e308, -1e308, 1.7e308])),
    st.integers(-3, 10),
    REALS,
    st.text(max_size=4),
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=REALS),
    npst.arrays(np.complex128, st.sampled_from([(2, 2), (4, 4), (2, 2, 2)])),
    st.lists(st.one_of(st.integers(-2, 4), REALS), max_size=4),
)

# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "DensityMatrix": (DensityMatrix, (RHO.matrix,)),
    "Projector": (Projector, (Z_PLUS.matrix, 1)),
    "tensor_product": (tensor_product, (OP, OP)),
    "anticommutator": (anticommutator, (OP, OP)),
    "expectation": (expectation, (RHO, OP)),
    "partial_trace": (partial_trace, (WERNER.matrix, (2, 2), 0)),
    "hermitian_eigen": (hermitian_eigen, (OP,)),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_operator_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        call(*args)
    except PPLabError:
        pass
