"""Fuzz gate for the weak layer: whatever argument a public weak-value call
gets, the only error that escapes is a PPLabError.

Each case takes a valid call and replaces one of its arguments by a value
drawn from BAD: the wrong type, the wrong shape, non-finite, empty,
oversized, or a valid object of the wrong kind.  The run is derandomized and
bounded, so it draws the same examples on every run.  A plain run does not
fail on a numpy warning; CI also runs this file with RuntimeWarning as an
error, so an overflow on any drawn example fails there.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    PPLabError,
    bloch_state,
    hj_decompose,
    pp_weak_factorization,
    qubit_projector,
    real_weak_product,
    weak_value,
)

SIGMA_Z = np.diag([1.0, -1.0])
PRE = bloch_state([0.6, 0.0, 0.0])
POST = bloch_state([0.0, 0.0, 0.8])
FACTORS = [qubit_projector([0.0, 0.0, 1.0]), qubit_projector([1.0, 0.0, 0.0])]
NAN, INF = float("nan"), float("inf")

REALS = st.floats(allow_nan=True, allow_infinity=True)
BAD = st.one_of(
    st.sampled_from([
        None, True, 0, 1, -1, 0.5, NAN, INF, 1j, "", "a", [], (), {}, object(),
        PRE, FACTORS[0], FACTORS, SIGMA_Z, np.zeros(0), np.zeros((2, 2)), np.eye(3), np.zeros((65, 65)),
        np.full((2, 2), NAN), np.full((2, 2), 1e308), [FACTORS[0], np.eye(3)], [PRE] * 3, [[1, 0], [0]],
        bloch_state([0.0, 0.0, -1.0]), qubit_projector([0.0, 0.0, -1.0]),
    ]),
    st.integers(-3, 10),
    REALS,
    st.text(max_size=4),
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=REALS),
    npst.arrays(np.complex128, st.sampled_from([(2, 2), (4, 4), (2, 2, 2)])),
    st.lists(st.one_of(st.integers(-2, 2), REALS, st.sampled_from(FACTORS)), max_size=4),
)

# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "weak_value": (weak_value, (SIGMA_Z, PRE, POST, "z")),
    "real_weak_product": (real_weak_product, (FACTORS, PRE, POST)),
    "pp_weak_factorization": (pp_weak_factorization, (PRE, FACTORS)),
    "hj_decompose": (hj_decompose, (SIGMA_Z,)),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_weak_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        call(*args)
    except PPLabError:
        pass
