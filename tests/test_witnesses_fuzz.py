"""Fuzz gate for the nonclassicality tests: whatever argument a public test
gets, the only error that escapes is a PPLabError.

Each case takes a valid call and replaces one of its arguments by a value
drawn from BAD: the wrong type, the wrong shape, non-finite, empty, a state
of the wrong dimension, an axis off unit length, an observable, geometry or
variant of the wrong kind, or weak terms that do not add up.  The run is
derandomized and bounded, so it draws the same examples on every run.  A
numpy RuntimeWarning fails the test.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    ObservableSpec,
    PPLabError,
    bloch_state,
    boolean_state_dep_test,
    boolean_state_indep_test,
    chsh_test,
    coherence_test,
    discord_test,
    distributivity_test,
    linear_ent_test,
    make_entanglement_geometry,
    nonlinear_ent_test,
    qubit_projector,
    statistic_from_terms,
    werner_state,
)

RHO = bloch_state([0.6, 0.0, 0.3])
WERNER = werner_state(0.7)
GEOM = make_entanglement_geometry(1.2)
OBS = [ObservableSpec(sub, axis=axis) for sub in (0, 1) for axis in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])]
Z, X, Y = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
TERM = {"coefficient": 1.0, "pseudo_probability": 0.5, "group": 0}
NAN, INF = float("nan"), float("inf")

REALS = st.floats(allow_nan=True, allow_infinity=True)
BAD = st.one_of(
    st.sampled_from([
        None, True, 0, 1, -1, 0.5, 3.5, NAN, INF, 1j, "", "a", "I", "II", "III", "sum", "max_group_sum", [], (), {},
        object(), RHO, WERNER, GEOM, OBS[0], ObservableSpec(0, matrix=np.diag([1.0, 1.0, -1.0])),
        qubit_projector(Z), np.eye(2) / 2, np.eye(4) / 4, [0.0, 0.0, 2.0], [NAN, 0.0, 0.0], [1e308, 0.0, 0.0],
        [1.0, 0.0], np.array(["I"]), np.array("I"), np.array([1, 1]), [TERM, {**TERM, "group": 1.5}],
        [{**TERM, "pseudo_probability": 1e308}] * 2, [{"coefficient": "1", "pseudo_probability": 0.5}], [None],
    ]),
    st.integers(-3, 10),
    REALS,
    st.text(max_size=4),
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4), elements=REALS),
    npst.arrays(np.complex128, st.sampled_from([(3,), (2, 2), (4, 4)])),
    st.lists(st.one_of(st.integers(-2, 2), REALS, st.sampled_from([TERM, OBS[0]])), max_size=4),
)

# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "statistic_from_terms": (statistic_from_terms, ([TERM], "sum")),
    "coherence_test": (coherence_test, (RHO, Z, X)),
    "boolean_state_dep_test": (boolean_state_dep_test, (RHO, Z, X)),
    "boolean_state_indep_test": (boolean_state_indep_test, (Z, X)),
    "distributivity_test": (distributivity_test, (RHO, Z, X, Y)),
    "chsh_test": (chsh_test, (WERNER, *OBS)),
    "linear_ent_test": (linear_ent_test, (WERNER, GEOM, "II")),
    "nonlinear_ent_test": (nonlinear_ent_test, (WERNER, GEOM, "III")),
    "discord_test": (discord_test, (WERNER, 1.2)),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_witness_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        call(*args)
    except PPLabError:
        pass
