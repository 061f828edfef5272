"""Fuzz gate for the pointer and game boundary: whatever argument a public
pointer or game call gets, the only error that escapes is a PPLabError, and
every number a call returns is finite, so the CLI can write it as JSON.

Each case takes a valid call and replaces one of its arguments (or one field
of its PointerConfig) by a value drawn from BAD: zero, signed zero, a
subnormal, +-1e200, an infinity, NaN, a string or a bool, alone or inside a
container of the shape the argument takes.  Valid calls simulate at most two
pointers on at most 64 grid points, and no drawn value asks for more, so no
example runs a large simulation that the caps allow.  The run is
derandomized and bounded, so it draws the same examples on every run.  CI
also runs this file with RuntimeWarning as an error, so an overflow or an
invalid value on any drawn example fails there.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    PointerConfig,
    PPLabError,
    bloch_state,
    evaluate_strategy,
    evolve_scheme,
    game_score,
    perturbative_prediction,
    proportionality_check,
    qubit_projector,
    scan_strategies,
    simulate_pointers,
    transition_matrix,
)

NAN, INF = float("nan"), float("inf")
NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, INF, -INF, NAN]
SPECIAL = st.sampled_from([*NUMBERS, "", "a", "0.5", True, False, None])

RHO = bloch_state([0.6, 0.0, 0.0])
POST = bloch_state([0.0, 0.0, 0.0])
PROJS = [qubit_projector([0.0, 0.0, 1.0]), qubit_projector([1.0, 0.0, 0.0])]
FIELDS = (0.05, 1.0, 1.0)  # g, t, sigma
SCHEME = (0.25, 0.25, 0.25, 0.25)
AXIS = [0.0, 0.0, 1.0]

BAD = st.one_of(
    SPECIAL,
    st.integers(-3, 64),
    st.lists(SPECIAL, max_size=4),
    st.lists(st.one_of(SPECIAL, st.sampled_from(PROJS)), min_size=1, max_size=2),
    npst.arrays(np.float64, st.sampled_from([(2, 2), (3,), (4,)]), elements=st.sampled_from(NUMBERS)),
    npst.arrays(np.complex128, (2, 2), elements=st.sampled_from([*NUMBERS, 1j, 1e200j])),
)


# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "PointerConfig": (PointerConfig, FIELDS),
    "simulate_pointers": (lambda *fields: simulate_pointers(RHO, PROJS, POST, PointerConfig(*fields)), FIELDS),
    "simulate_pointers/inputs": (lambda s, p, e: simulate_pointers(s, p, e, PointerConfig(*FIELDS)), (RHO, PROJS, POST)),
    "perturbative_prediction": (lambda *fields: perturbative_prediction(RHO, PROJS, POST, PointerConfig(*fields)), FIELDS),
    "perturbative_prediction/inputs": (
        lambda s, p, e: perturbative_prediction(s, p, e, PointerConfig(*FIELDS)), (RHO, PROJS, POST),
    ),
    "proportionality_check": (
        lambda *fields: proportionality_check(RHO, PROJS, POST, PointerConfig(*fields), [0.02, 0.04, 0.06]), FIELDS,
    ),
    "proportionality_check/inputs": (
        lambda p, e, couplings: proportionality_check(RHO, p, e, PointerConfig(*FIELDS), couplings),
        (PROJS[:1], POST, [0.02, 0.04, 0.06]),
    ),
    "transition_matrix": (transition_matrix, (0.5,)),
    "evolve_scheme": (evolve_scheme, (SCHEME, 0.5)),
    "game_score": (game_score, (SCHEME,)),
    "evaluate_strategy": (evaluate_strategy, ([1.0, 0.0, 0.0], AXIS, 1.0, [0.0, 0.5], 0.0)),
    "scan_strategies": (scan_strategies, ([[1.0, 0.0, 0.0]], [AXIS], 1.0, [0.0, 0.5], 0.0)),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_pointer_and_game_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        result = call(*args)
    except PPLabError:
        return
    json.dumps(result, allow_nan=False, default=_plain)


def _plain(obj):
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj.tolist()
