"""Fuzz gate for the scheme boundary: whatever argument a public scheme call
gets, the only error that escapes is a PPLabError.

Each case takes a valid call and replaces one of its arguments (or one field
of a JSON record) by a value drawn from BAD: the wrong type, the wrong shape,
non-finite, empty or oversized.  The run is derandomized and bounded, so it
draws the same examples on every run.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    ObservableSpec,
    PPLabError,
    Scheme,
    bloch_state,
    build_scheme,
    equality_sum,
    marginalize,
    negativity_report,
    qubit_projector,
    scheme_from_json,
    scheme_to_json,
)

AXIS = [0.0, 0.0, 1.0]
RHO = bloch_state([0.6, 0.0, 0.0])
SPECS = [ObservableSpec(0, axis=AXIS), ObservableSpec(0, axis=[1.0, 0.0, 0.0])]
PAIR = build_scheme(RHO, SPECS, "unit")
RECORD = scheme_to_json(PAIR)
NAN, INF = float("nan"), float("inf")

REALS = st.floats(allow_nan=True, allow_infinity=True)
BAD = st.one_of(
    st.sampled_from([
        None, True, 0, 1, -1, 2, 0.5, NAN, INF, -INF, 1j, "", "a", b"+", [], (), {}, set(), object(),
        SPECS[0], PAIR, RHO, np.zeros(0), np.zeros((65, 65)), np.full(3, NAN), list(range(100)),
        SPECS * 5, [RECORD["observables"][0]] * 9, "+" * 9,
    ]),
    st.integers(-3, 10),
    REALS,
    st.text(alphabet="+-−~=, 0129¹²x", max_size=8),
    npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=REALS),
    npst.arrays(np.int64, npst.array_shapes(min_dims=1, max_dims=2, max_side=3), elements=st.integers(-1, 1)),
    st.lists(st.one_of(st.integers(-2, 2), REALS, st.text(max_size=2)), max_size=6),
    st.dictionaries(st.text(alphabet="+-−x", max_size=3), st.one_of(REALS, st.text(max_size=2)), max_size=5),
)

# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "ObservableSpec/axis": (lambda sub, axis, label: ObservableSpec(sub, axis=axis, label=label), (0, AXIS, "z")),
    "ObservableSpec/matrix": (lambda sub, m: ObservableSpec(sub, matrix=m), (0, SPECS[0].matrix)),
    "ObservableSpec.projector": (lambda outcome: SPECS[0].projector(outcome), (1,)),
    "qubit_projector": (qubit_projector, (AXIS, -1)),
    "Scheme": (Scheme, (SPECS, dict(PAIR.entries), "unit", None)),
    "Scheme.entry": (PAIR.entry, ("+-",)),
    "build_scheme": (build_scheme, (RHO, SPECS, "convex", None)),
    "marginalize": (marginalize, (PAIR, 1)),
    "equality_sum": (equality_sum, (PAIR, "0=~1")),
    "negativity_report": (negativity_report, (PAIR,)),
    "scheme_to_json": (scheme_to_json, (PAIR,)),
    "scheme_from_json": (scheme_from_json, (RECORD,)),
    "scheme_from_json/fields": (
        lambda obs, prescription, entries, weights: scheme_from_json(
            {"observables": obs, "prescription": prescription, "entries": entries, "weights": weights}
        ),
        (RECORD["observables"], "unit", RECORD["entries"], None),
    ),
    "scheme_from_json/observable": (
        lambda sub, axis, label: scheme_from_json(
            {**RECORD, "observables": [{"subsystem": sub, "axis": axis, "label": label}, RECORD["observables"][1]]}
        ),
        (0, AXIS, "z"),
    ),
    "scheme_from_json/matrix": (
        lambda re, im: scheme_from_json(
            {**RECORD, "observables": [{"subsystem": 0, "matrix": {"re": re, "im": im}}, RECORD["observables"][1]]}
        ),
        (np.real(SPECS[0].matrix).tolist(), np.imag(SPECS[0].matrix).tolist()),
    ),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_scheme_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        call(*args)
    except PPLabError:
        pass
