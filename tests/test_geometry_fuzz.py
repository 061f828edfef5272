"""Fuzz gate for the geometry boundary: whatever argument a public geometry
call gets, the only error that escapes is a PPLabError, and every number a
call returns is finite.

Each case takes a valid call and replaces one of its arguments by a value
drawn from BAD: zero, signed zero, a subnormal, +-1e200, an infinity, NaN, a
complex value (some with a zero imaginary part), a string or a bool, alone or
inside a container of the wrong shape or of the shape the argument takes.  A
Doublet is a record that its geometry checks, so the Doublet case builds one
with a drawn field and places it in a geometry.  The run is derandomized and
bounded, so it draws the same examples on every run.  CI also runs this file
with RuntimeWarning as an error, so an overflow, an invalid value or a complex
value cast to real on any drawn example fails there.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from pplab import (
    Doublet,
    EntanglementGeometry,
    PPLabError,
    bloch_state,
    make_doublet,
    make_entanglement_geometry,
    mub_partner,
    pauli_vector,
    qubit_projector,
    werner_state,
)
from pplab.geometry import unit_vector

NAN, INF = float("nan"), float("inf")
NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e200, -1e200, INF, -INF, NAN]
COMPLEX = [1j, 1 + 0j, np.complex128(0.5 + 1j), np.complex128(1.0)]
SPECIAL = st.sampled_from([*NUMBERS, *COMPLEX, "", "a", "0.5", True, False, None])
SHAPES = st.sampled_from([(3,), (2,), (4,), (3, 3), (2, 3), (3, 1)])

VECTOR = [0.0, 0.0, 1.0]
GEOM = make_entanglement_geometry(1.2)

VECTORS = npst.arrays(np.float64, (3,), elements=st.sampled_from(NUMBERS))
BAD = st.one_of(
    SPECIAL,
    VECTORS,
    st.integers(-3, 3),
    st.lists(SPECIAL, max_size=4),
    npst.arrays(np.float64, SHAPES, elements=st.sampled_from(NUMBERS)),
    npst.arrays(np.complex128, SHAPES, elements=st.sampled_from([*NUMBERS, 1j, 1e200j])),
    # A frame or an axis tuple of three rows, each a valid axis or a drawn 3-vector.
    st.lists(
        st.one_of(
            st.sampled_from(list(np.eye(3))),
            VECTORS,
            npst.arrays(np.complex128, (3,), elements=st.sampled_from([*NUMBERS, 1j])),
        ),
        min_size=3, max_size=3,
    ),
)


def _in_geometry(n1, n2, axis, alpha):
    d = Doublet(n1, n2, axis, alpha)
    return EntanglementGeometry(GEOM.alpha, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, (d, *GEOM.b_doublets[1:]))


D = GEOM.b_doublets[0]
# Name: (call, valid arguments); each example replaces one argument by a BAD value.
CALLS = {
    "unit_vector": (unit_vector, (VECTOR,)),
    "pauli_vector": (pauli_vector, (VECTOR,)),
    "bloch_state": (bloch_state, ([0.6, 0.0, 0.0],)),
    "qubit_projector": (qubit_projector, (VECTOR, -1)),
    "make_doublet": (make_doublet, (VECTOR, 1.2)),
    "Doublet": (_in_geometry, (D.n1, D.n2, D.axis, D.alpha)),
    "EntanglementGeometry": (
        EntanglementGeometry, (GEOM.alpha, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets),
    ),
    "make_entanglement_geometry": (make_entanglement_geometry, (1.2, np.eye(3), np.eye(3)[::-1])),
    "werner_state": (werner_state, (0.5,)),
    "mub_partner": (mub_partner, (VECTOR,)),
}


def _finite(value) -> bool:
    """Every number in `value`, a dataclass's fields or a container's items, is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value) if f.init)
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, str):
        return True
    return bool(np.isfinite(value).all())


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_geometry_calls_raise_only_pplab_errors(data):
    call, args = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="call")]
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1), label="slot")] = data.draw(BAD, label="value")
    try:
        result = call(*args)
    except PPLabError:
        return
    assert _finite(result), result
