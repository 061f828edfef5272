"""Rules with one owner: a geometry checks every field of its doublets, the
two-qubit tests read their frames from the geometry, and boundary readers
refuse complex values instead of casting them to real with a numpy warning."""
from __future__ import annotations

import numpy as np
import pytest

from pplab import (
    Doublet,
    EntanglementGeometry,
    InvalidInputError,
    PointerConfig,
    bloch_state,
    evaluate_strategy,
    make_doublet,
    make_entanglement_geometry,
    proportionality_check,
    qubit_projector,
)

GEOM = make_entanglement_geometry(1.5)
D = GEOM.b_doublets[0]


def _with_b0(**fields) -> EntanglementGeometry:
    """GEOM built directly, with fields of b_doublets[0] replaced."""
    b0 = Doublet(**{"n1": D.n1, "n2": D.n2, "axis": D.axis, "alpha": D.alpha, **fields})
    return EntanglementGeometry(GEOM.alpha, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, (b0, *GEOM.b_doublets[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [float("nan"), 0.0, 0.0]], ids=["z", "nan"])
def test_a_doublet_whose_axis_is_not_its_frame_axis_is_refused(axis):
    # n1 and n2 stay about x, so only the axis field disagrees with b_axes[0].
    # Such a geometry gave linear I a statistic of -0.1232 against a Pauli
    # closed form of +0.2061 on Werner eta = 0.9.
    with pytest.raises(InvalidInputError, match=r"^b_doublets\[0\] axis is not b_axes\[0\]$"):
        _with_b0(axis=axis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n1": [1e200, 0.0, 0.0]}, "b_doublets[0] n1 has an entry of modulus above 1e+100"),
        ({"n2": [0.0, 0.0, float("inf")]}, "b_doublets[0] n2 has an entry of modulus above 1e+100"),
        ({"axis": [float("-inf"), 0.0, 0.0]}, "b_doublets[0] axis has an entry of modulus above 1e+100"),
    ],
    ids=["huge_n1", "infinite_n2", "infinite_axis"],
)
def test_doublet_entries_that_would_overflow_are_refused_before_any_check(fields, message):
    with pytest.raises(InvalidInputError) as info:
        _with_b0(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [5, None, 0.5])
def test_a_geometry_field_that_is_not_a_collection_is_invalid_input(value):
    with pytest.raises(InvalidInputError, match="^a_axes must be an ordered collection of 3-vectors$"):
        EntanglementGeometry(GEOM.alpha, value, GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets)
    with pytest.raises(InvalidInputError, match="^b_doublets must be an ordered collection of Doublets$"):
        EntanglementGeometry(GEOM.alpha, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, value)


def test_an_azimuth_rule_that_is_not_a_string_is_invalid_input():
    # An array compared with the rule's name per entry and leaked numpy's ValueError.
    with pytest.raises(InvalidInputError, match="^unknown azimuth rule"):
        make_doublet([0.0, 0.0, 1.0], 1.2, np.zeros(3))


RHO = bloch_state([0.6, 0.0, 0.0])
PROJS = [qubit_projector([0.0, 0.0, 1.0]), qubit_projector([1.0, 0.0, 0.0])]

COMPLEX_CASTS = {
    "evaluate_strategy/t_grid": (
        lambda: evaluate_strategy([1, 0, 0], [0, 0, 1], 1.0, [np.complex128(0.5 + 1j)]),
        "t_grid must be an ordered collection of numbers",
    ),
    "proportionality_check/couplings": (
        lambda: proportionality_check(
            RHO, PROJS, bloch_state([0.0, 0.0, 0.0]), PointerConfig(0.05, 1.0), [np.complex128(0.02 + 1j), 0.04, 0.06]
        ),
        "couplings must be an ordered collection of numbers",
    ),
    "Doublet/complex_n1": (
        lambda: Doublet(np.array([1 + 1j, 0, 0]), D.n2, D.axis, D.alpha),
        "n1 must be a real 3-vector",
    ),
    # A zero imaginary part is refused too: the value is still of complex type.
    "EntanglementGeometry/complex_frame_row": (
        lambda: EntanglementGeometry(
            GEOM.alpha, (np.array([1 + 0j, 0, 0]), *GEOM.a_axes[1:]), GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets
        ),
        "a_axes[0] must be a real 3-vector",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", list(COMPLEX_CASTS.values()), ids=list(COMPLEX_CASTS))
def test_complex_values_are_refused_not_cast_to_real(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
