"""The real-3-vector check runs at Python-scalar cost with the decisions and bits of its numpy form.

`_vector3` tests its bound on `tolist()` entries, and `unit_vector`, `bloch_state`, `mub_partner`
and `discord_test` take a norm as `math.sqrt(a.dot(a))`.  The oracles below are verbatim copies of
the earlier numpy forms (`np.abs(a) <= limit` and `np.linalg.norm`); every input, accepted or
refused, must give the same array bits or the same error class and message.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import DensityMatrix, InvalidInputError, ObservableSpec, bloch_state
from pplab.geometry import (
    AXIS_ALIGNMENT_CUTOFF, IDENTITY_2, _VECTOR_LIMIT, _Y, _Z, _norm, _shown, _sigmas, _vector3, mub_partner,
    unit_vector,
)
from pplab.operator_core import SPECTRAL_TOL, STRUCTURAL_TOL, _bounded, _real_array


def old_vector3(v: object, name: str) -> np.ndarray:
    try:
        a = _real_array(v)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a real 3-vector") from None
    if a.shape != (3,):
        raise InvalidInputError(f"{name} must be a real 3-vector, got shape {a.shape}")
    if not (np.abs(a) <= _VECTOR_LIMIT).all():
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{name} is not finite: {a.tolist()}")
        _bounded(a, name, _VECTOR_LIMIT)
    return a


def old_unit_vector(v: object, name: str = "vector") -> np.ndarray:
    a = old_vector3(v, name)
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > SPECTRAL_TOL:
        raise InvalidInputError(f"{name} must be unit length, |{name}| = {_shown(n)}")
    return a


def old_bloch_state(p: object) -> DensityMatrix:
    a = old_vector3(p, "Bloch vector")
    if np.linalg.norm(a) > 1.0 + STRUCTURAL_TOL:
        raise InvalidInputError(f"Bloch vector must satisfy |p| <= 1, got {_shown(np.linalg.norm(a))}")
    m = 0.5 * (IDENTITY_2 + _sigmas(a)[0])
    return DensityMatrix(m)


def old_mub_partner(n: object) -> np.ndarray:
    a = old_unit_vector(n, "axis")
    ref = _Y if abs(float(a @ _Y)) < AXIS_ALIGNMENT_CUTOFF else _Z
    u = np.cross(ref, a)
    return u / np.linalg.norm(u)


def old_spec_axis(v: object) -> tuple[np.ndarray, np.ndarray]:
    axis = old_unit_vector(v, "axis").copy()
    axis.flags.writeable = False
    m = _sigmas(axis)[0]
    return axis, m


def _outcome(call, *args):
    """The bits and dtype of each array `call` returns, or its error class and message."""
    try:
        result = call(*args)
    except Exception as exc:  # the class is compared too
        return type(exc), str(exc)
    if isinstance(result, DensityMatrix):
        result = (result.matrix,)
    elif isinstance(result, ObservableSpec):
        result = (result.axis, result.matrix)
    elif isinstance(result, np.ndarray):
        result = (result,)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)


def _strided(v) -> np.ndarray:
    big = np.zeros(9)
    big[::3] = v
    return big[::3]


def _read_only(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    a.flags.writeable = False
    return a


_UP = np.nextafter(_VECTOR_LIMIT, np.inf)
_SUB = 5e-324
_S = 1.0 / math.sqrt(2.0)

# Inputs of every form a caller may pass; each is run through every check and its oracle.
INPUTS = {
    "list": lambda: [0.6, 0.0, 0.8],
    "tuple": lambda: (0.0, -0.6, 0.8),
    "ints": lambda: np.array([0, 0, 1]),
    "int_list": lambda: [0, 1, 0],
    "bools": lambda: np.array([True, False, False]),
    "float32": lambda: np.array([0.6, 0.0, 0.8], dtype=np.float32),
    "float32_axis": lambda: np.array([0.0, 1.0, 0.0], dtype=np.float32),
    "longdouble": lambda: np.array([0.6, 0.0, 0.8], dtype=np.longdouble),
    "strided": lambda: _strided([_S, _S, 0.0]),
    "reversed": lambda: np.array([0.8, 0.0, 0.6])[::-1],
    "read_only": lambda: _read_only([0.0, 0.6, 0.8]),
    "negative_zero": lambda: [-0.0, -0.0, -1.0],
    "subnormal": lambda: [_SUB, -0.0, 1.0],
    "subnormal_bloch": lambda: [-_SUB, 1e-310, 0.5],
    "zero": lambda: [0.0, 0.0, 0.0],
    "at_limit": lambda: [_VECTOR_LIMIT, 0.0, 0.0],
    "at_minus_limit": lambda: [0.0, -_VECTOR_LIMIT, _VECTOR_LIMIT],
    "above_limit": lambda: [0.0, 0.0, _UP],
    "above_minus_limit": lambda: np.array([-_UP, 0.0, 0.0]),
    "nan": lambda: [np.nan, 0.0, 1.0],
    "inf": lambda: [0.0, np.inf, 0.0],
    "minus_inf": lambda: np.array([0.0, 0.0, -np.inf]),
    "nan_and_huge": lambda: [np.nan, 1e300, 0.0],
    "shape_2": lambda: [0.0, 1.0],
    "shape_1x3": lambda: [[0.0, 0.0, 1.0]],
    "shape_3x1": lambda: np.array([[0.0], [0.0], [1.0]]),
    "scalar": lambda: 1.0,
    "ragged": lambda: [0.0, [1.0], 0.0],
    "complex": lambda: np.array([0.0, 0.0, 1.0], dtype=complex),
    "complex_list": lambda: [0.0, 0.0, 1 + 0j],
    "dict": lambda: {"x": 1.0},
    "unit_plus_0.9e-10": lambda: [1.0 + 0.9e-10, 0.0, 0.0],
    "unit_minus_0.9e-10": lambda: [0.0, 1.0 - 0.9e-10, 0.0],
    "unit_plus_1.1e-10": lambda: [0.0, 0.0, 1.0 + 1.1e-10],
    "unit_minus_1.1e-10": lambda: [-(1.0 - 1.1e-10), 0.0, 0.0],
    "bloch_plus_0.9e-12": lambda: [0.0, 1.0 + 0.9e-12, 0.0],
    "bloch_plus_1.1e-12": lambda: [0.0, 0.0, -(1.0 + 1.1e-12)],
    "bloch_long": lambda: [0.9, 0.9, 0.9],
}

CHECKS = {
    "_vector3": (lambda v: _vector3(v, "v"), lambda v: old_vector3(v, "v")),
    "unit_vector": (unit_vector, old_unit_vector),
    "bloch_state": (bloch_state, old_bloch_state),
    "mub_partner": (mub_partner, old_mub_partner),
    "ObservableSpec": (lambda v: ObservableSpec(0, axis=v), old_spec_axis),
}


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("key", list(INPUTS))
def test_same_decision_and_bits_as_the_numpy_form(check, key):
    new, old = CHECKS[check]
    assert _outcome(new, INPUTS[key]()) == _outcome(old, INPUTS[key]())


def _edge_vectors(target: float, count: int = 400) -> list[np.ndarray]:
    """Seeded vectors whose norm lies within a few ulps of `target`, so that a norm rounded
    one ulp differently flips the decision for some of them."""
    rng = np.random.default_rng(24)
    d = rng.standard_normal((count, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return list(d * target)


@pytest.mark.parametrize("check, targets", [
    ("unit_vector", (1.0 + SPECTRAL_TOL, 1.0 - SPECTRAL_TOL)),
    ("mub_partner", (1.0 + SPECTRAL_TOL,)),
    ("bloch_state", (1.0 + STRUCTURAL_TOL,)),
])
def test_same_decisions_at_the_tolerance_edge(check, targets):
    new, old = CHECKS[check]
    outcomes = []
    for target in targets:
        for v in _edge_vectors(target):
            outcomes.append(_outcome(new, v))
            assert outcomes[-1] == _outcome(old, v)
    assert len({isinstance(o[0], type) for o in outcomes}) == 2  # both accepted and refused vectors occur


def test_seeded_vectors_keep_their_bits():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.standard_normal(3)
        u = v / np.linalg.norm(v)
        p = u * rng.uniform(0.0, 1.0)
        for check, arg in (("unit_vector", u), ("mub_partner", u), ("ObservableSpec", u), ("bloch_state", p),
                           ("unit_vector", v)):
            new, old = CHECKS[check]
            assert _outcome(new, arg) == _outcome(old, arg)


def test_norm_is_numpys_bit_for_bit():
    rng = np.random.default_rng(2024)
    scale = 10.0 ** rng.uniform(-300, 100, size=10_000)
    vectors = rng.standard_normal((10_000, 3)) * scale[:, None]
    for a in vectors:
        assert math.sqrt(a.dot(a)).hex() == float(np.linalg.norm(a)).hex()
        assert _norm(a).hex() == float(np.linalg.norm(a)).hex()


@pytest.mark.parametrize("make", [
    lambda: np.array([0.6, 0.0, 0.8]),
    lambda: [0.6, 0.0, 0.8],
    lambda: np.array([0, 0, 1]),
    lambda: _strided([0.0, 0.6, 0.8]),
    lambda: _read_only([0.8, 0.6, 0.0]),
], ids=["array", "list", "ints", "strided", "read_only"])
def test_spec_keeps_its_own_read_only_axis(make):
    v = make()
    spec = ObservableSpec(0, axis=v)
    axis, matrix = spec.axis.copy(), spec.matrix.copy()
    assert not spec.axis.flags.writeable
    assert spec.axis is not v
    if isinstance(v, np.ndarray):
        assert not np.shares_memory(spec.axis, v)
        if v.flags.writeable:
            v[:] = [1.0, 0.0, 0.0]
    else:
        v[:] = [1.0, 0.0, 0.0]
    assert spec.axis.tobytes() == axis.tobytes()
    assert spec.matrix.tobytes() == matrix.tobytes()
    with pytest.raises(ValueError):
        spec.axis[0] = 0.0
