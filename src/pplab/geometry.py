"""Qubit Bloch-sphere constructions: states, spin projectors, doublet and
frame geometry for the two-qubit correlation tests, Werner family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .operator_core import Array, DensityMatrix, Projector, STRUCTURAL_TOL, _close

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "pauli_vector",
    "bloch_state",
    "qubit_projector",
    "Doublet",
    "make_doublet",
    "EntanglementGeometry",
    "make_entanglement_geometry",
    "werner_state",
    "mub_partner",
    "unit_vector",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

UNIT_TOL = 1e-10
# Axis nearly parallel to the primary reference flips the azimuth reference.
AXIS_ALIGNMENT_CUTOFF = 0.9

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def unit_vector(v: object, name: str = "vector") -> Array:
    """Validate a real 3-vector of unit length."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"{name} must be a real 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} is not finite: {a.tolist()}")
    n = float(np.linalg.norm(a))
    if abs(n - 1.0) > UNIT_TOL:
        raise InvalidInputError(f"{name} must be unit length, |{name}| = {n:.12f}")
    return a


def pauli_vector(n: object) -> Array:
    """sigma . n for a unit 3-vector n."""
    a = unit_vector(n, "axis")
    return a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z


def bloch_state(p: object) -> DensityMatrix:
    """Qubit state (1/2)(I + sigma . p); |p| <= 1 up to tolerance."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"Bloch vector must be a real 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"Bloch vector is not finite: {a.tolist()}")
    if np.linalg.norm(a) > 1.0 + 1e-12:
        raise InvalidInputError(f"Bloch vector must satisfy |p| <= 1, got {np.linalg.norm(a):.12f}")
    m = 0.5 * (IDENTITY_2 + a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z)
    return DensityMatrix(m)


def qubit_projector(n: object, outcome: int = +1) -> Projector:
    """Rank-1 projector onto the +-1 eigenspace of sigma . n."""
    if outcome not in (+1, -1):
        raise InvalidInputError(f"outcome must be +1 or -1, got {outcome!r}")
    m = 0.5 * (IDENTITY_2 + outcome * pauli_vector(n))
    return Projector(m)


@dataclass(frozen=True)
class Doublet:
    """Pair of unit axes separated by aperture alpha, symmetric about `axis`."""

    n1: Array
    n2: Array
    axis: Array
    alpha: float


def _azimuth_reference(axis: Array) -> Array:
    ref = _Z if abs(float(axis @ _Z)) < AXIS_ALIGNMENT_CUTOFF else _X
    u = np.cross(axis, ref)
    return u / np.linalg.norm(u)


def make_doublet(axis: object, alpha: float, azimuth_rule: str = "cross-reference") -> Doublet:
    """Two axes at angle alpha to each other with bisector `axis`.

    The in-plane direction is fixed deterministically: cross the axis with z
    unless the two are nearly parallel, in which case cross with x.  A single
    rule tag is supported; the tag exists so reports can echo the convention.
    """
    a = unit_vector(axis, "axis")
    if not (0.0 < alpha < np.pi):
        raise InvalidInputError(f"alpha must lie in (0, pi), got {alpha}")
    if azimuth_rule != "cross-reference":
        raise InvalidInputError(f"unknown azimuth rule {azimuth_rule!r}")
    u = _azimuth_reference(a)
    half = 0.5 * alpha
    n1 = np.cos(half) * a + np.sin(half) * u
    n2 = np.cos(half) * a - np.sin(half) * u
    return Doublet(n1=n1, n2=n2, axis=a, alpha=float(alpha))


@dataclass(frozen=True)
class EntanglementGeometry:
    """Per-axis measurement layout for the two-qubit inequality tests.

    Each side carries an orthonormal axis frame; around every axis sits a
    doublet of aperture alpha.  Tests use the first two or all three axes.
    """

    alpha: float
    a_axes: tuple[Array, Array, Array]
    b_axes: tuple[Array, Array, Array]
    a_doublets: tuple[Doublet, Doublet, Doublet]
    b_doublets: tuple[Doublet, Doublet, Doublet]


def _validated_frame(frame: object, name: str) -> tuple[Array, Array, Array]:
    axes = [unit_vector(v, f"{name}[{i}]") for i, v in enumerate(frame)]  # type: ignore[arg-type]
    if len(axes) != 3:
        raise InvalidInputError(f"{name} must contain exactly 3 axes")
    M = np.stack(axes)
    if not _close(M @ M.T, np.eye(3), 1e-10):
        raise InvalidInputError(f"{name} must be orthonormal")
    return axes[0], axes[1], axes[2]


def make_entanglement_geometry(
    alpha: float,
    a_frame: object | None = None,
    b_frame: object | None = None,
) -> EntanglementGeometry:
    """Build the doublet layout for both sides; frames default to (x, y, z)."""
    if not (0.0 < alpha < np.pi):
        raise InvalidInputError(f"alpha must lie in (0, pi), got {alpha}")
    a_axes = _validated_frame(a_frame if a_frame is not None else (_X, _Y, _Z), "a_frame")
    b_axes = _validated_frame(b_frame if b_frame is not None else a_axes, "b_frame")
    return EntanglementGeometry(
        alpha=float(alpha),
        a_axes=a_axes,
        b_axes=b_axes,
        a_doublets=tuple(make_doublet(a, alpha) for a in a_axes),  # type: ignore[arg-type]
        b_doublets=tuple(make_doublet(b, alpha) for b in b_axes),  # type: ignore[arg-type]
    )


def werner_state(eta: float) -> DensityMatrix:
    """Singlet fraction eta mixed with white noise; -1/3 <= eta <= 1."""
    if not (-1.0 / 3.0 - STRUCTURAL_TOL <= eta <= 1.0 + STRUCTURAL_TOL):
        raise InvalidInputError(f"eta must lie in [-1/3, 1], got {eta}")
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    singlet = np.outer(psi, psi.conj())
    return DensityMatrix(eta * singlet + (1.0 - eta) * np.eye(4, dtype=complex) / 4.0)


def mub_partner(n: object) -> Array:
    """A deterministic unit axis orthogonal to n.

    The +-1 eigenbases of sigma.n and sigma.m are mutually unbiased exactly
    when m is orthogonal to n; the specific in-plane choice is free and fixed
    here by crossing with y (falling back to z near the y axis).
    """
    a = unit_vector(n, "axis")
    ref = _Y if abs(float(a @ _Y)) < AXIS_ALIGNMENT_CUTOFF else _Z
    u = np.cross(ref, a)
    return u / np.linalg.norm(u)
