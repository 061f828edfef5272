"""Qubit Bloch-sphere constructions: states, spin projectors, doublet and
frame geometry for the two-qubit correlation tests, Werner family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .operator_core import (
    Array, DensityMatrix, Projector, SPECTRAL_TOL, STRUCTURAL_TOL, _bounded, _expectations, _real, _real_array,
    _sequence, _sign,
)

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
# sigma_0 = I, sigma_1..3 = X, Y, Z; entry (mu, nu) of the pair basis is sigma_mu x sigma_nu.
_PAULI_BASIS = np.stack([IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z])
_PAULI_PAIRS = np.einsum("mab,ncd->mnacbd", _PAULI_BASIS, _PAULI_BASIS).reshape(4, 4, 4, 4)
# Row i is Pauli matrix i flattened, so that n @ _PAULIS is sigma . n flattened.
_PAULIS = _PAULI_BASIS[1:].reshape(3, 4)

# Axis nearly parallel to the primary reference flips the azimuth reference.
AXIS_ALIGNMENT_CUTOFF = 0.9

_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])
# Largest entry modulus of a 3-vector: its norm then stays finite.  No vector the
# library accepts has an entry above 1, so this only refuses norms that would overflow.
_VECTOR_LIMIT = 1e100


def _vector3(v: object, name: str) -> Array:
    """A finite real 3-vector with no entry above _VECTOR_LIMIT, or InvalidInputError naming `name`."""
    try:
        a = _real_array(v)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a real 3-vector") from None
    if a.shape != (3,):
        raise InvalidInputError(f"{name} must be a real 3-vector, got shape {a.shape}")
    x, y, z = a.tolist()  # NaN fails each comparison
    if not (abs(x) <= _VECTOR_LIMIT and abs(y) <= _VECTOR_LIMIT and abs(z) <= _VECTOR_LIMIT):
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{name} is not finite: {a.tolist()}")
        _bounded(a, name, _VECTOR_LIMIT)
    return a


def _shown(x: float) -> str:
    """`x` for a message: 12 decimals, or exponent form from 1e6 on (a norm near _VECTOR_LIMIT has 100 digits)."""
    return f"{x:.12f}" if abs(x) < 1e6 else f"{x:.12e}"


def _norm(a: Array) -> float:
    """|a| for a real 1-d array: the ddot and IEEE square root of np.linalg.norm, bit for bit, without its set-up."""
    return math.sqrt(a.dot(a))


def unit_vector(v: object, name: str = "vector") -> Array:
    """Validate a real 3-vector of unit length."""
    a = _vector3(v, name)
    n = _norm(a)
    if abs(n - 1.0) > SPECTRAL_TOL:
        raise InvalidInputError(f"{name} must be unit length, |{name}| = {_shown(n)}")
    return a


def _pauli_coordinates(m: Array) -> Array:
    """Re Tr(m sigma_mu) for a 2x2 `m`: [1, p] for a qubit state with Bloch vector p.
    For a 4x4 `m`, the table Re Tr(m sigma_mu x sigma_nu): [[1, b], [a, T]] for a
    two-qubit state with local Bloch vectors a, b and correlation tensor T."""
    return _expectations(m, _PAULI_BASIS if len(m) == 2 else _PAULI_PAIRS)


def _sigmas(vectors: object) -> Array:
    """sigma . n for each real 3-vector n of an (m, 3) stack, as an (m, 2, 2) stack; the vectors are not checked."""
    return (np.asarray(vectors, dtype=float) @ _PAULIS).reshape(-1, 2, 2)


def pauli_vector(n: object) -> Array:
    """sigma . n for a unit 3-vector n."""
    return _sigmas(unit_vector(n, "axis"))[0]


def _bloch_vector(p: object) -> Array:
    """`p` as a float array if it is a finite real 3-vector with |p| <= 1 up to tolerance."""
    a = _vector3(p, "Bloch vector")
    n = _norm(a)
    if n > 1.0 + STRUCTURAL_TOL:
        raise InvalidInputError(f"Bloch vector must satisfy |p| <= 1, got {_shown(n)}")
    return a


def bloch_state(p: object) -> DensityMatrix:
    """Qubit state (1/2)(I + sigma . p); |p| <= 1 up to tolerance."""
    return DensityMatrix(0.5 * (IDENTITY_2 + _sigmas(_bloch_vector(p))[0]))


def qubit_projector(n: object, outcome: int = +1) -> Projector:
    """Rank-1 projector onto the +-1 eigenspace of sigma . n."""
    m = 0.5 * (IDENTITY_2 + _sign(outcome) * pauli_vector(n))
    return Projector(m)


def _frozen(v: object, name: str) -> Array:
    """A read-only float copy of the real 3-vector `v`, so no caller can change it afterwards."""
    try:
        a = np.array(_real_array(v), dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (3,):
        raise InvalidInputError(f"{name} must be a real 3-vector")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Doublet:
    """Pair of unit axes separated by aperture alpha, symmetric about `axis`.

    The three vectors are kept as read-only copies of the real 3-vectors
    passed in.
    """

    n1: Array
    n2: Array
    axis: Array
    alpha: float

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "axis"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))

    def __reduce__(self) -> tuple:
        return Doublet, (self.n1, self.n2, self.axis, self.alpha)


def _aperture(alpha: object) -> float:
    """`alpha` as a float inside (0, pi), the range of a doublet aperture."""
    alpha = _real(alpha, "alpha")
    if not (0.0 < alpha < np.pi):
        raise InvalidInputError(f"alpha must lie in (0, pi), got {alpha}")
    return alpha


def _doublets(axes: Array, alpha: float) -> tuple[Array, Array]:
    """The axes n1, n2 of the doublets of aperture `alpha` about each checked unit
    axis of an (m, 3) stack, as two (m, 3) stacks; for a (k, 1, 1) array of
    apertures, two (k, m, 3) stacks, one (m, 3) pair per aperture.

    The in-plane direction is fixed deterministically: cross the axis with z
    unless the two are nearly parallel, in which case cross with x.
    """
    x, y, z = axes.T
    near = np.abs(z) >= AXIS_ALIGNMENT_CUTOFF
    # a x z = (a_y, -a_x, 0), or a x x = (0, a_z, -a_y) for an axis nearly parallel to z.
    u = np.column_stack([np.where(near, 0.0, y), np.where(near, z, -x), np.where(near, -y, 0.0)])
    u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
    half = 0.5 * alpha
    return np.cos(half) * axes + np.sin(half) * u, np.cos(half) * axes - np.sin(half) * u


def make_doublet(axis: object, alpha: float) -> Doublet:
    """Two axes at angle alpha to each other with bisector `axis`.

    The in-plane direction follows `_doublets`.
    """
    a = unit_vector(axis, "axis")
    alpha = _aperture(alpha)
    (n1,), (n2,) = _doublets(a[None], alpha)
    return Doublet(n1=n1, n2=n2, axis=a, alpha=alpha)


@dataclass(frozen=True, eq=False)
class EntanglementGeometry:
    """Per-axis measurement layout for the two-qubit inequality tests.

    Each side carries an orthonormal axis frame (a reflection too): each axis of unit length as
    `unit_vector` checks it, no two with a dot product above SPECTRAL_TOL.  Around every axis
    sits a doublet of aperture alpha.  Tests use the first two or all three axes.
    The axes are kept as read-only copies and doublets are immutable, so a
    geometry never changes; the entanglement tests compile its witness
    operators on first use and keep them in `_terms`.  Each doublet must have
    the geometry's aperture and unit axes n1, n2 with n1.n2 = cos(alpha) whose
    bisector (n1 + n2)/(2 cos(alpha/2)) is its frame axis, and that frame axis
    as its `axis`; its azimuth is free.
    """

    alpha: float
    a_axes: tuple[Array, Array, Array]
    b_axes: tuple[Array, Array, Array]
    a_doublets: tuple[Doublet, Doublet, Doublet]
    b_doublets: tuple[Doublet, Doublet, Doublet]
    _terms: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _aperture(self.alpha))
        for name in ("a_axes", "b_axes", "a_doublets", "b_doublets"):
            value = tuple(_sequence(getattr(self, name), name, "3-vectors" if name.endswith("axes") else "Doublets"))
            if len(value) != 3:
                raise InvalidInputError(f"{name} must hold 3 entries, got {len(value)}")
            if name.endswith("axes"):
                value = tuple(_frozen(v, f"{name}[{i}]") for i, v in enumerate(value))
            object.__setattr__(self, name, value)
        doublets = self.a_doublets + self.b_doublets
        for k, d in enumerate(doublets):
            if not isinstance(d, Doublet):
                raise InvalidInputError(f"{'ab'[k // 3]}_doublets[{k % 3}] must be a Doublet, got {type(d).__name__}")
        vectors = np.array([(d.n1, d.n2, d.axis) for d in doublets])
        if (np.abs(vectors) > _VECTOR_LIMIT).any():  # refused before any arithmetic can overflow; NaN is not
            for k, j in np.ndindex(6, 3):
                _bounded(vectors[k, j], f"{'ab'[k // 3]}_doublets[{k % 3}] {('n1', 'n2', 'axis')[j]}", _VECTOR_LIMIT)
        n, frame = vectors[:, :2], np.array(self.a_axes + self.b_axes)
        deviations = np.column_stack([
            [d.alpha - self.alpha for d in doublets],
            np.linalg.norm(n, axis=2) - 1.0,
            np.einsum("ij,ij->i", n[:, 0], n[:, 1]) - np.cos(self.alpha),
            np.abs(n.sum(axis=1) / (2.0 * np.cos(self.alpha / 2.0)) - frame).max(axis=1),
            np.abs(vectors[:, 2] - frame).max(axis=1),
        ])
        faults = ~(np.abs(deviations) <= SPECTRAL_TOL)  # NaN is a fault too
        if faults.any():
            k, check = np.argwhere(faults)[0]  # the first faulty doublet, then its first fault
            side, i, d = "ab"[k // 3], k % 3, doublets[k]
            raise InvalidInputError(f"{side}_doublets[{i}] " + (
                f"has aperture {d.alpha}, not the geometry's {self.alpha}",
                f"n1 is not a unit vector: |n1| = {_shown(np.linalg.norm(d.n1))}",
                f"n2 is not a unit vector: |n2| = {_shown(np.linalg.norm(d.n2))}",
                f"has n1.n2 = {_shown(float(d.n1 @ d.n2))}, not cos(alpha) = {np.cos(self.alpha):.12f}",
                f"is not bisected by {side}_axes[{i}]",
                f"axis is not {side}_axes[{i}]",
            )[check])
        for k, v in enumerate(frame):
            unit_vector(v, f"{'ab'[k // 3]}_axes[{k % 3}]")
        for side, axes in (("a", frame[:3]), ("b", frame[3:])):
            if (np.abs((axes @ axes.T)[[0, 0, 1], [1, 2, 2]]) > SPECTRAL_TOL).any():
                raise InvalidInputError(f"{side}_axes must be orthonormal")

    def __reduce__(self) -> tuple:
        # A copy or an unpickled geometry is built again: read-only vectors, and terms compiled afresh.
        return EntanglementGeometry, (self.alpha, self.a_axes, self.b_axes, self.a_doublets, self.b_doublets)


def _validated_frame(frame: object, name: str) -> Array:
    """`frame` as a (3, 3) stack of unit axes, one per row; `EntanglementGeometry` checks that they are orthogonal."""
    axes = [unit_vector(v, f"{name}[{i}]") for i, v in enumerate(_sequence(frame, name, "3-vectors"))]
    if len(axes) != 3:
        raise InvalidInputError(f"{name} must contain exactly 3 axes")
    return np.stack(axes)


def make_entanglement_geometry(
    alpha: float,
    a_frame: object | None = None,
    b_frame: object | None = None,
) -> EntanglementGeometry:
    """Build the doublet layout for both sides; frames default to (x, y, z)."""
    alpha = _aperture(alpha)
    a_axes = np.eye(3) if a_frame is None else _validated_frame(a_frame, "a_frame")
    b_axes = a_axes if b_frame is None else _validated_frame(b_frame, "b_frame")
    axes = np.concatenate([a_axes, b_axes])
    n1, n2 = _doublets(axes, alpha)
    doublets = tuple(Doublet(n1=n1[k], n2=n2[k], axis=axes[k], alpha=alpha) for k in range(6))
    return EntanglementGeometry(
        alpha=alpha,
        a_axes=tuple(a_axes),  # type: ignore[arg-type]
        b_axes=tuple(b_axes),  # type: ignore[arg-type]
        a_doublets=doublets[:3],  # type: ignore[arg-type]
        b_doublets=doublets[3:],  # type: ignore[arg-type]
    )


def werner_state(eta: float) -> DensityMatrix:
    """Singlet fraction eta mixed with white noise; -1/3 <= eta <= 1."""
    eta = _real(eta, "eta")
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
    return u / _norm(u)
