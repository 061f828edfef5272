"""Dense complex operator primitives: states, projectors, and the small
matrix algebra everything else is built from.

Operators are plain numpy complex arrays.  Dimensions stay small (<= 64),
so no sparsity or blocking; correctness and exact contracts over speed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Array",
    "STRUCTURAL_TOL",
    "SPECTRAL_TOL",
    "MAX_DIM",
    "DensityMatrix",
    "Projector",
    "tensor_product",
    "anticommutator",
    "hermitian_eigen",
    "expectation",
    "partial_trace",
    "resolve_tolerance",
    "as_complex_matrix",
    "require_square",
]

from .errors import InvalidInputError

Array = np.ndarray

# Structural identities (hermiticity, trace, idempotence) hold to machine
# precision; spectral statements get a looser floor.
STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-10
MAX_DIM = 64


def as_complex_matrix(m: object, name: str = "matrix") -> Array:
    """Coerce to a 2-d complex ndarray, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] > MAX_DIM or a.shape[1] > MAX_DIM:
        raise InvalidInputError(f"{name} exceeds the supported dimension {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} is not finite")
    return a


def require_square(m: Array, name: str = "matrix") -> Array:
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    return m


def _close(a: Array, b: Array, atol: float) -> bool:
    """np.allclose(a, b, atol=atol) with numpy's default rtol of 1e-5.

    Equal to it whenever b is finite, which every caller guarantees
    (as_complex_matrix and unit_vector reject non-finite input); it skips
    isclose's broadcasting, errstate and NaN handling, which dominate on 2x2
    and 4x4 operands.
    """
    return bool((np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


def _kron(a: Array, b: Array) -> Array:
    """np.kron for 2-d arrays: the same products, bit for bit, without its
    generic n-d set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def tensor_product(a: Array, b: Array) -> Array:
    """Kronecker product with the first argument as the slow (outer) factor."""
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise InvalidInputError(f"tensor product exceeds dimension {MAX_DIM}")
    return _kron(a, b)


def anticommutator(a: Array, b: Array) -> Array:
    """ab + ba (no 1/2 factor)."""
    a = require_square(as_complex_matrix(a, "a"), "a")
    b = require_square(as_complex_matrix(b, "b"), "b")
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def hermitian_eigen(m: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and ascending
    and eigenvectors as orthonormal columns, so that
    m == V @ diag(w) @ V.conj().T within SPECTRAL_TOL.
    """
    m = require_square(as_complex_matrix(m, "m"), "m")
    if not _close(m, m.conj().T, STRUCTURAL_TOL):
        raise InvalidInputError("hermitian_eigen requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    return w, v


def expectation(state: "DensityMatrix | Array", op: Array) -> complex:
    """Tr(rho op), returned as a complex number."""
    rho = state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state, "state")
    op = as_complex_matrix(op, "op")
    if rho.shape != op.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {op.shape}")
    return complex(np.trace(rho @ op))


def partial_trace(m: Array, dims: tuple[int, ...], keep: int) -> Array:
    """Trace out all tensor slots except `keep` (slot 0 is the outer factor)."""
    m = require_square(as_complex_matrix(m, "m"), "m")
    total = int(np.prod(dims))
    if m.shape[0] != total:
        raise InvalidInputError(f"dims {dims} inconsistent with shape {m.shape}")
    if not (0 <= keep < len(dims)):
        raise InvalidInputError(f"keep index {keep} out of range for {len(dims)} slots")
    t = m.reshape(*dims, *dims)
    for slot in reversed([i for i in range(len(dims)) if i != keep]):
        t = np.trace(t, axis1=slot, axis2=slot + t.ndim // 2)
    return t


def resolve_tolerance() -> float:
    """Verdict tolerance, overridable through the PPLAB_TOL environment variable."""
    raw = os.environ.get("PPLAB_TOL")
    if raw is None:
        return SPECTRAL_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise InvalidInputError(f"PPLAB_TOL must be a float, got {raw!r}")
    if tol <= 0:
        raise InvalidInputError(f"PPLAB_TOL must be positive, got {tol}")
    return tol


def _check_density(m: Array) -> Array:
    require_square(m, "density matrix")
    if not _close(m, m.conj().T, STRUCTURAL_TOL):
        raise InvalidInputError("density matrix invariant violated: Hermitian")
    if abs(np.trace(m) - 1.0) > STRUCTURAL_TOL:
        raise InvalidInputError("density matrix invariant violated: trace = 1")
    w = np.linalg.eigvalsh(m)
    if w[0] < -SPECTRAL_TOL:
        raise InvalidInputError(
            f"density matrix invariant violated: positive semidefinite (min eig {w[0]:.3e})"
        )
    return m


def _check_projector(m: Array) -> int:
    require_square(m, "projector")
    if not _close(m, m.conj().T, STRUCTURAL_TOL):
        raise InvalidInputError("projector invariant violated: Hermitian")
    if not _close(m @ m, m, SPECTRAL_TOL):
        raise InvalidInputError("projector invariant violated: idempotent")
    trace = np.trace(m).real
    rank = int(round(trace))
    if rank < 1:
        raise InvalidInputError("projector invariant violated: rank >= 1")
    if abs(trace - rank) > SPECTRAL_TOL:
        raise InvalidInputError("projector invariant violated: trace = rank")
    return rank


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, PSD within tolerance."""

    matrix: Array

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, "density matrix")
        _check_density(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Projector:
    """Validated orthogonal projector; rank inferred from the trace."""

    matrix: Array
    rank: int = field(default=0)

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, "projector")
        rank = _check_projector(m)
        if self.rank and self.rank != rank:
            raise InvalidInputError(f"declared rank {self.rank} != trace rank {rank}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
