"""Dense complex operator primitives: states, projectors, and the small
matrix algebra everything else is built from.

Operators are plain numpy complex arrays.  Dimensions stay small (<= 64),
so no sparsity or blocking; correctness and exact contracts over speed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

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
# Entry modulus above which a state or projector is refused before any check can overflow; an
# accepted one has |m_ij| <= its largest eigenvalue < 1 + 64 SPECTRAL_TOL, far below it.
_ENTRY_LIMIT = 2.0
# Entry modulus above which an operand of the public operator functions is refused before any arithmetic:
# a product of two entries is below 2e300 per complex part, and a sum of MAX_DIM**2 of them (Tr(rho op), the
# largest sum formed) or an eigenvalue (below MAX_DIM * 1e150) stays far inside the float range.
_OPERAND_LIMIT = 1e150


def as_complex_matrix(m: object, name: str = "matrix") -> Array:
    """Coerce to a 2-d complex ndarray, rejecting anything else."""
    try:
        a = np.asarray(_numeric(m), dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} is not a numeric matrix") from None
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if 0 in a.shape:
        raise InvalidInputError(f"{name} must not be empty, got shape {a.shape}")
    if a.shape[0] > MAX_DIM or a.shape[1] > MAX_DIM:
        raise InvalidInputError(f"{name} exceeds the supported dimension {MAX_DIM}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} is not finite")
    return a


def _complex_parts(re: object, im: object) -> Array:
    """re + i im with no arithmetic on either part: a non-finite part reaches the finiteness
    check without a numpy warning.  TypeError or ValueError if a part is not a real array."""
    re, im = np.broadcast_arrays(np.asarray(_numeric(re), dtype=float), np.asarray(_numeric(im), dtype=float))
    m = re.astype(complex)
    m.imag = im
    return m


def _sequence(x: object, name: str, of: str, item: Callable | None = None) -> list:
    """`x` as a list, `item` applied to each entry.  A non-iterable `x` or an entry
    `item` cannot convert (TypeError, ValueError, missing key) raises "<name> must be
    an ordered collection of <of>"; an InvalidInputError from `item` passes through."""
    try:
        return [item(v) for v in x] if item else list(x)  # type: ignore[attr-defined]
    except (TypeError, ValueError, LookupError):
        raise InvalidInputError(f"{name} must be an ordered collection of {of}") from None


def _integer(x: object, name: str) -> int:
    """`x` as an int; a bool, or anything else that is not an integer, raises "<name> must be an integer"."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _real(x: object, name: str) -> float:
    """`x` as a float; a string, a numpy complex scalar (float() would drop its imaginary part with a
    warning), or anything float() refuses, a Python complex too, raises "<name> must be a real number"."""
    if not isinstance(x, (str, bytes, np.complexfloating)):
        try:
            return float(x)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
    raise InvalidInputError(f"{name} must be a real number, got {x!r}")


def _finite(x: object, name: str) -> float:
    """`x` as a finite float, refused as in `_real` or with "<name> must be finite"."""
    x = _real(x, name)
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x}")
    return x


def _numeric(x: object) -> Array:
    """np.asarray(x); TypeError if it holds str or bytes entries, which numpy would parse as numbers."""
    a = np.asarray(x)
    if a.dtype.kind in "US" or a.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in a.flat):
        raise TypeError("text values")
    return a


def _real_array(x: object) -> Array:
    """`x` as a float array; TypeError or ValueError unless it holds real numbers, so a
    complex array is refused rather than cast with a warning that drops its imaginary part,
    and text is refused rather than parsed."""
    a = _numeric(x)
    if a.dtype.char != "d":
        if a.dtype.kind == "c":
            raise TypeError("complex values")
        a = a.astype(float)
    return a


def _real_item(x: object) -> float:
    """`x` as a float through `_real_array`, so a complex number raises TypeError instead of losing its imaginary part."""
    return float(_real_array(x))


def _sign(outcome: object) -> int:
    """`outcome` as the int +1 or -1; anything else, an array too, raises "outcome must be +1 or -1"."""
    if getattr(outcome, "ndim", 0) or outcome not in (+1, -1):
        raise InvalidInputError(f"outcome must be +1 or -1, got {outcome!r}")
    return +1 if outcome == 1 else -1


def require_square(m: Array, name: str = "matrix") -> Array:
    """`m` if it is an array whose last two axes are equal: one square matrix or a stack of them."""
    if not isinstance(m, np.ndarray):
        raise InvalidInputError(f"{name} must be a numpy array, got {type(m).__name__}")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
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


def _any(flags: Array) -> bool:
    """flags.any(), but a single check's numpy bool is read without a costly 0-d reduction."""
    return bool(flags.any() if flags.ndim else flags)


def _kron(a: Array, b: Array) -> Array:
    """np.kron of two matrices, or of each pair of broadcast (..., m, n) stacks:
    the same products, bit for bit, without its generic n-d set-up."""
    m = a[..., :, None, :, None] * b[..., None, :, None, :]
    return m.reshape(*m.shape[:-4], m.shape[-4] * m.shape[-3], m.shape[-2] * m.shape[-1])


def tensor_product(a: Array, b: Array) -> Array:
    """Kronecker product with the first argument as the slow (outer) factor."""
    a = _bounded(as_complex_matrix(a, "a"), "a", _OPERAND_LIMIT)
    b = _bounded(as_complex_matrix(b, "b"), "b", _OPERAND_LIMIT)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise InvalidInputError(f"tensor product exceeds dimension {MAX_DIM}")
    return _kron(a, b)


def anticommutator(a: Array, b: Array) -> Array:
    """ab + ba (no 1/2 factor)."""
    a = _bounded(require_square(as_complex_matrix(a, "a"), "a"), "a", _OPERAND_LIMIT)
    b = _bounded(require_square(as_complex_matrix(b, "b"), "b"), "b", _OPERAND_LIMIT)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def hermitian_eigen(m: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and ascending
    and eigenvectors as orthonormal columns, so that
    m == V @ diag(w) @ V.conj().T within SPECTRAL_TOL.
    """
    m = _bounded(require_square(as_complex_matrix(m, "m"), "m"), "m", _OPERAND_LIMIT)
    if not _close(m, m.conj().T, STRUCTURAL_TOL):
        raise InvalidInputError("hermitian_eigen requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    return w, v


def expectation(state: "DensityMatrix | Array", op: Array) -> complex:
    """Tr(rho op), returned as a complex number."""
    rho = state.matrix if isinstance(state, DensityMatrix) else as_complex_matrix(state, "state")
    rho, op = _bounded(rho, "state", _OPERAND_LIMIT), _bounded(as_complex_matrix(op, "op"), "op", _OPERAND_LIMIT)
    if rho.shape != op.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {op.shape}")
    return complex(np.trace(rho @ op))


def _expectations(rho: Array, ops: object) -> float | Array:
    """Re Tr(rho X) for one operator X, or for every matrix of a (..., d, d) stack, in one contraction."""
    x = np.asarray(ops)
    values = (x.reshape(-1, rho.size) @ rho.T.reshape(-1)).real
    return float(values[0]) if x.ndim == 2 else values.reshape(x.shape[:-2])


def partial_trace(m: Array, dims: tuple[int, ...], keep: int) -> Array:
    """Trace out all tensor slots except `keep` (slot 0 is the outer factor)."""
    m = _bounded(require_square(as_complex_matrix(m, "m"), "m"), "m", _OPERAND_LIMIT)
    dims = tuple(_sequence(dims, "dims", "positive integers"))
    try:
        positive = all(_integer(d, "dims") > 0 for d in dims)
    except InvalidInputError:
        positive = False
    if not positive:
        raise InvalidInputError(f"dims must be an ordered collection of positive integers, got {dims!r}")
    keep = _integer(keep, "keep")
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


def _bounded(m: Array, name: str, limit: float) -> Array:
    """`m` if no entry has modulus above `limit`, checked before any arithmetic on it."""
    if (np.abs(m) > limit).any():
        raise InvalidInputError(f"{name} has an entry of modulus above {limit:.3g}")
    return m


def _check_density(m: Array) -> Array:
    """`m` if it is a density matrix, or every matrix of a (..., d, d) stack is."""
    require_square(m, "density matrix")
    if not _close(m, m.conj().swapaxes(-1, -2), STRUCTURAL_TOL):
        raise InvalidInputError("density matrix invariant violated: Hermitian")
    if _any(abs(m.trace(axis1=-2, axis2=-1) - 1.0) > STRUCTURAL_TOL):
        raise InvalidInputError("density matrix invariant violated: trace = 1")
    low = np.linalg.eigvalsh(m).T[0]  # smallest eigenvalue of each matrix, a scalar for one
    if _any(low < -SPECTRAL_TOL):
        raise InvalidInputError(
            f"density matrix invariant violated: positive semidefinite (min eig {low.min():.3e})"
        )
    return m


def _check_projector(m: Array) -> int | Array:
    """Rank of the projector `m`, or the ranks of a (..., d, d) stack of them."""
    require_square(m, "projector")
    if not _close(m, m.conj().swapaxes(-1, -2), STRUCTURAL_TOL):
        raise InvalidInputError("projector invariant violated: Hermitian")
    if not _close(m @ m, m, SPECTRAL_TOL):
        raise InvalidInputError("projector invariant violated: idempotent")
    trace = m.trace(axis1=-2, axis2=-1).real
    rank = np.rint(trace)
    if _any(rank < 1):
        raise InvalidInputError("projector invariant violated: rank >= 1")
    if _any(abs(trace - rank) > SPECTRAL_TOL):
        raise InvalidInputError("projector invariant violated: trace = rank")
    return int(rank) if m.ndim == 2 else rank.astype(int)


def _outcome_projectors(ops: object) -> Array:
    """(I + A)/2 and (I - A)/2 for each dichotomic A of an (m, d, d) stack, as an (m, 2, d, d)
    stack indexed [operator, (+, -)]; unchecked, as A comes from an ObservableSpec or a unit axis."""
    a = np.asarray(ops)
    return 0.5 * (np.eye(a.shape[-1]) + np.stack([a, -a], axis=1))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, PSD within tolerance.

    The matrix is kept as a read-only copy of the one passed in, so a state never
    changes: assigning into `state.matrix` raises ValueError, and what the library
    derives from a state (its Pauli table, its report digest, its evaluation of the
    last compiled term stack it met) is cached in `_derived` and cannot go stale.
    """

    matrix: Array
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(as_complex_matrix(self.matrix, "density matrix"))  # a copy no caller holds
        _check_density(_bounded(m, "density matrix", _ENTRY_LIMIT))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self) -> tuple:
        # A copy or an unpickled state is built again from its matrix: read-only, with an empty cache.
        return DensityMatrix, (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_state(state: object) -> DensityMatrix:
    """`state` if it is a DensityMatrix; anything else raises "state must be a DensityMatrix"."""
    if not isinstance(state, DensityMatrix):
        raise InvalidInputError(f"state must be a DensityMatrix, got {type(state).__name__}")
    return state


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated orthogonal projector; rank inferred from the trace.  The matrix is kept
    as a read-only copy of the one passed in, so assigning into it raises ValueError."""

    matrix: Array
    rank: int = field(default=0)

    def __post_init__(self) -> None:
        m = np.array(as_complex_matrix(self.matrix, "projector"))  # a copy no caller holds
        rank = _check_projector(_bounded(m, "projector", _ENTRY_LIMIT))
        declared = _integer(self.rank, "rank")
        if declared and declared != rank:
            raise InvalidInputError(f"declared rank {declared} != trace rank {rank}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", rank)

    def __reduce__(self) -> tuple:
        return Projector, (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
