"""Weak values under pre/post-selection and their link to pseudo-probabilities.

The central identity: the expectation of an ordered projector product in a
state rho factorizes as a Born probability for the leading projector times
the real part of a weak value of the remaining product, evaluated between
rho (pre) and the normalized leading projector (post).  Negative
pseudo-probabilities are therefore anomalous weak values in disguise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FactorizationUndefinedError,
    InvalidInputError,
    PostSelectionImpossibleError,
)
from .operator_core import (
    Array,
    DensityMatrix,
    Projector,
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    _close,
    as_complex_matrix,
    require_square,
)

__all__ = [
    "WeakValueReport",
    "weak_value",
    "real_weak_product",
    "hj_decompose",
    "pp_weak_factorization",
]

OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class WeakValueReport:
    """Weak value with enough context to judge anomaly.

    spectrum_bounds is (nan, nan) for non-Hermitian operators; anomaly is then
    decided by the imaginary part alone.
    """

    value: complex
    pre_state: DensityMatrix
    post_state: DensityMatrix
    operator_label: str
    spectrum_bounds: tuple[float, float]
    anomalous: bool
    overlap: float


def _coerce_state(state: object, name: str) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, Projector):
        return DensityMatrix(state.matrix / state.rank)
    return DensityMatrix(as_complex_matrix(state, name))


def weak_value(
    a: Array,
    pre: object,
    post: object,
    operator_label: str = "operator",
) -> WeakValueReport:
    """Tr(rho2 A rho1) / Tr(rho2 rho1) for pre-selection rho1, post-selection rho2."""
    op = require_square(as_complex_matrix(a, "a"), "a")
    rho1 = _coerce_state(pre, "pre")
    rho2 = _coerce_state(post, "post")
    if not (op.shape[0] == rho1.dim == rho2.dim):
        raise InvalidInputError(
            f"dimension mismatch: op {op.shape[0]}, pre {rho1.dim}, post {rho2.dim}"
        )
    overlap = float(np.real(np.trace(rho2.matrix @ rho1.matrix)))
    if abs(overlap) <= OVERLAP_FLOOR:
        raise PostSelectionImpossibleError(
            f"pre/post overlap {overlap:.3e} vanishes; post-selection impossible"
        )
    value = complex(np.trace(rho2.matrix @ op @ rho1.matrix) / overlap)
    if _close(op, op.conj().T, SPECTRAL_TOL):
        w = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
        bounds = (float(w[0]), float(w[-1]))
        anomalous = bool(
            value.real < bounds[0] - SPECTRAL_TOL
            or value.real > bounds[1] + SPECTRAL_TOL
            or abs(value.imag) > SPECTRAL_TOL
        )
    else:
        bounds = (math.nan, math.nan)
        anomalous = bool(abs(value.imag) > SPECTRAL_TOL)
    return WeakValueReport(
        value=value,
        pre_state=rho1,
        post_state=rho2,
        operator_label=operator_label,
        spectrum_bounds=bounds,
        anomalous=anomalous,
        overlap=overlap,
    )


def real_weak_product(factors: object, pre: object, post: object) -> float:
    """Real part of the weak value of an ordered projector product."""
    mats = [f.matrix if isinstance(f, Projector) else as_complex_matrix(f, "factor") for f in factors]  # type: ignore[arg-type]
    if not mats:
        raise InvalidInputError("need at least one factor")
    prod = mats[0].copy()
    for m in mats[1:]:
        prod = prod @ m
    rho1 = _coerce_state(pre, "pre")
    rho2 = _coerce_state(post, "post")
    overlap = float(np.real(np.trace(rho2.matrix @ rho1.matrix)))
    if abs(overlap) <= OVERLAP_FLOOR:
        raise PostSelectionImpossibleError(
            f"pre/post overlap {overlap:.3e} vanishes; post-selection impossible"
        )
    return float(np.real(np.trace(rho2.matrix @ prod @ rho1.matrix) / overlap))


def hj_decompose(product: Array) -> tuple[Array, Array]:
    """Split an operator product P into Hermitian parts (H, J), P = H - iJ.

    H = (P + P^dag)/2 carries the pseudo-probability; J = i(P - P^dag)/2
    carries the imaginary-part physics.  Both returned matrices are Hermitian.
    """
    p = require_square(as_complex_matrix(product, "product"), "product")
    h = 0.5 * (p + p.conj().T)
    j = 0.5j * (p - p.conj().T)
    return h, j


def pp_weak_factorization(state: object, factors: object) -> dict[str, float]:
    """Factor a pseudo-probability into Born part x real weak part.

    For factors (pi_1, ..., pi_N) and state rho:
        <PP>_rho = Tr(rho pi_1) * Re w,
    where w is the weak value of pi_2 ... pi_N with pre-selection rho and
    post-selection pi_1 / rank(pi_1).  identity_residual reports how exactly
    the reconstruction holds (machine-zero by the cyclic trace).
    """
    rho = _coerce_state(state, "state")
    fs = [f if isinstance(f, Projector) else Projector(as_complex_matrix(f, "factor")) for f in factors]  # type: ignore[arg-type]
    if len(fs) < 2:
        raise InvalidInputError(f"need at least 2 factors, got {len(fs)}")
    if any(f.dim != rho.dim for f in fs):
        raise InvalidInputError("factor dimension mismatch with state")
    prod = fs[0].matrix.copy()
    for f in fs[1:]:
        prod = prod @ f.matrix
    pseudo = float(np.real(np.trace(rho.matrix @ (0.5 * (prod + prod.conj().T)))))
    born = float(np.real(np.trace(rho.matrix @ fs[0].matrix)))
    if born <= max(STRUCTURAL_TOL, fs[0].rank * OVERLAP_FLOOR):
        raise FactorizationUndefinedError(
            f"leading Born factor {born:.3e} vanishes; pseudo-probability {pseudo:.6e}"
            " remains directly computable"
        )
    post = DensityMatrix(fs[0].matrix / fs[0].rank)
    weak = real_weak_product(fs[1:], rho, post)
    return {
        "pseudo_probability": pseudo,
        "born_factor": born,
        "weak_factor": weak,
        "identity_residual": abs(pseudo - born * weak),
    }
