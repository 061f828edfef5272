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
from typing import NamedTuple

import numpy as np

from .errors import (
    FactorizationUndefinedError,
    InvalidInputError,
    PostSelectionImpossibleError,
)
from .operator_core import (
    Array,
    DensityMatrix,
    MAX_DIM,
    Projector,
    SPECTRAL_TOL,
    _bounded,
    _close,
    _expectations,
    _sequence,
    as_complex_matrix,
    require_square,
)
from .pseudoprojection import _coerce_factors, _herm, _ordered_products, _ordering_sum

__all__ = [
    "WeakValueReport",
    "weak_value",
    "real_weak_product",
    "hj_decompose",
    "pp_weak_factorization",
]

OVERLAP_FLOOR = 1e-12
# Largest entry modulus of a weak value's operator: every product `weak_value` forms, and its
# division by an overlap above OVERLAP_FLOOR, then stays inside the float range.
MAX_ENTRY = OVERLAP_FLOOR * np.finfo(float).max / MAX_DIM**2


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


def _overlap(rho1: Array, rho2: Array) -> float:
    """Tr(rho2 rho1), the post-selection probability; it must exceed OVERLAP_FLOOR."""
    overlap = float(np.trace(rho2 @ rho1).real)
    if overlap <= OVERLAP_FLOOR:
        raise PostSelectionImpossibleError(
            f"pre/post overlap {overlap:.3e} vanishes; post-selection impossible"
        )
    return overlap


def _post_select(op: Array, pre: object, post: object) -> tuple[DensityMatrix, DensityMatrix, float]:
    """Coerced (pre, post) states matching the square `op`, with their overlap."""
    rho1 = _coerce_state(pre, "pre")
    rho2 = _coerce_state(post, "post")
    if not (op.shape[0] == rho1.dim == rho2.dim):
        raise InvalidInputError(
            f"dimension mismatch: op {op.shape[0]}, pre {rho1.dim}, post {rho2.dim}"
        )
    return rho1, rho2, _overlap(rho1.matrix, rho2.matrix)


def weak_value(
    a: Array,
    pre: object,
    post: object,
    operator_label: str = "operator",
) -> WeakValueReport:
    """Tr(rho2 A rho1) / Tr(rho2 rho1) for pre-selection rho1, post-selection rho2."""
    op = _bounded(require_square(as_complex_matrix(a, "a"), "a"), "a", MAX_ENTRY)
    rho1, rho2, overlap = _post_select(op, pre, post)
    value = complex(np.trace(rho2.matrix @ op @ rho1.matrix) / overlap)
    if _close(op, op.conj().T, SPECTRAL_TOL):
        w = np.linalg.eigvalsh(_herm(op))
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


def _contraction(f: object) -> Array:
    """A Projector's matrix, or `f` as a matrix with no entry of modulus and no spectral norm above 1."""
    if isinstance(f, Projector):
        return f.matrix
    m = _bounded(as_complex_matrix(f, "factor"), "factor", 1 + SPECTRAL_TOL)  # bounded entries keep the SVD finite
    norm = np.linalg.svd(m, compute_uv=False).max(initial=0.0)
    if norm > 1 + SPECTRAL_TOL:
        raise InvalidInputError(f"factor has spectral norm {norm:.6g}, above 1")
    return m


def real_weak_product(factors: object, pre: object, post: object) -> float:
    """Real part of the weak value of an ordered projector product.  A factor may be any matrix
    with no entry of modulus and no spectral norm above 1, as a projector's: no product overflows."""
    mats = tuple(_sequence(factors, "factors", "projectors", _contraction))
    if not mats:
        raise InvalidInputError("need at least one factor")
    if {m.shape for m in mats} != {(len(mats[0]),) * 2}:
        raise InvalidInputError(f"dimension mismatch: factor shapes {[m.shape for m in mats]}")
    (prod,) = _ordered_products(mats, [range(len(mats))])
    rho1, rho2, overlap = _post_select(prod, pre, post)
    return float(np.real(np.trace(rho2.matrix @ prod @ rho1.matrix) / overlap))


class _Terms(NamedTuple):
    """The state-independent half of Born x weak for n terms."""

    labels: tuple[str, ...]
    coefficients: tuple[float, ...]
    groups: tuple[int, ...]
    weak: Array  # (n,) bool: the term has a rest
    floors: Array  # (n,) rank * OVERLAP_FLOOR, the Born factor a weak value needs
    ops: Array  # (2n, d, d): every lead, then every lead @ rest (times the identity without a rest)


def _compile_terms(leads: Array, ranks: object, rests: Array, has_rest: object,
                   labels: tuple[str, ...], coefficients: tuple[float, ...], groups: tuple[int, ...]) -> _Terms:
    """Compile n terms, each for <(1/2)(lead rest + h.c.)>, into the stack `_born_weak`
    contracts with a state: the (n, d, d) stacks `leads` and `rests`, the leads' `ranks`
    and the (n,) bool mask `has_rest`.  A plain Born term has the identity as its rest and
    no has_rest: its weak part is exactly 1.  Each lead/rank must be a state, as for the
    projectors the library builds; it is not checked here."""
    floors = np.asarray(ranks, dtype=float) * OVERLAP_FLOOR
    return _Terms(labels, coefficients, groups, np.asarray(has_rest), floors, np.concatenate([leads, leads @ rests]))


def _born_weak(terms: _Terms, rho: Array) -> tuple[list[float], list[float | None]]:
    """Born factors Re Tr(rho lead) of every compiled term and real weak values Re Tr(rho lead rest)
    / Re Tr(rho lead), all from one contraction with the state `rho`; None unless the Born factor
    is above rank * OVERLAP_FLOOR, where the post-selection overlap born/rank would be refused."""
    values = _expectations(rho, terms.ops)
    n = len(terms.labels)
    born = values[:n]
    above = born > terms.floors
    weak = np.where(terms.weak, values[n:] / np.where(above, born, 1.0), 1.0)
    kept = above | ~terms.weak
    return born.tolist(), [w if k else None for w, k in zip(weak.tolist(), kept.tolist())]


def hj_decompose(product: Array) -> tuple[Array, Array]:
    """Split an operator product P into Hermitian parts (H, J), P = H - iJ.

    H = (P + P^dag)/2 carries the pseudo-probability; J = i(P - P^dag)/2
    carries the imaginary-part physics.  Both returned matrices are Hermitian,
    and finite for every finite P: each half is taken before the sum.
    """
    p = require_square(as_complex_matrix(product, "product"), "product")
    h = 0.5 * p + 0.5 * p.conj().T
    j = 0.5j * p - 0.5j * p.conj().T
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
    fs = _coerce_factors(factors)
    if fs[0].dim != rho.dim:
        raise InvalidInputError(f"dimension mismatch: state {rho.dim}, factors {fs[0].dim}")
    mats = tuple(f.matrix for f in fs)
    pseudo = _expectations(rho.matrix, _ordering_sum(mats, [tuple(range(len(mats)))], [1.0]))
    (rest,) = _ordered_products(mats, [range(1, len(mats))])
    _coerce_state(fs[0], "factors")  # the post-selection pi_1 / rank(pi_1) must be a state
    terms = _compile_terms(mats[0][None], (fs[0].rank,), rest[None], (True,), ("",), (1.0,), (0,))
    (born,), (weak,) = _born_weak(terms, rho.matrix)
    if weak is None:
        raise FactorizationUndefinedError(
            f"leading Born factor {born:.3e} vanishes; pseudo-probability {pseudo:.6e}"
            " remains directly computable"
        )
    return {
        "pseudo_probability": pseudo,
        "born_factor": born,
        "weak_factor": weak,
        "identity_residual": abs(pseudo - born * weak),
    }
