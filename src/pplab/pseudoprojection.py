"""Pseudo-projection operators: Hermitian stand-ins for classical indicator
functions of joint events over non-commuting projectors.

A pseudo-projection is built from an ordered product of projectors and made
Hermitian by averaging with its adjoint; symmetrized and convex variants
average over factor orderings.  None of these are idempotent unless the
factors commute, and their spectra may dip below zero, which is the entire
point: a negative expectation value is a nonclassicality certificate.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .operator_core import Array, Projector, as_complex_matrix, hermitian_eigen

__all__ = [
    "PseudoProjection",
    "unit_pp",
    "symmetrized_pp",
    "convex_pp",
    "conjunction_pp",
    "disjunction_pp",
    "min_eigen_certificate",
    "distinct_orderings",
]


@dataclass(frozen=True)
class PseudoProjection:
    """Hermitian joint-event operator with its factor list and prescription."""

    matrix: Array
    factors: tuple[Projector, ...]
    prescription: str
    weights: tuple[float, ...] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _coerce_factors(factors: object, minimum: int = 2) -> tuple[Projector, ...]:
    try:
        items = list(factors)  # type: ignore[arg-type]
    except TypeError:
        raise InvalidInputError("factors must be an ordered collection of projectors")
    out: list[Projector] = []
    for f in items:
        out.append(f if isinstance(f, Projector) else Projector(as_complex_matrix(f, "factor")))
    if len(out) < minimum:
        raise InvalidInputError(f"need at least {minimum} factors, got {len(out)}")
    dims = {p.dim for p in out}
    if len(dims) != 1:
        raise InvalidInputError(f"factor dimension mismatch: {sorted(dims)}")
    return tuple(out)


def _ordered_product(mats: tuple[Array, ...], order: tuple[int, ...]) -> Array:
    prod = mats[order[0]].copy()
    for i in order[1:]:
        prod = prod @ mats[i]
    return prod


def distinct_orderings(n: int) -> list[tuple[int, ...]]:
    """Factor orderings modulo reversal.

    Hermitization identifies a product with its reverse, so orderings are
    deduplicated by requiring first index < last index; n!/2 survive for
    n >= 2.
    """
    if n < 2:
        raise InvalidInputError(f"orderings need n >= 2, got {n}")
    return [p for p in itertools.permutations(range(n)) if p[0] < p[-1]]


def _convex_weights(n: int, weights: object | None) -> Array:
    """Validated weights over `distinct_orderings(n)`; None means uniform."""
    count = math.factorial(n) // 2
    if weights is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise InvalidInputError(
            f"weights must have length {count} (one per ordering), got {w.shape}"
        )
    if np.any(w < -1e-14) or abs(w.sum() - 1.0) > 1e-10:
        raise InvalidInputError("weights must be non-negative and sum to 1")
    return w


def unit_pp(factors: object) -> PseudoProjection:
    """(1/2)(pi_1 ... pi_N + h.c.) for one fixed factor ordering."""
    fs = _coerce_factors(factors)
    mats = tuple(p.matrix for p in fs)
    prod = _ordered_product(mats, tuple(range(len(fs))))
    return PseudoProjection(0.5 * (prod + prod.conj().T), fs, "unit")


def symmetrized_pp(factors: object) -> PseudoProjection:
    """Equal-weight average of unit pseudo-projections over all orderings."""
    fs = _coerce_factors(factors)
    mats = tuple(p.matrix for p in fs)
    orders = distinct_orderings(len(fs))
    acc = np.zeros_like(mats[0])
    for order in orders:
        prod = _ordered_product(mats, order)
        acc = acc + 0.5 * (prod + prod.conj().T)
    return PseudoProjection(acc / len(orders), fs, "symmetrized")


def convex_pp(factors: object, weights: object | None = None) -> PseudoProjection:
    """Convex mixture of the ordering-resolved unit pseudo-projections.

    `weights` must match the distinct-ordering count (n!/2), be non-negative,
    and sum to 1; omitted weights reproduce the symmetrized prescription.
    """
    fs = _coerce_factors(factors)
    mats = tuple(p.matrix for p in fs)
    orders = distinct_orderings(len(fs))
    w = _convex_weights(len(fs), weights)
    acc = np.zeros_like(mats[0])
    for wi, order in zip(w, orders):
        prod = _ordered_product(mats, order)
        acc = acc + wi * 0.5 * (prod + prod.conj().T)
    return PseudoProjection(acc, fs, "convex", weights=tuple(float(x) for x in w))


# Subset moments.  Stacks are indexed by bit mask: entry `mask` belongs to the
# subset T = {j : bit j of mask is set} of the operators, entry 0 is the
# identity.  Expanding each factor (I + s_j A_j)/2 of a pseudo-projection turns
# the whole family of outcome tables into these 2^k moments.

# Orderings are batched in chunks of this many operator entries, which keeps
# the convex stack for k = 8 (20160 orderings) within a few MB.
_CONVEX_CHUNK_ENTRIES = 1 << 16


def _herm(stack: Array) -> Array:
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=None)
def _symmetrization_plan(k: int) -> tuple[tuple[Array, Array, Array], ...]:
    """Per subset size r: the masks of size r, each with its r (member, rest) pairs."""
    plan = []
    for r in range(1, k + 1):
        targets = [mask for mask in range(1 << k) if mask.bit_count() == r]
        members = [[j for j in range(k) if mask >> j & 1] for mask in targets]
        rests = [[mask ^ (1 << j) for j in row] for mask, row in zip(targets, members)]
        plan.append((np.array(targets), np.array(members), np.array(rests)))
    return tuple(plan)


@functools.lru_cache(maxsize=None)
def _ordering_array(k: int) -> Array:
    return np.array(distinct_orderings(k))


def _ordered_moments(mats: object, prescription: str, weights: object | None = None) -> Array:
    """Moments M_T of every subset T of the k >= 1 square `mats`, as a
    (2^k, d, d) stack; callers bound k.

    unit: Herm(A_t1 ... A_tm) with t ascending, one right-multiplication per
    subset.  symmetrized: the average over all orderings of T, by the
    recursion M_T = (1/|T|) sum_{i in T} A_i M_{T - {i}}, which is O(k 2^k)
    products.  convex: sum over the orderings of all k operators of
    w_order Herm(product of T in that order), from per-ordering prefix
    products; `weights` are validated as in `convex_pp`.  A single operator
    has no orderings: every prescription gives (I, Herm A) and `weights` is
    not read.
    """
    if prescription not in ("unit", "symmetrized", "convex"):
        raise InvalidInputError(f"unknown prescription {prescription!r}")
    a = np.asarray(mats, dtype=complex)
    k, d = a.shape[0], a.shape[-1]
    out = np.empty((1 << k, d, d), dtype=complex)
    out[0] = np.eye(d)
    if prescription == "unit" or k == 1:
        for j in range(k):
            out[1 << j : 2 << j] = out[: 1 << j] @ a[j]
        return _herm(out)
    if prescription == "symmetrized":
        for r, (targets, members, rests) in enumerate(_symmetrization_plan(k), start=1):
            out[targets] = (a[members] @ out[rests]).sum(axis=1) / r
        return out
    w = _convex_weights(k, weights)
    orders = _ordering_array(k)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    out[:] = 0.0
    chunk = max(1, _CONVEX_CHUNK_ENTRIES // (d * d << k))
    for lo in range(0, len(orders), chunk):
        block = orders[lo : lo + chunk]
        # Prefix stack per ordering: slot bit p stands for operator block[:, p].
        prefix = np.empty((len(block), 1 << k, d, d), dtype=complex)
        prefix[:, 0] = np.eye(d)
        for p in range(k):
            prefix[:, 1 << p : 2 << p] = prefix[:, : 1 << p] @ a[block[:, p]][:, None]
        slots = (1 << np.argsort(block, axis=1)) @ bits.T
        by_subset = prefix[np.arange(len(block))[:, None], slots]
        out += np.einsum("s,s...->...", w[lo : lo + chunk], by_subset)
    return _herm(out)


def conjunction_pp(factors: object) -> PseudoProjection:
    """Right-nested half-anticommutator conjunction.

    For factors (f_1, ..., f_N) this is (1/2){f_1, (1/2){f_2, ...}}, nesting
    from the right.  Entries may be Projector or PseudoProjection; the stored
    factor list is the flattened projector sequence.  Distinct from `unit_pp`
    for three or more factors.
    """
    try:
        items = list(factors)  # type: ignore[arg-type]
    except TypeError:
        raise InvalidInputError("factors must be an ordered collection")
    if len(items) < 2:
        raise InvalidInputError(f"need at least 2 factors, got {len(items)}")
    mats: list[Array] = []
    flat: list[Projector] = []
    for f in items:
        if isinstance(f, PseudoProjection):
            mats.append(f.matrix)
            flat.extend(f.factors)
        elif isinstance(f, Projector):
            mats.append(f.matrix)
            flat.append(f)
        else:
            p = Projector(as_complex_matrix(f, "factor"))
            mats.append(p.matrix)
            flat.append(p)
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise InvalidInputError(f"factor dimension mismatch: {sorted(dims)}")
    acc = mats[-1]
    for m in reversed(mats[:-1]):
        acc = 0.5 * (m @ acc + acc @ m)
    return PseudoProjection(acc, tuple(flat), "nested")


def disjunction_pp(pa: object, pb: object) -> PseudoProjection:
    """Inclusion-exclusion disjunction: pi_a + pi_b - (1/2){pi_a, pi_b}."""
    fs = _coerce_factors([pa, pb])
    a, b = fs[0].matrix, fs[1].matrix
    m = a + b - 0.5 * (a @ b + b @ a)
    return PseudoProjection(m, fs, "disjunction")


def min_eigen_certificate(pp: PseudoProjection | Array) -> tuple[float, Array]:
    """Smallest eigenvalue and its normalized eigenvector.

    A strictly negative minimum certifies that the operator cannot be a
    classical indicator; the witness vector realizes the negative expectation.
    """
    m = pp.matrix if isinstance(pp, PseudoProjection) else as_complex_matrix(pp, "pp")
    w, v = hermitian_eigen(m)
    return float(w[0]), v[:, 0]
