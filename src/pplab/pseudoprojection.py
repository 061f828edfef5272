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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .operator_core import SPECTRAL_TOL, Array, Projector, _integer, _real_array, _sequence, as_complex_matrix, hermitian_eigen

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

PRESCRIPTIONS = ("unit", "symmetrized", "convex")
# Orderings are batched in chunks of this many operator entries, which keeps
# an ordering stack for 8 factors (20160 orderings) within a few MB.
_CONVEX_CHUNK_ENTRIES = 1 << 16
# Most observables of a scheme, and most factors an ordering average takes (8!/2 = 20160 orderings).
MAX_OBSERVABLES = 8
_UNEQUAL_GROUPS = "convex weights require all multi-observable groups to share one size"


@dataclass(frozen=True, eq=False)
class PseudoProjection:
    """Hermitian joint-event operator with its factor list and prescription."""

    matrix: Array
    factors: tuple[Projector, ...]
    prescription: str
    weights: tuple[float, ...] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _projector(f: object) -> Projector:
    return f if isinstance(f, Projector) else Projector(as_complex_matrix(f, "factor"))


def _coerce_factors(factors: object, minimum: int = 2) -> tuple[Projector, ...]:
    """`factors` as Projectors: at least `minimum` of one dimension."""
    return _same_dim(_sequence(factors, "factors", "projectors", _projector), minimum)


def _same_dim(items: list, minimum: int) -> tuple:
    """`items` (anything with a `dim`) as a tuple, if there are at least `minimum` of one dimension."""
    if len(items) < minimum:
        raise InvalidInputError(f"need at least {minimum} factors, got {len(items)}")
    dims = {f.dim for f in items}
    if len(dims) != 1:
        raise InvalidInputError(f"factor dimension mismatch: {sorted(dims)}")
    return tuple(items)


def _ordering_count(n: int) -> int:
    """n!/2, the length of `distinct_orderings(n)`; more than MAX_OBSERVABLES factors raise ResourceLimitError."""
    if n > MAX_OBSERVABLES:
        raise ResourceLimitError(f"{n} factors exceed the cap of {MAX_OBSERVABLES} for ordered prescriptions")
    return math.factorial(n) // 2


def distinct_orderings(n: int) -> list[tuple[int, ...]]:
    """Factor orderings modulo reversal.

    Hermitization identifies a product with its reverse, so orderings are
    deduplicated by requiring first index < last index; n!/2 survive for
    2 <= n <= MAX_OBSERVABLES.
    """
    n = _integer(n, "n")
    if n < 2:
        raise InvalidInputError(f"orderings need n >= 2, got {n}")
    _ordering_count(n)
    return [p for p in itertools.permutations(range(n)) if p[0] < p[-1]]


def _convex_weights(n: int | None, weights: object | None) -> Array:
    """Validated weights over `distinct_orderings(n)`; None means uniform.  With
    n None no factors are ordered, so any count passes, but the weights must
    still be finite, non-negative and sum to 1."""
    count = None if n is None else _ordering_count(n)
    if weights is None:
        return np.full(count, 1.0 / count)
    try:
        w = _real_array(weights)
    except (TypeError, ValueError):
        w = None
    if w is None or (count is None and w.ndim != 1):
        raise InvalidInputError(f"weights must be real numbers, got {weights!r}")
    if count is not None and w.shape != (count,):
        raise InvalidInputError(
            f"weights must have length {count} (one per ordering), got {w.shape}"
        )
    if not np.isfinite(w).all():
        raise InvalidInputError(f"weights are not finite: {w.tolist()}")
    # No entry exceeds 2 while the rest are >= -1e-14 and the sum is 1: refusing one first keeps w.sum() finite.
    if (w < -1e-14).any() or (w > 2.0).any() or abs(w.sum() - 1.0) > SPECTRAL_TOL:
        raise InvalidInputError("weights must be non-negative and sum to 1")
    return w


def _prescription_weights(prescription: object, group_sizes: Iterable[int], weights: object | None) -> tuple[float, ...] | None:
    """`weights` as floats, for observable groups of `group_sizes` (a pseudo-projection's
    factors are one group).  Refuses an unknown prescription, weights under any
    prescription but convex, and multi-observable groups of unequal size; convex
    weights are one per ordering of the shared size, as `_convex_weights` checks."""
    if not isinstance(prescription, str) or prescription not in PRESCRIPTIONS:
        raise InvalidInputError(f"prescription must be one of {', '.join(PRESCRIPTIONS)}, got {prescription!r}")
    if weights is None:
        return None
    if prescription != "convex":
        raise InvalidInputError("weights are only meaningful for the convex prescription")
    sizes = {k for k in group_sizes if k >= 2}
    if len(sizes) > 1:
        raise InvalidInputError(_UNEQUAL_GROUPS)
    return tuple(_convex_weights(max(sizes, default=None), weights).tolist())


def _herm(stack: Array) -> Array:
    """The Hermitian part (1/2)(M + M^dag) of a matrix, or of each matrix of a stack."""
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


def _ordered_products(mats: object, orders: object) -> Array:
    """The product of the square `mats` (..., k, d, d) in each row of the (m, k) `orders`, left to right, as one stack."""
    a, o = np.asarray(mats), np.asarray(orders).T
    if o.shape[1] == 1:  # one ordering: numpy multiplies plain matrices faster than a stack of one
        o = o[:, 0]
    prod = a[..., o[0], :, :]
    for j in o[1:]:
        prod = prod @ a[..., j, :, :]
    return prod.reshape(*a.shape[:-3], -1, *a.shape[-2:])


def _ordering_sum(mats: object, orders: object, weights: object) -> Array:
    """sum_k w_k Herm(P_k), P_k the product of the square `mats` in orders[k]: every prescription below.  Leading
    axes of `mats` and `weights` are a batch, each entry with the bits of its own call.  The products are built in
    batches of orderings and the terms summed in ordering order from zero (a running sum: `add.reduce` is pairwise
    for 1x1 `mats`)."""
    a, o, w = np.asarray(mats), np.asarray(orders), np.asarray(weights, dtype=float)
    step = max(1, _CONVEX_CHUNK_ENTRIES // a[..., 0, :, :].size)
    acc = 0.0
    for lo in range(0, len(o), step):
        terms = w[..., lo : lo + step, None, None] * _herm(_ordered_products(a, o[lo : lo + step]))
        terms[..., 0, :, :] += acc
        acc = np.add.accumulate(terms, axis=-3)[..., -1, :, :]
    return acc


def unit_pp(factors: object) -> PseudoProjection:
    """(1/2)(pi_1 ... pi_N + h.c.) for one fixed factor ordering."""
    fs = _coerce_factors(factors)
    return PseudoProjection(_ordering_sum([p.matrix for p in fs], [tuple(range(len(fs)))], [1.0]), fs, "unit")


def symmetrized_pp(factors: object) -> PseudoProjection:
    """Equal-weight average of unit pseudo-projections over all orderings."""
    fs = _coerce_factors(factors)
    w = _convex_weights(len(fs), None)
    return PseudoProjection(_ordering_sum([p.matrix for p in fs], _ordering_array(len(fs)), w), fs, "symmetrized")


def convex_pp(factors: object, weights: object | None = None) -> PseudoProjection:
    """Convex mixture of the ordering-resolved unit pseudo-projections.

    `weights` must match the distinct-ordering count (n!/2), be non-negative,
    and sum to 1; omitted weights reproduce the symmetrized prescription.
    """
    fs = _coerce_factors(factors)
    w = _convex_weights(len(fs), weights)
    acc = _ordering_sum([p.matrix for p in fs], _ordering_array(len(fs)), w)
    return PseudoProjection(acc, fs, "convex", weights=tuple(w.tolist()))


# Subset moments.  Stacks are indexed by bit mask: entry `mask` belongs to the
# subset T = {j : bit j of mask is set} of the operators, entry 0 is the
# identity.  Expanding each factor (I + s_j A_j)/2 of a pseudo-projection turns
# the whole family of outcome tables into these 2^k moments.

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


@functools.cache
def _restrictions(k: int, j: int) -> Array:
    """For each of `distinct_orderings(k)`, the index among `distinct_orderings(k - 1)` of its
    restriction without factor j, up to reversal."""
    index = {order: i for i, order in enumerate(distinct_orderings(k - 1))}
    rests = [tuple(i - (i > j) for i in order if i != j) for order in distinct_orderings(k)]
    return np.array([index[min(rest, rest[::-1])] for rest in rests])


def _restricted_weights(w: object, k: int, j: int) -> Array:
    """The weights that `w`, over `distinct_orderings(k)`, induce on the orderings without factor j: the weights
    of orderings whose restrictions agree up to reversal add up, in ordering order from zero."""
    return np.bincount(_restrictions(k, j), weights=w)


def _ordered_moments(mats: object, prescription: str, weights: object | None = None) -> Array:
    """Moments M_T of every subset T of the k >= 1 square `mats`, as a
    (2^k, d, d) stack; callers bound k.

    unit: Herm(A_t1 ... A_tm) with t ascending, one right-multiplication per
    subset.  symmetrized: the average over all orderings of T, by the
    recursion M_T = (1/|T|) sum_{i in T} A_i M_{T - {i}}, which is O(k 2^k)
    products.  convex (`weights` from `_prescription_weights`, Hermitian
    `mats`): the mixture over T's own orderings, weighted by the restriction
    of its superset's weights (`_restricted_weights`), one `_ordering_sum`
    over all subsets of a size; a product and its reverse share their
    Hermitian part.  Uniform convex (`weights` None) is the symmetrized
    recursion.  A single operator has no orderings: every prescription gives
    (I, Herm A) and `weights` is not read.
    """
    a = np.asarray(mats, dtype=complex)
    k, d = a.shape[0], a.shape[-1]
    out = np.empty((1 << k, d, d), dtype=complex)
    out[0] = np.eye(d)
    if prescription == "unit" or k == 1:
        for j in range(k):
            out[1 << j : 2 << j] = out[: 1 << j] @ a[j]
        return _herm(out)
    if prescription == "symmetrized" or weights is None:
        for r, (targets, members, rests) in enumerate(_symmetrization_plan(k), start=1):
            out[targets] = (a[members] @ out[rests]).sum(axis=1) / r
        return out
    induced = {(1 << k) - 1: np.asarray(weights, dtype=float)}
    for targets, members, _ in reversed(_symmetrization_plan(k)[1:]):
        r = members.shape[1]
        for t in targets.tolist():
            if t not in induced:
                low = ~t & (t + 1)  # T's lowest missing factor f: all below it are in T, so it is factor f of T + {f}
                induced[t] = _restricted_weights(induced[t | low], r + 1, (low - 1).bit_count())
        out[targets] = _ordering_sum(a[members], _ordering_array(r), [induced[t] for t in targets.tolist()])
    out[1 << np.arange(k)] = _herm(a)
    return out


def conjunction_pp(factors: object) -> PseudoProjection:
    """Right-nested half-anticommutator conjunction.

    For factors (f_1, ..., f_N) this is (1/2){f_1, (1/2){f_2, ...}}, nesting
    from the right.  Entries may be Projector or PseudoProjection; the stored
    factor list is the flattened projector sequence.  Distinct from `unit_pp`
    for three or more factors.
    """
    items = _same_dim(
        _sequence(factors, "factors", "projectors", lambda f: f if isinstance(f, PseudoProjection) else _projector(f)), 2
    )
    flat = [p for f in items for p in (f.factors if isinstance(f, PseudoProjection) else (f,))]
    return PseudoProjection(_nested([f.matrix for f in items]), tuple(flat), "nested")


def _nested(mats: Sequence[Array]) -> Array:
    """(1/2){m_1, (1/2){m_2, ... m_N}} for two or more square `mats`, nesting from the right."""
    acc = mats[-1]
    for m in reversed(mats[:-1]):
        acc = 0.5 * (m @ acc + acc @ m)
    return acc


def disjunction_pp(pa: object, pb: object) -> PseudoProjection:
    """Inclusion-exclusion disjunction: pi_a + pi_b - (1/2){pi_a, pi_b}."""
    fs = _coerce_factors([pa, pb])
    a, b = fs[0].matrix, fs[1].matrix
    return PseudoProjection(a + b - _nested([a, b]), fs, "disjunction")


def min_eigen_certificate(pp: PseudoProjection | Array) -> tuple[float, Array]:
    """Smallest eigenvalue and its normalized eigenvector.

    A strictly negative minimum certifies that the operator cannot be a
    classical indicator; the witness vector realizes the negative expectation.
    """
    m = pp.matrix if isinstance(pp, PseudoProjection) else as_complex_matrix(pp, "pp")
    w, v = hermitian_eigen(m)
    return float(w[0]), v[:, 0]
