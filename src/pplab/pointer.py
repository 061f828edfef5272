"""Gaussian-pointer weak-measurement readout, grid-free.

A qubit couples to N pointers through H = g * sum_j proj_j x P_j, with P_j
the momentum canonical to pointer position x_j.  In the joint momentum
representation the coupled state is exp(-i s k . proj) chi phi(k), with
s = g t / sigma the kick in pointer widths.  Expanded in s, the post-selected
product moment <x_1 ... x_N> and weight are finite sums of traces of ordered
projector products times Gaussian moments: no grid, window or time step.
The order-N term of the moment over s^N is the weak value of Aharonov,
Albert and Vaidman (`perturbative_prediction`'s closed form); at weak
coupling it tracks the pseudo-probability of the projector family, which is
what the proportionality check quantifies.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, PostSelectionImpossibleError, ResourceLimitError
from .operator_core import (
    _ENTRY_LIMIT, STRUCTURAL_TOL, Array, DensityMatrix, Projector, _bounded, _close, _expectations,
    _real, _real_item, _require_state, _sequence, as_complex_matrix,
)
from .pseudoprojection import _coerce_factors, _ordered_moments
from .weak import OVERLAP_FLOOR, _overlap

__all__ = [
    "PointerConfig",
    "PointerResult",
    "simulate_pointers",
    "perturbative_prediction",
    "proportionality_check",
]

MAX_ANALYTIC_POINTERS = 6

# A simulation's ratio, in units of the pointer width, is at most
# 4 * 75 / OVERLAP_FLOOR < 1e15: an effect with entries of modulus at most 2
# has norm at most 4, the series' terms add up to at most 75 times that at
# every accepted kick, and the post-selected weight exceeds OVERLAP_FLOOR.
# The ratio is scaled by (g t / sigma)^N and sigma^N, a fit's points by each
# (g t / sigma)^N and a prediction by (g t / 2)^N.  One rule for all, each
# factor within [1 / _SCALE_LIMIT, _SCALE_LIMIT], keeps every result below
# 1e118 and a fit's sums of squares finite.
_SCALE_LIMIT = 1e100

# Largest |g t / sigma| for each pointer count the simulation supports.  The
# series adds terms of either sign whose sizes sum to at most
# (sum_a y_a)^(2N) / 2^N times the effect's norm (`_order`): 73, 72 and 54 at
# these bounds, so about two digits are lost.  The factor grows as
# e^(N s^2 / 8); larger kicks are strong measurements.
_KICK_BOUNDS = {1: 5.0, 2: 3.0, 3: 2.0}
MAX_SIM_POINTERS = max(_KICK_BOUNDS)
# No accepted kick needs more than 40 orders; _MAX_ORDER is a backstop.
_SERIES_TOL = 1e-15
_MAX_ORDER = 64
# Box entries (K + 1)^N of the kicks contracted in one stack: one series of 3 pointers at the
# largest kick (K = 33) fits, so a long list of strong kicks holds a few series at a time, not all.
_STACK_ENTRIES = 35 ** 3
# Most couplings one proportionality fit takes: each is one more series, about 30 ms for
# 3 pointers at g t / sigma = 2.
MAX_COUPLINGS = 100


@dataclass(frozen=True)
class PointerConfig:
    """Coupling g, duration t and pointer width sigma of the grid-free readout."""

    g: float
    t: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g", "t", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (math.isfinite(self.g) and math.isfinite(self.t)):
            raise InvalidInputError("coupling and duration must be finite")
        if self.t < 0:
            raise InvalidInputError(f"duration must be non-negative, got {self.t}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError(f"pointer width must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PointerResult:
    correlation: float
    pseudo_probability: float
    ratio: float
    convergence_estimate: float


def _coerce_effect(post: object, name: str) -> Array:
    m = post.matrix if isinstance(post, (DensityMatrix, Projector)) else as_complex_matrix(post, name)
    if m.shape != (2, 2):
        raise InvalidInputError(f"{name} must be 2x2, got {m.shape}")
    _bounded(m, name, _ENTRY_LIMIT)
    if not _close(m, m.conj().T, STRUCTURAL_TOL):
        raise InvalidInputError(f"{name} must be Hermitian")
    return m


def _setup(state: DensityMatrix, projectors: object, post: object) -> tuple[tuple[Projector, ...], Array, float]:
    """Qubit projectors and effect for a qubit `state`, with the overlap Tr(E rho)."""
    if _require_state(state).dim != 2:
        raise InvalidInputError("pointer simulation takes a single-qubit state")
    plist = _coerce_factors(projectors, minimum=1)
    if plist[0].dim != 2:
        raise InvalidInputError("pointer simulation couples qubit projectors only")
    effect = _coerce_effect(post, "post")
    return plist, effect, _overlap(state.matrix, effect)


def _check_sim_resources(n_pointers: int) -> None:
    if n_pointers > MAX_SIM_POINTERS:
        raise ResourceLimitError(
            f"simulation supports at most {MAX_SIM_POINTERS} pointers, got {n_pointers};"
            " use perturbative_prediction for larger families"
        )


def _power(x: float, n: int, name: str, low: float) -> float:
    """x^n, refused with a message naming `name` unless low <= |x^n| <= _SCALE_LIMIT."""
    try:
        p = x ** n
    except OverflowError:
        p = math.inf
    if not low <= abs(p) <= _SCALE_LIMIT:
        raise InvalidInputError(
            f"{name} = {x:.6g} is out of range: |{name}|^{n} must lie within [{low:.3g}, {_SCALE_LIMIT:.3g}]"
        )
    return p


def _kick(cfg: PointerConfig, n: int, low: float = 1 / _SCALE_LIMIT) -> float:
    """(g t / sigma)^n, the n pointers' weak-coupling scale in units of the pointer width,
    for a kick g t / sigma within the series' bound for n pointers."""
    s, bound = cfg.g * cfg.t / cfg.sigma, _KICK_BOUNDS[n]
    if not abs(s) <= bound:
        raise InvalidInputError(
            f"g * t / sigma = {s:.6g} is out of range: |g * t / sigma| must be at most {bound:g} for {n} pointers"
        )
    return _power(s, n, "g * t / sigma", low)


def _pointer_pseudo_probability(
    state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, overlap: float
) -> float:
    sym = _ordered_moments([p.matrix for p in projectors], "symmetrized")[-1]
    return _expectations(state.matrix, effect @ sym) / overlap


def _order(s: float, n: int) -> tuple[int, float]:
    """The last order K of the series of n pointers at the kick s, and its bound over the bounds kept.

    Per pointer, a word sum of degree a has norm at most 1 / (a! 2^a), and a moment entry over
    a! b! 2^(a+b) is at most y_a y_b, with rho_a = sqrt(E (s k)^(2a)) / (a! 2^a) and
    y_a = rho_a + rho_(a-1) / 2 (Cauchy-Schwarz).  So the terms of total degree m add up to at
    most the effect's norm times the m-th coefficient of (sum_a y_a z^a)^N.  K is the first degree
    above N whose bound is at most _SERIES_TOL of the bounds kept; a K above _MAX_ORDER is refused.
    """
    a = np.arange(1, _MAX_ORDER + 1)
    rho = np.cumprod(np.r_[1.0, np.sqrt((2 * a - 1) * (s * s / 4)) / (2 * a)])
    y = rho + np.r_[0.0, rho[:-1]] / 2
    bound = functools.reduce(np.convolve, [y] * n)[: _MAX_ORDER + 1]
    share = bound / np.cumsum(bound)
    done = np.flatnonzero(share[n + 1 :] <= _SERIES_TOL)
    if not done.size:
        raise ResourceLimitError(
            f"the series of {n} pointers at g * t / sigma = {s:.6g} needs more than {_MAX_ORDER} orders"
        )
    order = n + 1 + int(done[0])
    return order, float(share[order])


def _word_sums(centred: Array, order: int) -> Array:
    """S_alpha for every degree |alpha| <= order as a (d, (order + 1)^N, d) array, zero above that degree.

    S_0 = 1 and S_alpha = (-i / |alpha|) sum_j Q_j S_(alpha - e_j): the coefficient of
    s^|alpha| k^alpha in exp(-i s k . Q), built one degree at a time on the box [0, m]^N that
    holds degree m.  All N left products of a degree are one matmul, whose rows are then
    shifted along their pointer's axis."""
    n, d = len(centred), centred.shape[-1]
    words = np.zeros((d,) + (order + 1,) * n + (d,), complex)
    term = np.eye(d, dtype=complex).reshape((d,) + (1,) * n + (d,))
    words[(slice(None),) + (slice(0, 1),) * n] = term
    for m in range(1, order + 1):
        products = (centred.reshape(n * d, d) @ term.reshape(d, -1)).reshape(n, *term.shape)
        term = np.zeros((d,) + (m + 1,) * n + (d,), complex)
        for j, p in enumerate(products):
            term[(slice(None),) + (slice(0, m),) * j + (slice(1, None),) + (slice(0, m),) * (n - 1 - j)] += p
        term *= -1j / m
        words[(slice(None),) + (slice(0, m + 1),) * n] += term
    return words


def _series(
    state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, kicks: list[float]
) -> list[tuple[float, float]]:
    """For each kick s = g t / sigma: <(x_1 / sigma) ... (x_N / sigma)> / s^N after post-selection,
    and the relative bound on the last order kept (`_order`).

    With Q_j = proj_j - 1/2, exp(-i s k . proj) is the phase exp(-i s sum_j k_j / 2) times
    exp(-i s k . Q); the phase turns each x_j = i d/dk_j into s / 2 + i d/dk_j.  Per pointer, with
    m_j = E (s k)^j for k ~ N(0, 1/4), the weight pairs the k^a and k^b terms through m_(a+b) and
    the readout over s through m_(a+b) / 2 + i (a - b) m_(a+b-1) / 2, so no power of s divides
    anything.  Both are sums of Tr(E S_alpha rho S_beta^dagger) prod_j M[alpha_j, beta_j].

    The word sums are built once, at the largest order K among the kicks, and the kicks' moment
    matrices are applied in one stacked contraction (a long list in stacks of at most
    _STACK_ENTRIES box entries).  A kick of order k keeps the words of degree at most k and sums
    over the box [0, k]^N, so its result has the bits of a series built at k alone.
    """
    n, d = len(projectors), state.dim
    bounds = [_order(s, n) for s in kicks]
    top = max(order for order, _ in bounds)
    words = _word_sums(np.array([p.matrix - np.eye(d) / 2 for p in projectors]), top)
    degree = np.indices((top + 1,) * n).sum(axis=0)
    a = np.arange(top + 1)
    results = []
    stack = max(1, _STACK_ENTRIES // degree.size)
    for first in range(0, len(kicks), stack):
        s = np.array(kicks[first : first + stack])[:, None]
        chunk = bounds[first : first + stack]
        orders = np.reshape([order for order, _ in chunk], (-1,) + (1,) * n)
        kept = np.where((degree <= orders)[:, None, ..., None], words, 0)
        # mom[:, j + 1] = m_j for j = -1 .. 2K; m_-1 only ever meets a factor a - b = 0.
        mom = np.zeros((len(s), 2 * top + 2))
        mom[:, 1::2] = np.cumprod(np.c_[np.ones(len(s)), np.arange(1, 2 * top, 2) * (s * s / 4)], axis=1)
        weight = mom[:, a[:, None] + a[None, :] + 1]
        readout = weight / 2 + 0.5j * (a[:, None] - a[None, :]) * mom[:, a[:, None] + a[None, :]]
        moments = np.stack([readout, weight], axis=1)[:, :, None]
        # Each pass applies both moment matrices to the last pointer axis of conj(S) and moves it to the front.
        c = np.broadcast_to(kept.conj()[:, None], (len(s), 2, *words.shape))
        for _ in range(n):
            c = np.moveaxis((moments @ c.reshape(len(s), 2, -1, top + 1, d)).reshape(c.shape), -2, 3)
        for i, (order, estimate) in enumerate(chunk):
            box = (slice(0, order + 1),) * n
            terms = (effect @ kept[(i, slice(None), *box)].reshape(d, -1)).reshape(-1, d) @ state.matrix
            num, den = (c[(i, slice(None), slice(None), *box)].reshape(2, -1) @ terms.reshape(-1)).real
            if den <= OVERLAP_FLOOR:
                raise PostSelectionImpossibleError(
                    f"post-selection weight {den:.3e} vanished after evolution"
                )
            results.append((float(num / den), estimate))
    return results


def _couplings(couplings: object) -> list[float]:
    """A fit's coupling list, of at least 3 and at most MAX_COUPLINGS real numbers."""
    gs = _sequence(couplings, "couplings", "numbers", _real_item)
    if len(gs) < 3:
        raise InvalidInputError(f"need at least 3 coupling values, got {len(gs)}")
    if len(gs) > MAX_COUPLINGS:
        raise ResourceLimitError(f"a fit takes at most {MAX_COUPLINGS} coupling values, got {len(gs)}")
    return gs


def _fit_kicks(cfg: PointerConfig, gs: list[float], n: int) -> tuple[Array, list[float]]:
    """The fit's abscissae (g t / sigma)^n at each coupling g of `gs`, and their kicks g t / sigma."""
    cfgs = [replace(cfg, g=g) for g in gs]
    # A zero coupling is one point of the fit; a nonzero one must not underflow.
    x = np.array([_kick(c, n, 1 / _SCALE_LIMIT if c.g else 0.0) for c in cfgs])
    return x, [c.g * c.t / c.sigma for c in cfgs]


def _fit(x: Array, series: list[tuple[float, float]], pp: float) -> dict[str, float]:
    """The through-origin fit of the readouts `series` at abscissae `x`, against `pp`."""
    y = x * np.array([ratio for ratio, _ in series])
    denom = float(x @ x)
    if denom <= 0:
        raise InvalidInputError("couplings give a degenerate fit; use nonzero g values")
    slope = float(x @ y) / denom
    return {"fitted_slope": slope, "pseudo_probability": pp, "relative_deviation": abs(slope - pp) / max(abs(pp), 1e-12)}


def _simulate_and_fit(
    state: DensityMatrix, projectors: object, post: object, cfg: PointerConfig, couplings: object = None,
) -> tuple[PointerResult, dict[str, float] | None]:
    """`simulate_pointers`' result, and `proportionality_check`'s fit over `couplings` unless
    they are None, from one set-up, one pseudo-probability and one series over the simulation's
    kick and then the couplings'.  The couplings are checked after the simulation's own checks."""
    plist, effect, overlap = _setup(state, projectors, post)
    n = len(plist)
    _check_sim_resources(n)
    width, kick = _power(cfg.sigma, n, "sigma", 1 / _SCALE_LIMIT), _kick(cfg, n)
    x, kicks = _fit_kicks(cfg, [] if couplings is None else _couplings(couplings), n)

    (ratio, estimate), *series = _series(state, plist, effect, [cfg.g * cfg.t / cfg.sigma, *kicks])
    pp = _pointer_pseudo_probability(state, plist, effect, overlap)
    return PointerResult(ratio * kick * width, pp, ratio, estimate), None if couplings is None else _fit(x, series, pp)


def simulate_pointers(
    state: DensityMatrix,
    projectors: object,
    post: object,
    cfg: PointerConfig,
) -> PointerResult:
    """Exact joint evolution, post-selection, and <x_1...x_N> readout.

    The readout is the series in s = g t / sigma, summed up to the first order
    K whose bound is at most 1e-15 of the bounds kept.  The ratio field is the
    correlation over (g t)^N, the weak-coupling proportionality constant, so it
    is directly comparable to the pseudo-probability; the series yields it with
    no division by s, so small kicks leave no rounding floor.
    convergence_estimate is the bound on order K over the bounds kept (at most
    1e-15): it bounds the truncation, whose dropped orders are smaller still.
    |g t / sigma| must be at most 5, 3 or 2 for 1, 2 or 3 pointers, and
    (g t / sigma)^N and sigma^N must lie within [1e-100, 1e100].
    """
    return _simulate_and_fit(state, projectors, post, cfg)[0]


def perturbative_prediction(
    state: DensityMatrix,
    projectors: object,
    post: object,
    cfg: PointerConfig,
) -> float:
    """Leading-order pointer correlation.

    The term of order (g t)^N splits each projector family over the two sides
    of the state, symmetrized within each side, with a Gaussian moment factor
    of 1/2 per pointer:

        (g t / 2)^N * sum over subsets S of Tr[E Sym(S) rho Sym(~S)] / Tr[E rho]

    With an identity-proportional effect this collapses to
    (g t)^N * Tr[Sym rho], the pseudo-probability scaling.
    """
    plist, effect, den = _setup(state, projectors, post)
    if len(plist) > MAX_ANALYTIC_POINTERS:
        raise ResourceLimitError(
            f"analytic prediction supports at most {MAX_ANALYTIC_POINTERS} pointers"
        )

    # Entry `mask` of the stack is Sym(S) for the subset S with that bit mask,
    # so the reversed stack holds each complement Sym(~S).
    scale = _power(cfg.g * cfg.t / 2.0, len(plist), "g * t / 2", 0.0)
    sym = _ordered_moments([p.matrix for p in plist], "symmetrized")
    total = np.trace(effect @ sym @ state.matrix @ sym[::-1], axis1=1, axis2=2).sum()
    return float(np.real(total)) * scale / den


def proportionality_check(
    state: DensityMatrix,
    projectors: object,
    post: object,
    cfg: PointerConfig,
    couplings: object,
) -> dict[str, float]:
    """Fit correlation against (g t)^N over several couplings.

    Returns the fitted slope, the pseudo-probability it should track, and
    their relative deviation.  A through-origin least-squares fit is enough:
    the correlation is odd in g at order N.  It is made in units of the
    pointer width, where each |g t / sigma| must lie within the bound that
    simulate_pointers takes, and each (g t / sigma)^N of a nonzero g within
    [1e-100, 1e100].  It takes 3 to MAX_COUPLINGS (100) couplings.
    """
    gs = _couplings(couplings)
    plist, effect, overlap = _setup(state, projectors, post)
    _check_sim_resources(len(plist))
    x, kicks = _fit_kicks(cfg, gs, len(plist))
    return _fit(x, _series(state, plist, effect, kicks), _pointer_pseudo_probability(state, plist, effect, overlap))
