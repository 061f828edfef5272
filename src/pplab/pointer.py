"""Gaussian-pointer weak-measurement simulation.

A qubit couples to N pointers through H = g * sum_j proj_j x P_j, with P_j
the momentum canonical to pointer position x_j.  H is diagonal in the joint
momentum representation, so the propagator factorizes into an exact 2x2
qubit rotation per momentum gridpoint; there is no time-stepping error.
After evolution the system is post-selected and the product moment
<x_1 ... x_N> of the surviving pointer state is read out.  At weak coupling
that moment is proportional to the pseudo-probability of the projector
family, which is what the proportionality check quantifies.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    PostSelectionImpossibleError,
    ResourceLimitError,
)
from .geometry import _pauli_coordinates
from .operator_core import (
    _ENTRY_LIMIT, SPECTRAL_TOL, STRUCTURAL_TOL, Array, DensityMatrix, Projector, _bounded, _close, _expectations,
    _integer, _real, _real_item, _require_state, _sequence, as_complex_matrix,
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

BRANCH_FLOOR = 1e-14
MAX_ANALYTIC_POINTERS = 6

# Grid points per pointer, by pointer count: the one bound on a simulation.
# A d-level system on grid^N points holds d * grid^N <= 64 * 64^3 = 2^24
# amplitudes for every d <= 64.
_GRID_CAPS = {1: 4096, 2: 128, 3: 64}
MAX_SIM_POINTERS = max(_GRID_CAPS)

# A simulation runs in units of the pointer width and scales its results by
# sigma^N, by 1 / (g t / sigma)^N and, in a fit, by each (g t / sigma)^N; a
# prediction by (g t / 2)^N.  A result in width units is at most
# 4 * grid_halfwidth^N / OVERLAP_FLOOR (an effect with entries of modulus at
# most 2 has operator norm at most 4, and the post-selected weight exceeds
# OVERLAP_FLOOR), below 1e163 for a window of at most _HALFWIDTH_LIMIT widths.
# Every factor within [1 / _SCALE_LIMIT, _SCALE_LIMIT] then keeps the scaled
# results below 1e263, and a fit's sums of squares, finite.  One symmetric
# window for all factors is chosen over the limit each could take alone (about
# 1e145 for sigma^N), so that sigma, the kick and a prediction share one rule.
_HALFWIDTH_LIMIT = 1e50
_SCALE_LIMIT = 1e100


@dataclass(frozen=True)
class PointerConfig:
    """Pointer width, coupling, duration and discretization."""

    g: float
    t: float
    sigma: float = 1.0
    grid_points: int = 64
    grid_halfwidth: float = 7.0

    def __post_init__(self) -> None:
        for name in ("g", "t", "sigma", "grid_halfwidth"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "grid_points", _integer(self.grid_points, "grid_points"))
        if not (math.isfinite(self.g) and math.isfinite(self.t)):
            raise InvalidInputError("coupling and duration must be finite")
        if self.t < 0:
            raise InvalidInputError(f"duration must be non-negative, got {self.t}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError(f"pointer width must be positive, got {self.sigma}")
        n = self.grid_points
        if n < 32 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"grid_points must be a power of two >= 32, got {n}")
        if not 6 <= self.grid_halfwidth <= _HALFWIDTH_LIMIT:
            raise InvalidInputError(
                f"grid_halfwidth must lie within [6, {_HALFWIDTH_LIMIT:.3g}] pointer widths, got {self.grid_halfwidth}"
            )


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


def _check_sim_resources(n_pointers: int, grid_points: int) -> None:
    if n_pointers > MAX_SIM_POINTERS:
        raise ResourceLimitError(
            f"simulation supports at most {MAX_SIM_POINTERS} pointers, got {n_pointers};"
            " use perturbative_prediction for larger families"
        )
    cap = _GRID_CAPS[n_pointers]
    if grid_points > cap:
        raise ResourceLimitError(
            f"grid_points {grid_points} exceeds the cap {cap} for {n_pointers} pointers"
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
    """(g t / sigma)^n, the n pointers' weak-coupling scale in units of the pointer width."""
    return _power(cfg.g * cfg.t / cfg.sigma, n, "g * t / sigma", low)


def _pointer_pseudo_probability(
    state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, overlap: float
) -> float:
    sym = _ordered_moments([p.matrix for p in projectors], "symmetrized")[-1]
    return _expectations(state.matrix, effect @ sym) / overlap


# Per-thread working arrays for the two most recent grid shapes, a simulation and its
# refinement: fresh grid-sized temporaries cost more in first-touch page faults than in arithmetic.
_local = threading.local()


@functools.lru_cache(maxsize=4)
def _grid(n: int, half: float, n_pointers: int) -> tuple[Array, Array, tuple[Array, ...]]:
    """The read-only x_1 ... x_N products, Gaussian spectrum and open k-grids of an n^N grid on [-half, half)."""
    xs = np.linspace(-half, half, n, endpoint=False)
    dx = xs[1] - xs[0]
    ks = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    # Product of identical Gaussians, discretely normalized.
    psi1 = np.exp(-(xs ** 2) / 4.0).astype(complex)
    psi1 /= math.sqrt(float(np.sum(np.abs(psi1) ** 2)))
    phik = np.fft.fftn(functools.reduce(np.multiply.outer, [psi1] * n_pointers))
    xprod = functools.reduce(np.multiply.outer, [xs] * n_pointers)
    kgrids = np.meshgrid(*([ks] * n_pointers), indexing="ij", sparse=True)
    for a in (xprod, phik, *kgrids):
        a.flags.writeable = False
    return xprod, phik, kgrids


def _workspace(shape: tuple[int, ...]) -> Array:
    """This thread's six complex working arrays of `shape`, as one block."""
    blocks = _local.__dict__.setdefault("blocks", {})
    block = blocks.pop(shape, None)
    if block is None:
        while len(blocks) > 1:
            del blocks[next(iter(blocks))]
        block = np.empty((6, *shape), complex)
    blocks[shape] = block
    return block


def _correlation(state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, cfg: PointerConfig) -> float:
    """<(x_1 / sigma) ... (x_N / sigma)> after post-selection: the correlation in units of the
    pointer width, computed on a grid of positions x / sigma with the kick g t / sigma."""
    xprod, phik, kgrids = _grid(cfg.grid_points, cfg.grid_halfwidth, len(projectors))
    block = _workspace(phik.shape)
    k0, k1, p, q, b0, b1 = block
    phase, v = k0, k1
    # Real arrays 2i and 2i + 1 share the memory of complex slot i.  Until the
    # propagator is formed, q's reals hold alpha, then cos(gt b), and sinc, and
    # b0's and b1's hold the betas and b; then p and q take beta_x -/+ 1j beta_y.
    reals = block.view(float).reshape(12, *phik.shape)
    alpha, sinc, beta, bnorm = reals[6], reals[7], reals[8:11], reals[11]

    # Each projector is c I + v . sigma with (c, v) = Tr(P sigma_mu)/2.
    comps = [_pauli_coordinates(pr.matrix) / 2.0 for pr in projectors]
    for a, out in enumerate((alpha, *beta)):
        out[...] = 0.0  # the start of the builtin sum over the dense terms
        for cv, kg in zip(comps, kgrids):
            np.add(out, cv[a] * kg, out=out)
    gt = cfg.g * cfg.t / cfg.sigma
    np.exp(np.multiply(-1j * gt, alpha, out=phase), out=phase)
    cosb = alpha
    np.square(beta[0], out=bnorm)
    for b in beta[1:]:
        np.add(bnorm, np.square(b, out=sinc), out=bnorm)
    np.sqrt(bnorm, out=bnorm)
    np.cos(np.multiply(gt, bnorm, out=cosb), out=cosb)
    # sin(gt b)/b with its b -> 0 limit gt.
    zero = bnorm <= 0.0
    np.copyto(bnorm, 1.0, where=zero)
    np.divide(np.sin(np.multiply(gt, bnorm, out=sinc), out=sinc), bnorm, out=sinc)
    np.copyto(sinc, gt, where=zero)
    # numpy's complex multiply uses FMA, so it is not bitwise commutative, and
    # from 256 KiB on numpy elides `phase * <temporary>` into the temporary,
    # with the operands swapped.  So each propagator product stays
    # `phase * <fresh temporary>` and every other product keeps the operand
    # order of the plain expressions, which keeps their bits on every grid.
    np.multiply(np.multiply(1j, sinc, out=v), beta[2], out=v)
    u00 = phase * (cosb - v)
    u11 = phase * (cosb + v)
    np.multiply(-1j, sinc, out=v)
    np.multiply(1j, beta[1], out=q)
    np.subtract(beta[0], q, out=p)
    np.add(beta[0], q, out=q)
    u01 = phase * (v * p)
    u10 = phase * (v * q)

    evals, evecs = np.linalg.eigh(state.matrix)
    num = 0.0
    den = 0.0
    for weight, chi in zip(evals, evecs.T):
        if weight < BRANCH_FLOOR:
            continue
        np.multiply(chi[0], phik, out=k0)
        np.multiply(chi[1], phik, out=k1)
        for ua, ub, b in ((u00, u01, b0), (u10, u11, b1)):
            np.add(np.multiply(ua, k0, out=p), np.multiply(ub, k1, out=q), out=p)
            np.fft.ifftn(p, out=b)
        norm = float(np.vdot(b0, b0).real + np.vdot(b1, b1).real)
        if abs(norm - 1.0) > SPECTRAL_TOL:
            raise ConvergenceError(
                f"evolution lost unitarity (branch norm {norm:.12f}); increase grid_halfwidth"
            )
        # w = Re(E00 b0 b0* + E11 b1 b1* + E01 b1 b0* + E10 b0 b1*), summed in that order.
        g0, g1 = np.conjugate(b0, out=k0), np.conjugate(b1, out=k1)
        np.multiply(np.multiply(effect[0, 0], b0, out=p), g0, out=p)
        for e, b, g in ((effect[1, 1], b1, g1), (effect[0, 1], b1, g0), (effect[1, 0], b0, g1)):
            np.add(p, np.multiply(np.multiply(e, b, out=q), g, out=q), out=p)
        w = p.real
        num += float(weight) * float(np.sum(np.multiply(w, xprod, out=reals[6])))
        den += float(weight) * float(np.sum(w))

    if den <= OVERLAP_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection weight {den:.3e} vanished after evolution"
        )
    return num / den


def simulate_pointers(
    state: DensityMatrix,
    projectors: object,
    post: object,
    cfg: PointerConfig,
) -> PointerResult:
    """Exact joint evolution, post-selection, and <x_1...x_N> readout.

    The ratio field divides the correlation by (g t)^N, the weak-coupling
    proportionality constant, so it is directly comparable to the
    pseudo-probability.  convergence_estimate is the relative change of the
    correlation under grid refinement: doubled points when that stays within
    the grid cap, otherwise halved (a grid at its cap has at least 64 points).
    Both (g t / sigma)^N and sigma^N must lie within [1e-100, 1e100].
    """
    plist, effect, overlap = _setup(state, projectors, post)
    n = len(plist)
    _check_sim_resources(n, cfg.grid_points)
    width, kick = _power(cfg.sigma, n, "sigma", 1 / _SCALE_LIMIT), _kick(cfg, n)

    correlation = _correlation(state, plist, effect, cfg)
    pp = _pointer_pseudo_probability(state, plist, effect, overlap)

    doubled = 2 * cfg.grid_points
    refined = doubled if doubled <= _GRID_CAPS[n] else cfg.grid_points // 2
    other = _correlation(state, plist, effect, replace(cfg, grid_points=refined))
    estimate = abs(correlation - other) / max(abs(correlation), abs(other), 1e-300)

    return PointerResult(correlation * width, pp, correlation / kick, estimate)


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
    pointer width, where each (g t / sigma)^N of a nonzero g must lie within
    [1e-100, 1e100].
    """
    gs = _sequence(couplings, "couplings", "numbers", _real_item)
    if len(gs) < 3:
        raise InvalidInputError(f"need at least 3 coupling values, got {len(gs)}")
    plist, effect, overlap = _setup(state, projectors, post)
    _check_sim_resources(len(plist), cfg.grid_points)

    cfgs = [replace(cfg, g=g) for g in gs]
    # A zero coupling is one point of the fit; a nonzero one must not underflow.
    x = np.array([_kick(c, len(plist), 1 / _SCALE_LIMIT if c.g else 0.0) for c in cfgs])
    y = np.array([_correlation(state, plist, effect, c) for c in cfgs])
    denom = float(x @ x)
    if denom <= 0:
        raise InvalidInputError("couplings give a degenerate fit; use nonzero g values")
    slope = float(x @ y) / denom

    pp = _pointer_pseudo_probability(state, plist, effect, overlap)
    deviation = abs(slope - pp) / max(abs(pp), 1e-12)
    return {
        "fitted_slope": slope,
        "pseudo_probability": pp,
        "relative_deviation": deviation,
    }
