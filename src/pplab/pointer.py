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
    SPECTRAL_TOL, STRUCTURAL_TOL, Array, DensityMatrix, Projector, _close, _expectations, _integer, _real, _require_state,
    _sequence, as_complex_matrix,
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
            _real(getattr(self, name), name)
        _integer(self.grid_points, "grid_points")
        if not (math.isfinite(self.g) and math.isfinite(self.t)):
            raise InvalidInputError("coupling and duration must be finite")
        if self.t < 0:
            raise InvalidInputError(f"duration must be non-negative, got {self.t}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError(f"pointer width must be positive, got {self.sigma}")
        n = self.grid_points
        if n < 32 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"grid_points must be a power of two >= 32, got {n}")
        if not (math.isfinite(self.grid_halfwidth) and self.grid_halfwidth >= 6):
            raise InvalidInputError(
                f"grid_halfwidth must be at least 6 pointer widths, got {self.grid_halfwidth}"
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
    return plist, effect, float(_overlap(state.matrix, effect))


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


def _pointer_pseudo_probability(
    state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, overlap: float
) -> float:
    sym = _ordered_moments([p.matrix for p in projectors], "symmetrized")[-1]
    return _expectations(state.matrix, effect @ sym) / overlap


def _correlation(state: DensityMatrix, projectors: tuple[Projector, ...], effect: Array, cfg: PointerConfig) -> float:
    n_pointers = len(projectors)
    n = cfg.grid_points
    half = cfg.grid_halfwidth * cfg.sigma
    xs = np.linspace(-half, half, n, endpoint=False)
    dx = xs[1] - xs[0]
    ks = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)

    # Product of identical Gaussians, discretely normalized.
    psi1 = np.exp(-(xs ** 2) / (4.0 * cfg.sigma ** 2)).astype(complex)
    psi1 /= math.sqrt(float(np.sum(np.abs(psi1) ** 2)))
    phik = np.fft.fftn(functools.reduce(np.multiply.outer, [psi1] * n_pointers))

    # Each projector is c I + v . sigma with (c, v) = Tr(P sigma_mu)/2.
    comps = [_pauli_coordinates(p.matrix) / 2.0 for p in projectors]
    kgrids = np.meshgrid(*([ks] * n_pointers), indexing="ij")
    alpha = sum(cv[0] * kg for cv, kg in zip(comps, kgrids))
    beta = [sum(cv[a] * kg for cv, kg in zip(comps, kgrids)) for a in (1, 2, 3)]
    bnorm = np.sqrt(beta[0] ** 2 + beta[1] ** 2 + beta[2] ** 2)

    gt = cfg.g * cfg.t
    phase = np.exp(-1j * gt * alpha)
    cosb = np.cos(gt * bnorm)
    # sin(gt b)/b with its b -> 0 limit gt.
    sinc = np.where(bnorm > 0, np.sin(gt * np.where(bnorm > 0, bnorm, 1.0)) / np.where(bnorm > 0, bnorm, 1.0), gt)
    u00 = phase * (cosb - 1j * sinc * beta[2])
    u01 = phase * (-1j * sinc * (beta[0] - 1j * beta[1]))
    u10 = phase * (-1j * sinc * (beta[0] + 1j * beta[1]))
    u11 = phase * (cosb + 1j * sinc * beta[2])

    xprod = functools.reduce(np.multiply.outer, [xs] * n_pointers)

    evals, evecs = np.linalg.eigh(state.matrix)
    num = 0.0
    den = 0.0
    for weight, chi in zip(evals, evecs.T):
        if weight < BRANCH_FLOOR:
            continue
        c0k = chi[0] * phik
        c1k = chi[1] * phik
        b0 = np.fft.ifftn(u00 * c0k + u01 * c1k)
        b1 = np.fft.ifftn(u10 * c0k + u11 * c1k)
        norm = float(np.sum(np.abs(b0) ** 2 + np.abs(b1) ** 2))
        if abs(norm - 1.0) > SPECTRAL_TOL:
            raise ConvergenceError(
                f"evolution lost unitarity (branch norm {norm:.12f}); increase grid_halfwidth"
            )
        w = np.real(
            effect[0, 0] * b0 * b0.conj()
            + effect[1, 1] * b1 * b1.conj()
            + effect[0, 1] * b1 * b0.conj()
            + effect[1, 0] * b0 * b1.conj()
        )
        num += float(weight) * float(np.sum(w * xprod))
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
    """
    plist, effect, overlap = _setup(state, projectors, post)
    _check_sim_resources(len(plist), cfg.grid_points)

    correlation = _correlation(state, plist, effect, cfg)
    pp = _pointer_pseudo_probability(state, plist, effect, overlap)
    gt = cfg.g * cfg.t
    scale = gt ** len(plist)
    ratio = correlation / scale if abs(scale) > 0 else math.nan

    doubled = 2 * cfg.grid_points
    refined = doubled if doubled <= _GRID_CAPS[len(plist)] else cfg.grid_points // 2
    other = _correlation(state, plist, effect, replace(cfg, grid_points=refined))
    estimate = abs(correlation - other) / max(abs(correlation), abs(other), 1e-300)

    return PointerResult(correlation, pp, ratio, estimate)


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
    sym = _ordered_moments([p.matrix for p in plist], "symmetrized")
    total = np.trace(effect @ sym @ state.matrix @ sym[::-1], axis1=1, axis2=2).sum()
    gt_half = cfg.g * cfg.t / 2.0
    return float(np.real(total)) * gt_half ** len(plist) / den


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
    the correlation is odd in g at order N.
    """
    gs = _sequence(couplings, "couplings", "numbers", float)
    if len(gs) < 3:
        raise InvalidInputError(f"need at least 3 coupling values, got {len(gs)}")
    plist, effect, overlap = _setup(state, projectors, post)
    _check_sim_resources(len(plist), cfg.grid_points)

    x = np.array([(g * cfg.t) ** len(plist) for g in gs])
    y = np.array([_correlation(state, plist, effect, replace(cfg, g=g)) for g in gs])
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
