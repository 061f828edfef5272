"""The grid-free pointer readout against an independent route: a plain momentum grid.

`_oracle_correlation` evolves each eigen-branch of the state on a periodic
momentum grid, with an exact 2x2 rotation per grid point, transforms back to
positions and reads out <x_1 ... x_N> after post-selection.  A grid wide enough
for the shifted Gaussians and fine enough to resolve them agrees with the
series to within its own spread.  Below a kick of about 0.1 the grid's own
rounding floor exceeds 1e-12 (two 2-pointer grids differ by 5e-12 at 0.01),
so the comparison starts at 0.3.
The other tests check the series where exact values are known, and its
refusals: a kick past the bound for its pointer count, and a series that would
need more orders than the cap.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import pplab.pointer
from pplab import (
    InvalidInputError,
    PointerConfig,
    ResourceLimitError,
    bloch_state,
    proportionality_check,
    qubit_projector,
    simulate_pointers,
)
from pplab.errors import ConvergenceError, PostSelectionImpossibleError
from pplab.geometry import _pauli_coordinates
from pplab.operator_core import SPECTRAL_TOL
from pplab.weak import OVERLAP_FLOOR

# Eigen-branches of the state below this weight are skipped.
BRANCH_FLOOR = 1e-14
# The largest accepted |g t / sigma| for 1, 2 and 3 pointers.
KICK_BOUNDS = {1: 5.0, 2: 3.0, 3: 2.0}


def _oracle_correlation(state, projectors, effect, cfg, n, half):
    """<x_1 ... x_N> on a momentum grid of n points per pointer over [-half, half) widths."""
    n_pointers = len(projectors)
    xs = np.linspace(-half, half, n, endpoint=False)
    dx = xs[1] - xs[0]
    ks = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)

    # Product of identical Gaussians, discretely normalized.
    psi1 = np.exp(-(xs ** 2) / 4.0).astype(complex)
    psi1 /= math.sqrt(float(np.sum(np.abs(psi1) ** 2)))
    phik = np.fft.fftn(functools.reduce(np.multiply.outer, [psi1] * n_pointers))

    # Each projector is c I + v . sigma with (c, v) = Tr(P sigma_mu)/2.
    comps = [_pauli_coordinates(p.matrix) / 2.0 for p in projectors]
    kgrids = np.meshgrid(*([ks] * n_pointers), indexing="ij")
    alpha = sum(cv[0] * kg for cv, kg in zip(comps, kgrids))
    beta = [sum(cv[a] * kg for cv, kg in zip(comps, kgrids)) for a in (1, 2, 3)]
    bnorm = np.sqrt(beta[0] ** 2 + beta[1] ** 2 + beta[2] ** 2)

    gt = cfg.g * cfg.t / cfg.sigma
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
                f"evolution lost unitarity (branch norm {norm:.12f}); widen the grid"
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


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# (pointers, grid points, half-width in pointer widths, inputs): each grid is converged
# for kicks up to 2, so its spread is far below the 1e-12 the series is held to.
WIDE_GRIDS = [(1, 4096, 40.0, 4), (2, 128, 16.0, 4), (3, 64, 14.0, 3)]


def _wide_cases():
    """Seeded pure and mixed states, projectors of either sign, diagonal and full effects,
    widths 0.5 to 2 and kicks g t / sigma in [0.3, 2] of either sign."""
    rng = np.random.default_rng(25)
    cases = []
    for n, points, half, count in WIDE_GRIDS:
        for i in range(count):
            state = bloch_state(_unit(rng) * (1.0 if i % 2 == 0 else rng.uniform(0.2, 0.9)))
            projectors = [qubit_projector(_unit(rng), int(rng.choice([-1, 1]))) for _ in range(n)]
            if i % 4 < 2:
                effect = np.diag(rng.uniform(0.1, 1.0, size=2)).astype(complex)
            else:
                effect = bloch_state(_unit(rng) * rng.uniform(0.3, 1.0)).matrix
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            kick = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
            cfg = PointerConfig(g=kick * sigma, t=1.0, sigma=sigma)
            cases.append((state, projectors, effect, cfg, points, half))
    return cases


@pytest.mark.parametrize("case", _wide_cases(), ids=lambda case: f"{len(case[1])}-pointers")
def test_the_series_agrees_with_a_converged_wide_grid(case):
    state, projectors, effect, cfg, points, half = case
    result = simulate_pointers(state, projectors, effect, cfg)
    plist, effect, _ = pplab.pointer._setup(state, projectors, effect)
    kick = cfg.g * cfg.t / cfg.sigma
    want = _oracle_correlation(state, plist, effect, cfg, points, half) / kick ** len(plist)
    assert abs(result.ratio - want) <= 1e-12
    assert result.convergence_estimate <= 1e-15


def test_one_pointer_with_an_identity_effect_reads_the_born_probability():
    # With E proportional to 1, <x> = (g t) Tr(P rho) at every kick: the ratio is Tr(P rho).
    rng = np.random.default_rng(26)
    bound = KICK_BOUNDS[1]
    for kick in [*np.linspace(-bound, bound, 41), 1e-9, 1e-3, -bound, bound]:
        if kick == 0.0:
            continue
        state = bloch_state(_unit(rng) * rng.uniform(0.0, 1.0))
        projector = qubit_projector(_unit(rng), int(rng.choice([-1, 1])))
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        effect = float(rng.uniform(0.1, 2.0)) * np.eye(2)
        result = simulate_pointers(state, [projector], effect, PointerConfig(g=kick * sigma, t=1.0, sigma=sigma))
        born = float(np.real(np.trace(state.matrix @ projector.matrix)))
        assert abs(result.ratio - born) <= (1e-14 if abs(kick) <= 2.0 else 1e-12), kick


def test_small_kicks_keep_the_leading_order_with_no_rounding_floor():
    # Bloch (0.6, 0, 0), z+ and x+, post-selected on Bloch (0.2, 0.1, 0.3): the leading
    # order is 0.515625, and the next is of relative order (g t)^2.
    state = bloch_state([0.6, 0.0, 0.0])
    projectors = [qubit_projector([0, 0, 1]), qubit_projector([1, 0, 0])]
    post = bloch_state([0.2, 0.1, 0.3])
    for g in (1e-6, 1e-8, 1e-10, 1e-12, 1e-15, 1e-20):
        result = simulate_pointers(state, projectors, post, PointerConfig(g=g, t=1.0))
        assert abs(result.ratio - 0.515625) <= 1e-12, g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_kick_past_the_bound_is_refused_by_name(n):
    state = bloch_state([0.3, 0.2, 0.5])
    projectors = [qubit_projector([0, 0, 1]), qubit_projector([1, 0, 0]), qubit_projector([0, 1, 0])][:n]
    bound = KICK_BOUNDS[n]
    assert math.isfinite(simulate_pointers(state, projectors, np.eye(2), PointerConfig(g=-bound, t=1.0)).ratio)
    over = math.nextafter(bound, math.inf)
    message = f"g * t / sigma = {over:.6g} is out of range: |g * t / sigma| must be at most {bound:g} for {n} pointers"
    with pytest.raises(InvalidInputError) as info:
        simulate_pointers(state, projectors, np.eye(2), PointerConfig(g=over, t=1.0))
    assert str(info.value) == message
    with pytest.raises(InvalidInputError, match=r"must be at most"):
        proportionality_check(state, projectors, np.eye(2), PointerConfig(g=0.1, t=1.0), [0.1, 0.2, 2 * bound])


def test_the_order_cap_refuses_before_the_series_is_built(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the series was built")

    monkeypatch.setattr(pplab.pointer, "_MAX_ORDER", 6)
    monkeypatch.setattr(pplab.pointer, "_word_sums", unbuilt)
    with pytest.raises(ResourceLimitError, match="needs more than 6 orders"):
        simulate_pointers(bloch_state([0.3, 0.2, 0.5]), [qubit_projector([0, 0, 1])], np.eye(2), PointerConfig(0.5, 1.0))
