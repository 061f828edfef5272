from __future__ import annotations

import math

import numpy as np
import pytest

import pplab.pointer
from pplab import (
    expectation,
    InvalidInputError,
    PointerConfig,
    PostSelectionImpossibleError,
    ResourceLimitError,
    bloch_state,
    perturbative_prediction,
    proportionality_check,
    qubit_projector,
    simulate_pointers,
    symmetrized_pp,
)
from support import ginibre_density, haar_projector, random_unit_vector

Z_PLUS = qubit_projector([0, 0, 1], +1)
Z_MINUS = qubit_projector([0, 0, 1], -1)
X_PLUS = qubit_projector([1, 0, 0], +1)
IDENTITY = np.eye(2, dtype=complex)
MIXED = bloch_state([0, 0, 0])
X_PURE = bloch_state([1, 0, 0])


def _trine_projectors():
    axes = [
        [0, 0, 1],
        [math.sin(2 * math.pi / 3), 0, math.cos(2 * math.pi / 3)],
        [math.sin(4 * math.pi / 3), 0, math.cos(4 * math.pi / 3)],
    ]
    return [qubit_projector(a, +1) for a in axes]


# --- configuration validation -------------------------------------------------

def test_config_rejects_non_power_of_two_grid():
    with pytest.raises(InvalidInputError):
        PointerConfig(g=0.1, t=1.0, grid_points=100)


def test_config_rejects_tiny_grid():
    with pytest.raises(InvalidInputError):
        PointerConfig(g=0.1, t=1.0, grid_points=16)


def test_config_rejects_narrow_window():
    with pytest.raises(InvalidInputError):
        PointerConfig(g=0.1, t=1.0, grid_halfwidth=4.0)


def test_config_rejects_bad_sigma_and_time():
    with pytest.raises(InvalidInputError):
        PointerConfig(g=0.1, t=1.0, sigma=0.0)
    with pytest.raises(InvalidInputError):
        PointerConfig(g=0.1, t=-1.0)
    with pytest.raises(InvalidInputError):
        PointerConfig(g=math.nan, t=1.0)


# --- resource guards ----------------------------------------------------------

def test_simulation_refuses_more_than_three_pointers():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=32)
    with pytest.raises(ResourceLimitError):
        simulate_pointers(MIXED, [Z_PLUS, X_PLUS, Z_MINUS, X_PLUS], IDENTITY, cfg)


def test_simulation_enforces_per_count_grid_caps():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=256)
    with pytest.raises(ResourceLimitError):
        simulate_pointers(MIXED, [Z_PLUS, X_PLUS], IDENTITY, cfg)
    cfg3 = PointerConfig(g=0.05, t=1.0, grid_points=128)
    with pytest.raises(ResourceLimitError):
        simulate_pointers(MIXED, [Z_PLUS, X_PLUS, Z_MINUS], IDENTITY, cfg3)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("grid", [2 ** k for k in range(5, 14)])
def test_grid_cap_is_the_only_grid_bound(n, grid):
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=grid)
    projectors = [Z_PLUS, X_PLUS, Z_MINUS][:n]
    if grid > pplab.pointer._GRID_CAPS[n]:
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            simulate_pointers(X_PURE, projectors, IDENTITY, cfg)
    else:
        assert math.isfinite(simulate_pointers(X_PURE, projectors, IDENTITY, cfg).convergence_estimate)


def test_post_selection_on_orthogonal_effect_fails():
    cfg = PointerConfig(g=0.02, t=1.0, grid_points=64)
    rho = bloch_state([0, 0, 1.0])
    with pytest.raises(PostSelectionImpossibleError):
        simulate_pointers(rho, [Z_PLUS], Z_MINUS, cfg)


def test_perturbative_pointer_cap():
    cfg = PointerConfig(g=0.1, t=1.0)
    with pytest.raises(ResourceLimitError):
        perturbative_prediction(MIXED, [Z_PLUS] * 7, IDENTITY, cfg)


# --- frozen examples ----------------------------------------------------------

def test_two_pointer_example_matches_perturbative():
    cfg = PointerConfig(g=0.05, t=1.0, sigma=1.0, grid_points=64)
    result = simulate_pointers(MIXED, [Z_PLUS, X_PLUS], IDENTITY, cfg)
    assert result.pseudo_probability == pytest.approx(0.25, abs=1e-12)
    pert = perturbative_prediction(MIXED, [Z_PLUS, X_PLUS], IDENTITY, cfg)
    assert abs(result.correlation - pert) <= 0.05 * abs(pert)
    assert result.ratio == pytest.approx(0.25, rel=5e-2)
    assert result.convergence_estimate < 0.01


def test_single_pointer_reduces_to_conditional_probability():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=256)
    rho = bloch_state([0, 0, 0.6])
    result = simulate_pointers(rho, [Z_PLUS], IDENTITY, cfg)
    # one commuting pointer: mean shift is just g t times the Born probability
    assert result.ratio == pytest.approx(0.8, rel=2e-2)
    assert result.pseudo_probability == pytest.approx(0.8, abs=1e-12)


def test_identity_post_collapses_perturbative_to_symmetrized_average():
    rng = np.random.default_rng(109)
    cfg = PointerConfig(g=0.07, t=1.0)
    for n in (2, 3):
        rho = ginibre_density(rng, 2)
        projectors = [qubit_projector(random_unit_vector(rng), +1) for _ in range(n)]
        pert = perturbative_prediction(rho, projectors, IDENTITY, cfg)
        pp = float(np.real(expectation(rho, symmetrized_pp(projectors).matrix)))
        assert pert == pytest.approx((0.07 ** n) * pp, abs=1e-12)


def test_three_pointer_sign_matches_symmetrized_value():
    cfg = PointerConfig(g=0.1, t=1.0, grid_points=64)
    result = simulate_pointers(X_PURE, [Z_PLUS, X_PLUS, Z_MINUS], IDENTITY, cfg)
    assert result.pseudo_probability == pytest.approx(1 / 12, abs=1e-12)
    assert math.copysign(1.0, result.correlation) == 1.0


def test_grid_doubling_is_converged_at_default():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    result = simulate_pointers(X_PURE, [Z_PLUS, X_PLUS], IDENTITY, cfg)
    cfg2 = PointerConfig(g=0.05, t=1.0, grid_points=128)
    result2 = simulate_pointers(X_PURE, [Z_PLUS, X_PLUS], IDENTITY, cfg2)
    assert abs(result.correlation - result2.correlation) <= 0.01 * abs(result2.correlation)


def test_weak_limit_agreement_over_random_configurations():
    rng = np.random.default_rng(113)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 200:
        attempts += 1
        n = int(rng.integers(1, 3))
        rho = ginibre_density(rng, 2)
        projectors = [qubit_projector(random_unit_vector(rng), +1) for _ in range(n)]
        post = haar_projector(rng, 2)
        if float(np.real(expectation(rho, post.matrix))) < 0.1:
            continue
        gt = float(rng.uniform(0.02, 0.1))
        cfg = PointerConfig(g=gt, t=1.0, grid_points=128 if n == 2 else 512)
        pert = perturbative_prediction(rho, projectors, post.matrix, cfg)
        if abs(pert) < 1e-4:
            continue
        result = simulate_pointers(rho, projectors, post.matrix, cfg)
        assert abs(result.correlation - pert) <= 0.05 * abs(pert)
        checked += 1
    assert checked == 20


def test_proportionality_positive_case():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    out = proportionality_check(
        MIXED, [Z_PLUS, X_PLUS], IDENTITY, cfg, couplings=[0.02, 0.04, 0.06, 0.08]
    )
    assert out["pseudo_probability"] == pytest.approx(0.25, abs=1e-12)
    assert out["fitted_slope"] > 0
    assert out["relative_deviation"] < 0.05


def test_proportionality_trine_slope_is_negative():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    out = proportionality_check(
        MIXED, _trine_projectors(), IDENTITY, cfg, couplings=[0.03, 0.05, 0.07]
    )
    assert out["pseudo_probability"] == pytest.approx(-0.0625, abs=1e-12)
    assert out["fitted_slope"] < 0


def test_proportionality_needs_three_couplings():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    with pytest.raises(InvalidInputError):
        proportionality_check(X_PURE, [Z_PLUS, X_PLUS], IDENTITY, cfg, couplings=[0.02, 0.04])


def test_proportionality_runs_the_kernel_once_per_coupling(monkeypatch):
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    couplings = [0.02, 0.04, 0.06]
    correlations = [
        simulate_pointers(MIXED, [Z_PLUS, X_PLUS], IDENTITY, PointerConfig(g=g, t=1.0)).correlation
        for g in couplings
    ]
    kernel = pplab.pointer._correlation
    calls = []

    def counting(*args):
        calls.append(args[-1].g)
        return kernel(*args)

    monkeypatch.setattr(pplab.pointer, "_correlation", counting)
    out = proportionality_check(MIXED, [Z_PLUS, X_PLUS], IDENTITY, cfg, couplings=couplings)
    assert calls == couplings
    x = np.array(couplings) ** 2
    assert out["fitted_slope"] == float(x @ np.array(correlations)) / float(x @ x)


def test_perturbative_vanishes_at_zero_coupling():
    cfg = PointerConfig(g=0.0, t=1.0)
    assert perturbative_prediction(X_PURE, [Z_PLUS, X_PLUS], IDENTITY, cfg) == 0.0


def test_four_pointer_route_is_perturbative_only():
    rng = np.random.default_rng(127)
    rho = ginibre_density(rng, 2)
    projectors = [qubit_projector(random_unit_vector(rng), +1) for _ in range(4)]
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=32)
    value = perturbative_prediction(rho, projectors, IDENTITY, cfg)
    pp = float(np.real(expectation(rho, symmetrized_pp(projectors).matrix)))
    assert value == pytest.approx((0.05 ** 4) * pp, abs=1e-14)
    with pytest.raises(ResourceLimitError):
        simulate_pointers(rho, projectors, IDENTITY, cfg)


def test_simulation_requires_qubit_system():
    cfg = PointerConfig(g=0.05, t=1.0, grid_points=64)
    rng = np.random.default_rng(131)
    rho4 = ginibre_density(rng, 4)
    proj4 = haar_projector(rng, 4)
    with pytest.raises(InvalidInputError):
        simulate_pointers(rho4, [proj4], np.eye(4, dtype=complex), cfg)


def test_config_keeps_the_values_it_validated():
    cfg = PointerConfig(g=np.array(0.1), t=True, sigma=np.float32(1.5), grid_points=np.int64(64))
    assert (cfg.g, cfg.t, cfg.sigma, cfg.grid_points) == (0.1, 1.0, 1.5, 64)
    assert [type(v) for v in (cfg.g, cfg.t, cfg.sigma, cfg.grid_halfwidth, cfg.grid_points)] == [float] * 4 + [int]


def test_post_selection_lost_during_evolution_is_refused():
    # The overlap 1.8e-12 is above OVERLAP_FLOOR before evolution; the strong x
    # coupling halves it, so the weight the pointers see falls below the floor.
    post = np.diag([1.8e-12, 0.0])
    with pytest.raises(PostSelectionImpossibleError, match="vanished after evolution"):
        simulate_pointers(bloch_state([0, 0, 1]), [X_PLUS], post, PointerConfig(5.0, 1.0))
