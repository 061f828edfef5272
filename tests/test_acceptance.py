"""Acceptance battery: one test per shipped guarantee.

Each test pins either a closed-form target value or a structural property
of the library, at the tolerance the guarantee is stated for.  Run with
-v to get one pass/fail line per criterion.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from pplab import (
    ObservableSpec,
    PointerConfig,
    bloch_state,
    boolean_state_dep_test,
    build_scheme,
    chsh_test,
    discord_test,
    distributivity_test,
    evolve_scheme,
    expectation,
    game_score,
    linear_ent_test,
    make_entanglement_geometry,
    marginalize,
    min_eigen_certificate,
    nonlinear_ent_test,
    perturbative_prediction,
    pp_weak_factorization,
    proportionality_check,
    qubit_projector,
    simulate_pointers,
    symmetrized_pp,
    transition_matrix,
    unit_pp,
    werner_state,
)
from support import (
    ginibre_density,
    haar_projector,
    noncommuting_projector_pair,
    random_unit_vector,
    separable_two_qubit,
    zero_discord_state,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
MIXED = bloch_state([0.0, 0.0, 0.0])
X_PURE = bloch_state([1.0, 0.0, 0.0])
IDENTITY2 = np.eye(2, dtype=complex)


def _canonical_chsh(state):
    return chsh_test(
        state,
        ObservableSpec(0, axis=[1, 0, 0], label="A1"),
        ObservableSpec(0, axis=[0, 1, 0], label="A2"),
        ObservableSpec(1, axis=[INV_SQRT2, INV_SQRT2, 0], label="B1"),
        ObservableSpec(1, axis=[INV_SQRT2, -INV_SQRT2, 0], label="B2"),
    )


def _trine_projectors():
    axes = [
        [0.0, 0.0, 1.0],
        [math.sin(2 * math.pi / 3), 0.0, math.cos(2 * math.pi / 3)],
        [math.sin(4 * math.pi / 3), 0.0, math.cos(4 * math.pi / 3)],
    ]
    return [qubit_projector(a, +1) for a in axes]


def test_criterion_01_chsh_werner_closed_form():
    for eta in (0.8, 0.9, 1.0):
        report = _canonical_chsh(werner_state(eta))
        expected_entry = (1.0 - eta * math.sqrt(2.0)) / 8.0
        assert len(report.pseudo_probabilities) == 4
        for value in report.pseudo_probabilities.values():
            assert value == pytest.approx(expected_entry, abs=1e-10)
        assert len(report.weak_terms) == 4
        for term in report.weak_terms:
            assert term.weak_value is not None and term.weak_value < 0.0
        assert report.extras["chsh_value"] == pytest.approx(
            -2.0 * math.sqrt(2.0) * eta, abs=1e-10
        )


def test_criterion_02_chsh_verdict_boundary():
    eps = 1e-9
    below = _canonical_chsh(werner_state(INV_SQRT2 - eps))
    above = _canonical_chsh(werner_state(INV_SQRT2 + eps))
    assert below.verdict is False
    assert above.verdict is True


def test_criterion_03_linear_inequality_one():
    geom = make_entanglement_geometry(2.0 * math.pi / 3.0)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        report = linear_ent_test(werner_state(eta), geom, "I")
        for value in report.pseudo_probabilities.values():
            assert value == pytest.approx((0.5 - eta) / 8.0, abs=1e-10)
        assert report.verdict == (eta > 0.5)
    eps = 1e-9
    assert linear_ent_test(werner_state(0.5 + eps), geom, "I").verdict is True
    assert linear_ent_test(werner_state(0.5 - eps), geom, "I").verdict is False


def test_criterion_04_linear_inequality_two_flip_and_note():
    geom = make_entanglement_geometry(math.acos(-7.0 / 9.0))
    eps = 1e-9
    assert linear_ent_test(werner_state(1.0 / 3.0 + eps), geom, "II").verdict is True
    assert linear_ent_test(werner_state(1.0 / 3.0 - eps), geom, "II").verdict is False
    for eta in (0.2, 0.6, 1.0):
        report = linear_ent_test(werner_state(eta), geom, "II")
        for value in report.pseudo_probabilities.values():
            assert value == pytest.approx((1.0 / 3.0 - eta) / 12.0, abs=1e-10)
        # the constructive per-entry magnitude differs from the commonly
        # quoted two-axis form; the report must say so
        assert "quoted_form_note" in report.extras


def test_criterion_05_nonlinear_one_singlet_and_separable_floor():
    geom = make_entanglement_geometry(math.pi / 2.0)
    report = nonlinear_ent_test(werner_state(1.0), geom, "I")
    assert report.statistic == pytest.approx(-0.125, abs=1e-10)
    rng = np.random.default_rng(505)
    for _ in range(1000):
        rho = separable_two_qubit(rng)
        assert nonlinear_ent_test(rho, geom, "I").statistic >= -1e-10


def test_criterion_06_nonlinear_three_dual_route():
    geom = make_entanglement_geometry(math.acos(-79.0 / 81.0))
    rng = np.random.default_rng(506)
    for _ in range(100):
        rho = ginibre_density(rng, 4)
        report = nonlinear_ent_test(rho, geom, "III")
        assert report.statistic == pytest.approx(
            report.extras["pauli_closed_form"], abs=1e-10
        )


def test_criterion_07_game_evolution_and_monoid():
    evolved = evolve_scheme((0.5, 0.0, 0.5, 0.0), math.pi / 4.0)
    expected = (
        0.25,
        0.25,
        0.25 * (1.0 + math.sqrt(2.0)),
        0.25 * (1.0 - math.sqrt(2.0)),
    )
    assert np.max(np.abs(np.asarray(evolved) - np.asarray(expected))) <= 1e-12
    assert game_score(evolved) == pytest.approx(0.25 * (3.0 + math.sqrt(2.0)), abs=1e-12)
    rng = np.random.default_rng(507)
    for _ in range(100):
        t1, t2 = (float(x) for x in rng.uniform(-8.0, 8.0, size=2))
        gap = transition_matrix(t1) @ transition_matrix(t2) - transition_matrix(t1 + t2)
        assert np.max(np.abs(gap)) <= 1e-12


def test_criterion_08_boolean_logic_and_distributivity():
    a1, a2 = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    assert boolean_state_dep_test(MIXED, a1, a2).statistic == pytest.approx(0.0, abs=1e-12)
    assert boolean_state_dep_test(X_PURE, a1, a2).statistic == pytest.approx(0.125, abs=1e-12)
    # four-factor symmetrization is a multiple of the identity: its expectation
    # cannot depend on the state
    rng = np.random.default_rng(508)
    for axes in ((a1, a2), (a1, [0.6, 0.0, 0.8])):
        factors = [
            qubit_projector(axes[0], +1),
            qubit_projector(axes[1], +1),
            qubit_projector(axes[0], -1),
            qubit_projector(axes[1], -1),
        ]
        op = symmetrized_pp(factors).matrix
        k = float(np.dot(axes[0], axes[1]))
        target = (k * k - 1.0) / 24.0
        for _ in range(50):
            rho = ginibre_density(rng, 2)
            assert float(np.real(expectation(rho, op))) == pytest.approx(target, abs=1e-12)
    gap = distributivity_test(bloch_state([0, 0, -1.0]), a1, a2, a2)
    assert gap.statistic == pytest.approx(0.25, abs=1e-12)


def test_criterion_09_trine_expectation():
    op = symmetrized_pp(_trine_projectors()).matrix
    assert float(np.real(expectation(MIXED, op))) == pytest.approx(-1.0 / 16.0, abs=1e-12)
    assert np.max(np.abs(op + np.eye(2) / 16.0)) <= 1e-12


def test_criterion_10_factorization_identity():
    rng = np.random.default_rng(510)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        rho = ginibre_density(rng, dim)
        factors = [haar_projector(rng, dim) for _ in range(n)]
        out = pp_weak_factorization(rho, factors)
        assert out["identity_residual"] <= 1e-10
        pair = pp_weak_factorization(rho, factors[:2])
        assert pair["born_factor"] > 0.0
        if abs(pair["pseudo_probability"]) > 1e-12:
            assert (pair["pseudo_probability"] < 0.0) == (pair["weak_factor"] < 0.0)


def test_criterion_11_negative_eigenvalue_certificates():
    rng = np.random.default_rng(511)
    for _ in range(1000):
        p1, p2 = noncommuting_projector_pair(rng, 2, floor=1e-6)
        value, _ = min_eigen_certificate(unit_pp([p1, p2]))
        assert value < -1e-12
    for _ in range(100):
        while True:
            ps = [haar_projector(rng, 4) for _ in range(3)]
            comms = [
                np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix)
                for a, b in itertools.combinations(ps, 2)
            ]
            if min(comms) >= 1e-6:
                break
        value, _ = min_eigen_certificate(unit_pp(ps))
        assert value < -1e-12


def test_criterion_12_discord_branches():
    rng = np.random.default_rng(512)
    alphas = np.linspace(0.05, math.pi - 0.05, 30)
    for _ in range(100):
        rho = zero_discord_state(rng)
        for alpha in alphas:
            report = discord_test(rho, float(alpha))
            # at least one branch stays classical: the max cannot go negative
            assert report.statistic >= -1e-10
    frozen = -0.04489510677581863
    report = discord_test(werner_state(1.0), 3.0 * math.pi / 4.0)
    assert report.pseudo_probabilities["branch_1"] == pytest.approx(frozen, abs=1e-10)
    assert report.pseudo_probabilities["branch_2"] == pytest.approx(frozen, abs=1e-10)


def test_criterion_13_pointer_weak_limit_and_slope_signs():
    cfg = PointerConfig(g=0.05, t=1.0, sigma=1.0)
    projectors = [qubit_projector([0, 0, 1], +1), qubit_projector([1, 0, 0], +1)]
    result = simulate_pointers(MIXED, projectors, IDENTITY2, cfg)
    pert = perturbative_prediction(MIXED, projectors, IDENTITY2, cfg)
    assert abs(result.correlation - pert) <= 0.05 * abs(pert)
    positive = proportionality_check(
        MIXED, projectors, IDENTITY2, cfg, couplings=[0.02, 0.04, 0.06, 0.08]
    )
    assert positive["pseudo_probability"] > 0.0
    assert positive["fitted_slope"] > 0.0
    negative = proportionality_check(
        MIXED, _trine_projectors(), IDENTITY2, cfg, couplings=[0.03, 0.05, 0.07]
    )
    assert negative["pseudo_probability"] < 0.0
    assert negative["fitted_slope"] < 0.0


def test_criterion_14_scheme_normalization_and_marginals():
    rng = np.random.default_rng(514)

    def _single_observable_entries(sch, keep):
        reduced = sch
        position = keep
        while reduced.n_observables > 1:
            drop = 0 if position != 0 else 1
            reduced = marginalize(reduced, drop)
            if drop < position:
                position -= 1
        return reduced

    for trial in range(500):
        two_sided = trial % 2 == 1
        if two_sided:
            n = int(rng.integers(2, 5))
            state = ginibre_density(rng, 4)
            subsystems = [0, 1] + [int(rng.integers(0, 2)) for _ in range(n - 2)]
        else:
            n = int(rng.integers(1, 5))
            state = ginibre_density(rng, 2)
            subsystems = [0] * n
        observables = [
            ObservableSpec(sub, axis=random_unit_vector(rng)) for sub in subsystems
        ]
        prescription = "symmetrized" if trial % 3 == 0 else "unit"
        sch = build_scheme(state, observables, prescription)
        assert sum(sch.entries.values()) == pytest.approx(1.0, abs=1e-10)
        for keep in range(n):
            reduced = _single_observable_entries(sch, keep)
            obs = observables[keep]
            proj = qubit_projector(obs.axis, +1).matrix
            if two_sided:
                full = np.kron(proj, np.eye(2)) if obs.subsystem == 0 else np.kron(np.eye(2), proj)
            else:
                full = proj
            born_plus = float(np.real(expectation(state, full)))
            assert reduced.entry((+1,)) == pytest.approx(born_plus, abs=1e-10)
            assert reduced.entry((-1,)) == pytest.approx(1.0 - born_plus, abs=1e-10)
