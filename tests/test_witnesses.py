from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix,
    InvalidInputError,
    ObservableSpec,
    bloch_state,
    boolean_state_dep_test,
    boolean_state_indep_test,
    chsh_test,
    coherence_test,
    discord_test,
    distributivity_test,
    linear_ent_test,
    make_doublet,
    make_entanglement_geometry,
    nonlinear_ent_test,
    statistic_from_terms,
    werner_state,
)
from support import ginibre_density, random_unit_vector, separable_two_qubit

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _canonical_chsh(state):
    return chsh_test(
        state,
        ObservableSpec(0, axis=[1, 0, 0], label="A1"),
        ObservableSpec(0, axis=[0, 1, 0], label="A2"),
        ObservableSpec(1, axis=[INV_SQRT2, INV_SQRT2, 0], label="B1"),
        ObservableSpec(1, axis=[INV_SQRT2, -INV_SQRT2, 0], label="B2"),
    )


def _assert_self_consistent(report):
    recombined = statistic_from_terms(report.weak_terms, report.statistic_rule)
    assert recombined == pytest.approx(report.statistic, abs=1e-10)
    assert report.extras is not None


def _assert_dual_route(report, key="pauli_closed_form"):
    assert report.statistic == pytest.approx(report.extras[key], abs=1e-10)


# --- coherence ---------------------------------------------------------------

def test_coherence_frozen_example():
    rho = bloch_state([0.8, 0, 0])
    d = make_doublet([-1.0, 0.0, 0.0], math.pi / 2)
    report = coherence_test(rho, d.n1, d.n2)
    assert report.statistic == pytest.approx(-0.03284271247461901, abs=1e-12)
    assert report.verdict
    assert report.verdict_rule == "negative"
    _assert_self_consistent(report)
    _assert_dual_route(report)


def test_coherence_bisector_aligned_states_never_flag():
    # statistic is (c/2)(c + p . axis) for a doublet of aperture alpha around
    # axis; polarization along the bisector can only raise it
    rng = np.random.default_rng(61)
    for _ in range(30):
        axis = random_unit_vector(rng)
        r = rng.uniform(0.0, 1.0)
        rho = bloch_state(r * axis)
        alpha = rng.uniform(0.1, math.pi - 0.1)
        d = make_doublet(axis, alpha)
        report = coherence_test(rho, d.n1, d.n2)
        assert report.statistic >= -1e-12
        assert not report.verdict


def test_coherence_flags_exactly_when_antialigned_beyond_aperture():
    axis = np.array([0.0, 0.0, 1.0])
    alpha = math.pi / 2
    c = math.cos(alpha / 2)
    d = make_doublet(axis, alpha)
    for p in (-0.9, -0.8, -0.6, 0.2):
        report = coherence_test(bloch_state([0, 0, p]), d.n1, d.n2)
        expected = 0.5 * c * (c + p)
        assert report.statistic == pytest.approx(expected, abs=1e-12)
        assert report.verdict == (p < -c)


def test_coherence_dual_route_random():
    rng = np.random.default_rng(67)
    for _ in range(50):
        rho = ginibre_density(rng, 2)
        report = coherence_test(rho, random_unit_vector(rng), random_unit_vector(rng))
        _assert_dual_route(report)
        _assert_self_consistent(report)


def test_coherence_rejects_two_qubit_state():
    with pytest.raises(InvalidInputError):
        coherence_test(werner_state(0.5), [0, 0, 1], [1, 0, 0])


# --- Boolean logic -----------------------------------------------------------

def test_boolean_state_dep_frozen_values():
    mixed = bloch_state([0, 0, 0])
    xpure = bloch_state([1, 0, 0])
    r1 = boolean_state_dep_test(mixed, [0, 0, 1], [1, 0, 0])
    assert r1.statistic == pytest.approx(0.0, abs=1e-14)
    assert not r1.verdict
    r2 = boolean_state_dep_test(xpure, [0, 0, 1], [1, 0, 0])
    assert r2.statistic == pytest.approx(0.125, abs=1e-14)
    assert r2.verdict
    assert r2.pseudo_probabilities["flat_unit"] == pytest.approx(0.25, abs=1e-14)
    _assert_self_consistent(r2)
    _assert_dual_route(r2)


def test_boolean_state_dep_dual_route_random():
    rng = np.random.default_rng(71)
    for _ in range(50):
        rho = ginibre_density(rng, 2)
        report = boolean_state_dep_test(rho, random_unit_vector(rng), random_unit_vector(rng))
        _assert_dual_route(report)
        _assert_self_consistent(report)
        assert report.pseudo_probabilities["flat_unit"] == pytest.approx(
            2 * report.statistic, abs=1e-12
        )


def test_boolean_state_indep_orthogonal_axes():
    report = boolean_state_indep_test([0, 0, 1], [1, 0, 0])
    assert report.statistic == pytest.approx(-1.0 / 24.0, abs=1e-14)
    assert report.extras["state_independence_spread"] <= 1e-12
    assert report.verdict
    assert report.extras["quoted_closed_form"] == pytest.approx(-1.0 / 24.0, abs=1e-14)
    assert "quoted_form_note" not in report.extras
    _assert_self_consistent(report)
    _assert_dual_route(report)


def test_boolean_state_indep_skew_axes_documents_quoted_form():
    report = boolean_state_indep_test([0, 0, 1], [0.6, 0, 0.8])
    k = 0.8
    assert report.statistic == pytest.approx((k * k - 1) / 24.0, abs=1e-12)
    assert "quoted_form_note" in report.extras
    _assert_self_consistent(report)


# --- distributivity ----------------------------------------------------------

def test_distributivity_frozen_gap():
    rho = bloch_state([0, 0, -1.0])
    report = distributivity_test(rho, [0, 0, 1], [1, 0, 0], [1, 0, 0])
    assert report.statistic == pytest.approx(0.25, abs=1e-14)
    assert report.verdict
    assert report.verdict_rule == "magnitude"
    _assert_self_consistent(report)


def test_distributivity_gap_is_traceless():
    rng = np.random.default_rng(73)
    for _ in range(30):
        report = distributivity_test(
            bloch_state([0, 0, 0]),
            random_unit_vector(rng),
            random_unit_vector(rng),
            random_unit_vector(rng),
        )
        assert report.extras["gap_trace"] == pytest.approx(0.0, abs=1e-12)
        assert report.statistic == pytest.approx(0.0, abs=1e-12)
        _assert_self_consistent(report)


def test_distributivity_dual_route_random():
    rng = np.random.default_rng(79)
    for _ in range(50):
        rho = ginibre_density(rng, 2)
        report = distributivity_test(
            rho, random_unit_vector(rng), random_unit_vector(rng), random_unit_vector(rng)
        )
        _assert_dual_route(report)
        _assert_self_consistent(report)


# --- CHSH --------------------------------------------------------------------

def test_chsh_werner_frozen_values():
    report = _canonical_chsh(werner_state(1.0))
    assert report.statistic == pytest.approx(0.5 * (1 - math.sqrt(2)), abs=1e-12)
    assert report.extras["chsh_value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    for entry in report.pseudo_probabilities.values():
        assert entry == pytest.approx((1 - math.sqrt(2)) / 8, abs=1e-12)
    for term in report.weak_terms:
        assert term.born_factor == pytest.approx(0.25 * (1 - INV_SQRT2), abs=1e-12)
        assert term.weak_value == pytest.approx(-INV_SQRT2, abs=1e-12)
    _assert_self_consistent(report)
    _assert_dual_route(report)


def test_chsh_dual_route_random():
    rng = np.random.default_rng(79)
    for _ in range(30):
        rho = ginibre_density(rng, 4)
        report = _canonical_chsh(rho)
        _assert_dual_route(report)
        _assert_self_consistent(report)


def test_chsh_separable_states_stay_nonnegative():
    rng = np.random.default_rng(83)
    for _ in range(100):
        report = _canonical_chsh(separable_two_qubit(rng))
        assert report.statistic >= -1e-10


def test_chsh_rejects_wrong_subsystems():
    with pytest.raises(InvalidInputError):
        chsh_test(
            werner_state(1.0),
            ObservableSpec(1, axis=[1, 0, 0]),
            ObservableSpec(0, axis=[0, 1, 0]),
            ObservableSpec(1, axis=[1, 0, 0]),
            ObservableSpec(1, axis=[0, 1, 0]),
        )


# --- entanglement inequalities ----------------------------------------------

def test_linear_one_werner_closed_form():
    geom = make_entanglement_geometry(2 * math.pi / 3)
    for eta in (0.3, 0.6, 0.9):
        report = linear_ent_test(werner_state(eta), geom, "I")
        for value in report.pseudo_probabilities.values():
            assert value == pytest.approx((0.5 - eta) / 8, abs=1e-12)
        assert report.statistic == pytest.approx(0.5 * (0.5 - eta), abs=1e-12)
        assert report.verdict == (eta > 0.5)
        _assert_dual_route(report)
        _assert_self_consistent(report)


def test_linear_two_werner_closed_form_and_note():
    geom = make_entanglement_geometry(math.acos(-7 / 9))
    for eta in (0.2, 0.5, 0.9):
        report = linear_ent_test(werner_state(eta), geom, "II")
        for value in report.pseudo_probabilities.values():
            assert value == pytest.approx((1 / 3 - eta) / 12, abs=1e-12)
        assert report.statistic == pytest.approx(0.5 * (1 / 3 - eta), abs=1e-12)
        assert "quoted_form_note" in report.extras
        _assert_dual_route(report)
        _assert_self_consistent(report)


def test_linear_separable_floor():
    rng = np.random.default_rng(89)
    geom1 = make_entanglement_geometry(2 * math.pi / 3)
    geom2 = make_entanglement_geometry(math.acos(-7 / 9))
    for _ in range(100):
        rho = separable_two_qubit(rng)
        assert linear_ent_test(rho, geom1, "I").statistic >= -1e-10
        assert linear_ent_test(rho, geom2, "II").statistic >= -1e-10


def test_linear_alpha_window_warning():
    geom = make_entanglement_geometry(3.0)
    report = linear_ent_test(werner_state(0.5), geom, "I")
    assert report.warnings
    inside = linear_ent_test(werner_state(0.5), make_entanglement_geometry(1.0), "I")
    assert not inside.warnings


def test_nonlinear_one_and_two_singlet_values():
    w = werner_state(1.0)
    r1 = nonlinear_ent_test(w, make_entanglement_geometry(math.pi / 2), "I")
    assert r1.statistic == pytest.approx(-0.125, abs=1e-12)
    r2 = nonlinear_ent_test(w, make_entanglement_geometry(math.acos(-1 / 3)), "II")
    assert r2.statistic == pytest.approx(-1 / 6, abs=1e-12)
    for r in (r1, r2):
        assert r.verdict
        _assert_dual_route(r)
        _assert_self_consistent(r)


def test_nonlinear_three_singlet_value():
    w = werner_state(1.0)
    report = nonlinear_ent_test(w, make_entanglement_geometry(math.acos(-79 / 81)), "III")
    assert report.statistic == pytest.approx(-1 / 9, abs=1e-12)
    assert report.verdict
    _assert_dual_route(report)
    _assert_self_consistent(report)


def test_nonlinear_dual_route_random_states():
    rng = np.random.default_rng(97)
    geoms = {
        "I": make_entanglement_geometry(math.pi / 2),
        "II": make_entanglement_geometry(math.acos(-1 / 3)),
        "III": make_entanglement_geometry(math.acos(-79 / 81)),
    }
    for _ in range(30):
        rho = ginibre_density(rng, 4)
        for variant, geom in geoms.items():
            report = nonlinear_ent_test(rho, geom, variant)
            _assert_dual_route(report)
            _assert_self_consistent(report)


def test_nonlinear_separable_floor():
    rng = np.random.default_rng(101)
    geom = make_entanglement_geometry(math.pi / 2)
    for _ in range(100):
        rho = separable_two_qubit(rng)
        assert nonlinear_ent_test(rho, geom, "I").statistic >= -1e-10


def test_entanglement_tests_reject_bad_variant_and_dim():
    geom = make_entanglement_geometry(1.0)
    with pytest.raises(InvalidInputError):
        linear_ent_test(werner_state(0.5), geom, "III")
    with pytest.raises(InvalidInputError):
        nonlinear_ent_test(werner_state(0.5), geom, "IV")
    with pytest.raises(InvalidInputError):
        linear_ent_test(bloch_state([0, 0, 0.5]), geom, "I")


# --- discord -----------------------------------------------------------------

def test_discord_werner_frozen_value():
    report = discord_test(werner_state(1.0), 3 * math.pi / 4)
    expected = 0.5 * math.cos(3 * math.pi / 8) * (2 * math.cos(3 * math.pi / 8) - 1)
    assert expected == pytest.approx(-0.04489510677581863, abs=1e-15)
    assert report.statistic == pytest.approx(expected, abs=1e-10)
    assert report.pseudo_probabilities["branch_1"] == pytest.approx(expected, abs=1e-10)
    assert report.pseudo_probabilities["branch_2"] == pytest.approx(expected, abs=1e-10)
    assert report.verdict
    assert report.statistic_rule == "max_group_sum"
    assert report.extras["degenerate_marginal"]
    _assert_self_consistent(report)


def test_discord_dual_route_random():
    rng = np.random.default_rng(103)
    for _ in range(30):
        rho = ginibre_density(rng, 4)
        alpha = rng.uniform(0.2, math.pi - 0.2)
        report = discord_test(rho, alpha)
        for group in (1, 2):
            branch = sum(
                t.coefficient * t.pseudo_probability for t in report.weak_terms if t.group == group
            )
            assert branch == pytest.approx(
                report.extras[f"branch_{group}_closed_form"], abs=1e-10
            )
        _assert_self_consistent(report)


def test_discord_zero_discord_states_keep_one_branch_nonnegative():
    rng = np.random.default_rng(107)
    from support import zero_discord_state

    for _ in range(25):
        rho = zero_discord_state(rng)
        for alpha in np.linspace(0.1, math.pi - 0.1, 12):
            report = discord_test(rho, float(alpha))
            assert report.statistic >= -1e-10


def test_discord_rejects_bad_alpha():
    with pytest.raises(InvalidInputError):
        discord_test(werner_state(1.0), 0.0)
    with pytest.raises(InvalidInputError):
        discord_test(werner_state(1.0), math.pi)


def test_weak_terms_zero_born_reports_none():
    # pre-state orthogonal to the leading projector: Born factor 0, weak value
    # undefined, pseudo-probability an exact zero
    rho = bloch_state([0, 0, -1.0])
    report = boolean_state_dep_test(rho, [0, 0, 1], [1, 0, 0])
    for term in report.weak_terms:
        assert term.born_factor <= 1e-12
        assert term.weak_value is None
        assert term.pseudo_probability == 0.0
    assert report.statistic == pytest.approx(0.0, abs=1e-14)


# --- cross-route agreement and the rank-2 Born floor ----------------------

def test_linear_dual_route_random():
    rng = np.random.default_rng(109)
    for _ in range(30):
        rho = ginibre_density(rng, 4)
        geom = make_entanglement_geometry(rng.uniform(0.2, math.pi - 0.2))
        for variant in ("I", "II"):
            report = linear_ent_test(rho, geom, variant)
            _assert_dual_route(report)
            _assert_self_consistent(report)


def test_boolean_state_indep_dual_route_random():
    rng = np.random.default_rng(113)
    for _ in range(30):
        report = boolean_state_indep_test(random_unit_vector(rng), random_unit_vector(rng))
        _assert_dual_route(report)
        _assert_self_consistent(report)
        assert report.extras["state_independence_spread"] <= 1e-12


def _born_just_above_floor(doublet, side, other):
    """Two-qubit state whose `side` qubit has Born factor 1.5e-12 on the
    doublet's n1 projector: above OVERLAP_FLOOR, while the rank-2 lead on two
    qubits puts the post-selection overlap at 7.5e-13, below it."""
    near = bloch_state(-doublet.n1 * (1 - 3e-12)).matrix
    return DensityMatrix(np.kron(near, other) if side == 0 else np.kron(other, near))


def test_rank_two_lead_below_the_overlap_floor_gives_a_none_term():
    geom = make_entanglement_geometry(math.pi / 2)
    rho = _born_just_above_floor(geom.a_doublets[0], 0, np.eye(2) / 2)
    report = nonlinear_ent_test(rho, geom, "III")
    vanished = [t for t in report.weak_terms if t.weak_value is None]
    assert vanished
    assert all(t.pseudo_probability == 0.0 for t in vanished)
    _assert_self_consistent(report)
    _assert_dual_route(report)

    doublet = make_doublet([0.0, 0.0, 1.0], math.pi / 2)
    rho = _born_just_above_floor(doublet, 1, bloch_state([0.0, 0.0, 0.5]).matrix)
    report = discord_test(rho, math.pi / 2)
    assert [t.label for t in report.weak_terms if t.weak_value is None] == ["([1]a-)*([1]b1+b2+)"]
    _assert_self_consistent(report)


def test_chsh_statistic_is_the_sum_of_its_entries():
    rng = np.random.default_rng(117)
    for _ in range(10):
        specs = [ObservableSpec(sub, axis=random_unit_vector(rng)) for sub in (0, 0, 1, 1)]
        report = chsh_test(ginibre_density(rng, 4), *specs)
        assert report.statistic == sum(report.pseudo_probabilities.values())
