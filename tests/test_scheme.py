from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    DensityMatrix,
    InvalidInputError,
    ObservableSpec,
    bloch_state,
    build_scheme,
    convex_pp,
    equality_sum,
    make_doublet,
    marginalize,
    negativity_report,
    pauli_vector,
    qubit_projector,
    scheme_from_json,
    scheme_to_json,
    symmetrized_pp,
    unit_pp,
)
from pplab.pseudoprojection import distinct_orderings
from pplab.scheme import MAX_OBSERVABLES
from support import ginibre_density, random_unit_vector


def _obs(sub, axis, label=None):
    return ObservableSpec(sub, axis=axis, label=label)


def test_observable_spec_requires_exactly_one_source():
    with pytest.raises(InvalidInputError):
        ObservableSpec(0, axis=[0, 0, 1], matrix=pauli_vector([0, 0, 1]))
    with pytest.raises(InvalidInputError):
        ObservableSpec(0)


def test_observable_spec_rejects_non_dichotomic():
    with pytest.raises(InvalidInputError):
        ObservableSpec(0, matrix=np.diag([2.0, -1.0]).astype(complex))


def test_observable_projectors_decompose_identity():
    o = _obs(0, [0, 1, 0])
    assert np.allclose(o.projector(+1).matrix + o.projector(-1).matrix, np.eye(2))


def test_build_scheme_normalization_and_entries():
    rho = bloch_state([0.3, -0.2, 0.4])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0])], "unit")
    assert sum(sch.entries.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(sch.entries) == 4
    assert sch.entry("++") == pytest.approx(sch.entry((+1, +1)))


def test_scheme_entry_accepts_unicode_minus():
    rho = bloch_state([0.3, 0.0, 0.4])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0])], "unit")
    assert sch.entry("+−") == pytest.approx(sch.entry((+1, -1)))


def test_single_observable_scheme_is_born_rule():
    rho = bloch_state([0.0, 0.0, 0.6])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1])])
    assert sch.entry((+1,)) == pytest.approx(0.8)
    assert sch.entry((-1,)) == pytest.approx(0.2)


def test_two_subsystem_scheme_product_state():
    rng = np.random.default_rng(51)
    a = ginibre_density(rng, 2).matrix
    b = ginibre_density(rng, 2).matrix
    joint = DensityMatrix(np.kron(a, b))
    obs = [_obs(0, [0, 0, 1]), _obs(1, [1, 0, 0])]
    sch = build_scheme(joint, obs, "unit")
    for s1 in (+1, -1):
        for s2 in (+1, -1):
            pa = float(np.real(np.trace(a @ qubit_projector([0, 0, 1], s1).matrix)))
            pb = float(np.real(np.trace(b @ qubit_projector([1, 0, 0], s2).matrix)))
            assert sch.entry((s1, s2)) == pytest.approx(pa * pb, abs=1e-12)


def test_marginalize_recovers_born_distribution():
    rng = np.random.default_rng(53)
    rho = ginibre_density(rng, 2)
    axes = [random_unit_vector(rng) for _ in range(3)]
    sch = build_scheme(rho, [_obs(0, a) for a in axes], "symmetrized")
    reduced = marginalize(marginalize(sch, 2), 1)
    p_plus = float(np.real(np.trace(rho.matrix @ qubit_projector(axes[0], +1).matrix)))
    assert reduced.entry((+1,)) == pytest.approx(p_plus, abs=1e-12)


def test_marginalize_refuses_last_observable():
    rho = bloch_state([0, 0, 0.5])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1])])
    with pytest.raises(InvalidInputError):
        marginalize(sch, 0)


def test_negativity_report_flags_negative_entries():
    # doublet around -x on an +x polarized state: the joint ++ entry dips below 0
    rho = bloch_state([0.8, 0.0, 0.0])
    d = make_doublet([-1.0, 0.0, 0.0], math.pi / 2)
    sch = build_scheme(rho, [_obs(0, d.n1), _obs(0, d.n2)], "unit")
    report = negativity_report(sch)
    assert report["nonclassical"]
    assert report["min_entry"][0] == "++"
    assert report["min_entry"][1] == pytest.approx(0.25 * (1 - 0.8 * math.sqrt(2)), abs=1e-12)
    labels = [e[0] for e in report["negative_entries"]]
    assert len(labels) == sum(1 for v in sch.entries.values() if v < -report["tolerance"])
    assert "++" in labels


def test_negativity_report_clean_for_commuting_axes():
    rho = bloch_state([0.9, 0.0, 0.0])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [-1.0, 0.0, 0.0])], "unit")
    report = negativity_report(sch)
    assert not report["nonclassical"]
    assert report["negative_entries"] == []
    assert report["min_entry"][1] == pytest.approx(0.025, abs=1e-12)


def test_equality_sum_grammar():
    rho = bloch_state([0.2, 0.1, 0.7])
    axes = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    sch = build_scheme(rho, [_obs(0, a) for a in axes], "symmetrized")
    full = equality_sum(sch, "0=1=2")
    manual = sum(v for k, v in sch.entries.items() if k[0] == k[1] == k[2])
    assert full == pytest.approx(manual, abs=1e-12)
    negated = equality_sum(sch, "0=~1")
    manual2 = sum(v for k, v in sch.entries.items() if k[0] == -k[1])
    assert negated == pytest.approx(manual2, abs=1e-12)
    everything = equality_sum(sch, "0")
    assert everything == pytest.approx(1.0, abs=1e-12)


def test_equality_sum_rejects_malformed_patterns():
    rho = bloch_state([0, 0, 0.3])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0])], "unit")
    for pattern in ("0=5", "0==1", "", "~", "0=x"):
        with pytest.raises(InvalidInputError):
            equality_sum(sch, pattern)


def test_scheme_json_round_trip():
    rho = bloch_state([0.4, 0.1, -0.2])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1], "za"), _obs(0, [1, 0, 0], "xa")], "unit")
    data = scheme_to_json(sch)
    back = scheme_from_json(data)
    assert back.prescription == sch.prescription
    for key, value in sch.entries.items():
        assert back.entry(key) == pytest.approx(value, abs=1e-12)


def test_build_scheme_rejects_mismatched_dimensions():
    rho = bloch_state([0, 0, 0.1])
    with pytest.raises(InvalidInputError):
        build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(1, [1, 0, 0])], "unit")


def test_build_scheme_requires_every_subsystem_observed():
    w = DensityMatrix(np.eye(4, dtype=complex) / 4)
    with pytest.raises(InvalidInputError):
        build_scheme(w, [_obs(1, [0, 0, 1])], "unit")


def test_build_scheme_weights_only_for_convex():
    rho = bloch_state([0, 0, 0.1])
    obs = [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0]), _obs(0, [0, 1, 0])]
    with pytest.raises(InvalidInputError):
        build_scheme(rho, obs, "unit", weights=[1.0, 0.0, 0.0])
    sch = build_scheme(rho, obs, "convex", weights=[0.5, 0.25, 0.25])
    assert sum(sch.entries.values()) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_obs=st.integers(1, 4))
def test_scheme_normalization_property(seed, n_obs):
    rng = np.random.default_rng(seed)
    rho = ginibre_density(rng, 2)
    obs = [_obs(0, random_unit_vector(rng)) for _ in range(n_obs)]
    prescription = ["unit", "symmetrized"][int(rng.integers(0, 2))] if n_obs > 1 else "unit"
    sch = build_scheme(rho, obs, prescription)
    assert sum(sch.entries.values()) == pytest.approx(1.0, abs=1e-10)
    assert len(sch.entries) == 2 ** n_obs


def _ordering_sum_scheme(state, obs, prescription, weights):
    """The definition: per entry, each subsystem's pseudo-projection of the
    outcome projectors, tensored in subsystem order and traced with the state."""
    n_sub = max(o.subsystem for o in obs) + 1
    groups = [[i for i, o in enumerate(obs) if o.subsystem == sub] for sub in range(n_sub)]
    entries = {}
    for outcome in itertools.product((+1, -1), repeat=len(obs)):
        joint = np.eye(1, dtype=complex)
        for positions in groups:
            projs = [obs[p].projector(outcome[p]) for p in positions]
            if len(projs) == 1:
                factor = projs[0].matrix
            elif prescription == "unit":
                factor = unit_pp(projs).matrix
            elif prescription == "symmetrized":
                factor = symmetrized_pp(projs).matrix
            else:
                factor = convex_pp(projs, weights).matrix
            joint = np.kron(joint, factor)
        entries[outcome] = float(np.real(np.trace(state.matrix @ joint)))
    return entries


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.sampled_from([(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]),
    prescription=st.sampled_from(["unit", "symmetrized", "convex"]),
)
def test_build_scheme_matches_ordering_sum_definition(seed, sizes, prescription):
    rng = np.random.default_rng(seed)
    rho = ginibre_density(rng, 2 ** len(sizes))
    subsystems = [sub for sub, k in enumerate(sizes) for _ in range(k)]
    rng.shuffle(subsystems)
    obs = [_obs(sub, random_unit_vector(rng)) for sub in subsystems]
    multi = {k for k in sizes if k >= 2}
    weights = None
    if prescription == "convex" and len(multi) == 1:
        weights = rng.dirichlet(np.ones(len(distinct_orderings(multi.pop()))))
    sch = build_scheme(rho, obs, prescription, weights)
    reference = _ordering_sum_scheme(rho, obs, prescription, weights)
    assert list(sch.entries) == list(reference)
    for key, value in reference.items():
        assert abs(sch.entries[key] - value) <= 1e-12


def test_build_scheme_still_validates_outcome_projectors():
    rho = bloch_state([0.1, 0.2, 0.3])
    identity = ObservableSpec(0, matrix=np.eye(2, dtype=complex))
    with pytest.raises(InvalidInputError, match="rank"):
        build_scheme(rho, [identity, _obs(0, [0, 0, 1])], "symmetrized")


def test_max_observables_symmetrized_marginals_are_born():
    rng = np.random.default_rng(61)
    rho = ginibre_density(rng, 2)
    axes = [random_unit_vector(rng) for _ in range(MAX_OBSERVABLES)]
    sch = build_scheme(rho, [_obs(0, a) for a in axes], "symmetrized")
    assert len(sch.entries) == 2 ** MAX_OBSERVABLES
    for keep, axis in enumerate(axes):
        single = sch
        for drop in reversed(range(MAX_OBSERVABLES)):
            if drop != keep:
                single = marginalize(single, drop)
        for s in (+1, -1):
            born = float(np.real(np.trace(rho.matrix @ qubit_projector(axis, s).matrix)))
            assert single.entry((s,)) == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_convex_marginal_carries_induced_weights(n):
    rng = np.random.default_rng(67 + n)
    rho = ginibre_density(rng, 2)
    obs = [_obs(0, random_unit_vector(rng)) for _ in range(n)]
    weights = rng.dirichlet(np.ones(len(distinct_orderings(n))))
    sch = build_scheme(rho, obs, "convex", weights)
    for drop in range(n):
        m = marginalize(sch, drop)
        assert len(m.weights) == len(distinct_orderings(n - 1))
        rebuilt = build_scheme(rho, m.observables, "convex", m.weights)
        for key, value in m.entries.items():
            assert rebuilt.entries[key] == pytest.approx(value, abs=1e-12)


def test_convex_marginal_of_three_needs_one_weight():
    rho = bloch_state([0.2, -0.1, 0.5])
    obs = [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0]), _obs(0, [0, 1, 0])]
    m = marginalize(build_scheme(rho, obs, "convex", [0.5, 0.3, 0.2]), 0)
    assert m.weights == pytest.approx((1.0,))
    assert marginalize(m, 0).weights is None


def test_convex_marginal_refuses_two_weight_vectors():
    rng = np.random.default_rng(71)
    rho = ginibre_density(rng, 4)
    obs = [_obs(sub, random_unit_vector(rng)) for sub in (0, 0, 0, 1, 1, 1)]
    sch = build_scheme(rho, obs, "convex", rng.dirichlet(np.ones(3)))
    with pytest.raises(InvalidInputError, match="share one size"):
        marginalize(sch, 0)


def test_convex_marginal_from_a_pair_keeps_the_other_groups_weights():
    rng = np.random.default_rng(73)
    rho = ginibre_density(rng, 4)
    obs = [_obs(sub, random_unit_vector(rng)) for sub in (0, 0, 1, 1)]
    sch = build_scheme(rho, obs, "convex", [1.0])
    m = marginalize(sch, 1)
    assert m.weights == (1.0,)
    rebuilt = build_scheme(rho, m.observables, "convex", m.weights)
    for key, value in m.entries.items():
        assert rebuilt.entries[key] == pytest.approx(value, abs=1e-12)
