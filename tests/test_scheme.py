from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    DensityMatrix,
    InvalidInputError,
    ObservableSpec,
    Scheme,
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


def _json_round_trip(sch):
    back = scheme_from_json(json.loads(json.dumps(scheme_to_json(sch))))
    assert back.entries == sch.entries
    assert back.weights == sch.weights
    for a, b in zip(back.observables, sch.observables, strict=True):
        assert np.array_equal(a.matrix, b.matrix)


def test_scheme_json_round_trip_of_a_matrix_observable():
    sigma_y = np.array([[0, -1j], [1j, 0]])
    rho = bloch_state([0.4, 0.1, -0.2])
    sch = build_scheme(rho, [ObservableSpec(0, matrix=sigma_y), _obs(0, [0, 0, 1])], "symmetrized")
    assert "matrix" in scheme_to_json(sch)["observables"][0]
    _json_round_trip(sch)


def test_scheme_json_of_a_numpy_integer_subsystem_is_plain_json():
    rho = bloch_state([0.4, 0.1, -0.2])
    sch = build_scheme(rho, [ObservableSpec(np.int64(0), axis=[0, 0, 1])], "unit")
    assert scheme_to_json(sch)["observables"][0]["subsystem"] == 0
    _json_round_trip(sch)


def test_scheme_json_round_trip_of_convex_weights():
    rho = bloch_state([0.4, 0.1, -0.2])
    obs = [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0]), _obs(0, [0, 1, 0])]
    sch = build_scheme(rho, obs, "convex", [0.5, 0.25, 0.25])
    assert scheme_to_json(sch)["weights"] == [0.5, 0.25, 0.25]
    _json_round_trip(sch)


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


def test_uniform_convex_scheme_uses_the_symmetrized_recursion(monkeypatch):
    from pplab import pseudoprojection

    calls = []
    ordering_array = pseudoprojection._ordering_array
    monkeypatch.setattr(
        pseudoprojection, "_ordering_array", lambda k: calls.append(k) or ordering_array(k)
    )
    rng = np.random.default_rng(233)
    rho = ginibre_density(rng, 2)
    obs = [_obs(0, random_unit_vector(rng)) for _ in range(8)]
    convex = build_scheme(rho, obs, "convex")
    symmetrized = build_scheme(rho, obs, "symmetrized")
    assert calls == []
    assert list(convex.entries) == list(symmetrized.entries)
    assert max(abs(convex.entries[k] - symmetrized.entries[k]) for k in convex.entries) <= 1e-12
    assert convex.prescription == "convex" and convex.weights is None

    # Weighted convex keeps the per-ordering sum; given uniform weights it
    # agrees with the recursion.
    explicit = build_scheme(rho, obs[:5], "convex", weights=[1 / 60] * 60)
    assert calls == [5]
    uniform = build_scheme(rho, obs[:5], "convex")
    assert max(abs(uniform.entries[k] - explicit.entries[k]) for k in uniform.entries) <= 1e-12


def test_scheme_keeps_its_own_copy_of_its_entries():
    rho = bloch_state([0.6, 0.0, 0.0])
    built = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0])], "unit")
    entries = dict(built.entries)
    sch = Scheme(built.observables, entries, "unit")
    before = (dict(sch.entries), negativity_report(sch), scheme_to_json(sch))
    entries[(-1, -1)] = float("nan")
    entries[(1, 1)] = -5.0
    assert (sch.entries, negativity_report(sch), scheme_to_json(sch)) == before


def test_scheme_to_json_refuses_an_entry_written_non_finite_after_the_checks():
    sch = build_scheme(bloch_state([0.6, 0.0, 0.0]), [_obs(0, [0, 0, 1])], "unit")
    for value, message in ((float("nan"), r"must be finite, got nan"), ("x", r"must be a real number, got 'x'"),
                           (None, r"must be a real number, got None")):
        sch.entries[(1,)] = value
        with pytest.raises(InvalidInputError, match=r"entry '\+' " + message):
            scheme_to_json(sch)
    assert type(sch.entries) is dict


def test_scheme_from_json_lists_entries_in_outcome_order():
    rho = bloch_state([0.4, 0.1, -0.2])
    sch = build_scheme(rho, [_obs(0, [0, 0, 1]), _obs(0, [1, 0, 0]), _obs(0, [0, 1, 0])], "symmetrized")
    record = scheme_to_json(sch)
    back = scheme_from_json({**record, "entries": dict(reversed(record["entries"].items()))})
    assert list(back.entries) == list(itertools.product((+1, -1), repeat=3))
    assert scheme_to_json(back) == record


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, MAX_OBSERVABLES))
def test_marginalize_matches_the_outcome_loop(seed, n):
    # Any finite table summing to 1 is a Scheme; the reference splices the
    # dropped outcome into every kept outcome tuple.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n)
    v += (1.0 - v.sum()) / v.size
    obs = [_obs(0, random_unit_vector(rng)) for _ in range(n)]
    sch = Scheme(obs, dict(zip(itertools.product((+1, -1), repeat=n), v.tolist())), "unit")
    for drop in range(n):
        expected = {
            kept: sum(sch.entries[kept[:drop] + (dropped,) + kept[drop:]] for dropped in (+1, -1))
            for kept in itertools.product((+1, -1), repeat=n - 1)
        }
        assert list(marginalize(sch, drop).entries.items()) == list(expected.items())


def test_huge_observable_matrix_is_refused_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="dichotomic"):
            ObservableSpec(0, matrix=np.full((2, 2), 1e200))


def test_matrix_record_with_an_infinite_part_is_refused_without_a_numpy_warning():
    spec = ObservableSpec(0, matrix=np.diag([1.0, -1.0]))
    record = scheme_to_json(build_scheme(bloch_state([0.6, 0.0, 0.0]), [spec], "unit"))
    record["observables"][0]["matrix"]["im"] = [[0.0, math.inf], [0.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="not finite"):
            scheme_from_json(record)


def _listed_marginal_weights(s: Scheme, drop_index: int) -> tuple[float, ...] | None:
    """The convex weights of a marginal, derived afresh on each call from the orderings themselves."""
    from collections import Counter

    if s.weights is None:
        return None
    sub = s.observables[drop_index].subsystem
    sizes = Counter(o.subsystem for o in s.observables)
    k = sizes[sub]
    other_multi = any(size >= 2 for t, size in sizes.items() if t != sub)
    if k == 1 or other_multi:
        return s.weights
    if k == 2:
        return None
    j = sum(o.subsystem == sub for o in s.observables[:drop_index])
    induced: dict[tuple[int, ...], float] = {}
    for w, order in zip(s.weights, distinct_orderings(k)):
        rest = tuple(i - (i > j) for i in order if i != j)
        key = min(rest, rest[::-1])
        induced[key] = induced.get(key, 0.0) + w
    return tuple(induced.get(order, 0.0) for order in distinct_orderings(k - 1))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_marginal_weights_keep_their_bits(k):
    """Every dropped position, with a single observable on a second subsystem before, among or
    after the group, and weights that include -0.0 and a tiny negative one."""
    rng = np.random.default_rng(k)
    count = math.factorial(k) // 2
    for layout in ([0] * k, [1] + [0] * k, [0] + [1] + [0] * (k - 1), [0] * k + [1]):
        obs = [ObservableSpec(sub, axis=[0.0, 0.0, 1.0]) for sub in layout]
        entries = dict.fromkeys(itertools.product((1, -1), repeat=len(obs)), 0.5 ** len(obs))
        w = rng.dirichlet(np.ones(count))
        w[2] += w[0] + w[1] + 1e-15
        w[:2] = -0.0, -1e-15
        for weights in (w, np.full(count, 1.0 / count)):
            s = Scheme(tuple(obs), entries, "convex", weights=weights)
            for drop in range(len(obs)):
                want = _listed_marginal_weights(s, drop)
                got = marginalize(s, drop).weights
                assert (got is None) == (want is None)
                if want is not None:
                    assert [x.hex() for x in got] == [x.hex() for x in want]
