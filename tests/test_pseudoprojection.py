from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    InvalidInputError,
    Projector,
    conjunction_pp,
    convex_pp,
    disjunction_pp,
    make_doublet,
    min_eigen_certificate,
    pauli_vector,
    qubit_projector,
    symmetrized_pp,
    unit_pp,
)
from pplab.pseudoprojection import distinct_orderings
from support import haar_projector, random_unit_vector

Z = qubit_projector([0, 0, 1], +1)
X = qubit_projector([1, 0, 0], +1)
ZBAR = qubit_projector([0, 0, 1], -1)
XBAR = qubit_projector([1, 0, 0], -1)


def test_unit_pp_two_factors_is_half_anticommutator():
    pp = unit_pp([Z, X])
    expected = 0.5 * (Z.matrix @ X.matrix + X.matrix @ Z.matrix)
    assert np.allclose(pp.matrix, expected)
    assert pp.prescription == "unit"


def test_unit_pp_flat_triple_is_quarter_sigma_x():
    pp = unit_pp([Z, X, ZBAR])
    assert np.allclose(pp.matrix, pauli_vector([1, 0, 0]) / 4)


def test_nested_conjunction_is_half_flat():
    nested = conjunction_pp([Z, X, ZBAR])
    assert np.allclose(nested.matrix, pauli_vector([1, 0, 0]) / 8)
    assert nested.prescription == "nested"


def test_conjunction_two_factors_equals_unit():
    assert np.allclose(conjunction_pp([Z, X]).matrix, unit_pp([Z, X]).matrix)


def test_conjunction_accepts_pseudo_projection_operand():
    inner = unit_pp([X, X])
    assert np.allclose(inner.matrix, X.matrix)
    outer = conjunction_pp([Z, inner])
    assert np.allclose(outer.matrix, unit_pp([Z, X]).matrix)


def test_distinct_orderings_count():
    assert len(distinct_orderings(2)) == 1
    assert len(distinct_orderings(3)) == 3
    assert len(distinct_orderings(4)) == 12
    for order in distinct_orderings(4):
        assert order[0] < order[-1]


def test_symmetrized_two_factors_equals_unit():
    rng = np.random.default_rng(2)
    a = haar_projector(rng, 3)
    b = haar_projector(rng, 3)
    assert np.allclose(symmetrized_pp([a, b]).matrix, unit_pp([a, b]).matrix)


def test_symmetrized_four_factor_event_is_scalar():
    for k_axis in ([1, 0, 0], [0.6, 0, 0.8]):
        a2 = np.asarray(k_axis, dtype=float)
        factors = [
            qubit_projector([0, 0, 1], +1),
            qubit_projector(a2, +1),
            qubit_projector([0, 0, 1], -1),
            qubit_projector(a2, -1),
        ]
        pp = symmetrized_pp(factors)
        k = float(a2 @ np.array([0.0, 0.0, 1.0]))
        lam = (k * k - 1.0) / 24.0
        assert np.allclose(pp.matrix, lam * np.eye(2), atol=1e-12)


def test_trine_symmetrized_value():
    trine = [
        qubit_projector([math.sin(2 * k * math.pi / 3), 0, math.cos(2 * k * math.pi / 3)], +1)
        for k in range(3)
    ]
    pp = symmetrized_pp(trine)
    assert np.allclose(pp.matrix, -np.eye(2) / 16, atol=1e-12)


def test_doublet_unit_pp_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(20):
        axis = random_unit_vector(rng)
        alpha = rng.uniform(0.1, math.pi - 0.1)
        d = make_doublet(axis, alpha)
        pp = unit_pp([qubit_projector(d.n1, +1), qubit_projector(d.n2, +1)])
        c = math.cos(alpha / 2)
        expected = (c / 2) * (c * np.eye(2) + pauli_vector(axis))
        assert np.allclose(pp.matrix, expected, atol=1e-12)


def test_min_eigen_certificate_value_and_witness():
    pp = unit_pp([Z, X])
    value, witness = min_eigen_certificate(pp)
    assert value == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-14)
    applied = pp.matrix @ witness
    assert np.allclose(applied, value * witness, atol=1e-10)


def test_convex_pp_weights():
    factors = [Z, X, ZBAR]
    flat = convex_pp(factors)
    assert np.allclose(flat.matrix, symmetrized_pp(factors).matrix)
    weighted = convex_pp(factors, weights=[1.0, 0.0, 0.0])
    orderings = distinct_orderings(3)
    first = orderings[0]
    mats = [factors[i].matrix for i in first]
    prod = mats[0] @ mats[1] @ mats[2]
    assert np.allclose(weighted.matrix, 0.5 * (prod + prod.conj().T))


def test_convex_pp_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        convex_pp([Z, X, ZBAR], weights=[0.5, 0.5])
    with pytest.raises(InvalidInputError):
        convex_pp([Z, X, ZBAR], weights=[0.7, 0.6, -0.3])


def test_disjunction_inclusion_exclusion():
    pp = disjunction_pp(Z, X)
    expected = Z.matrix + X.matrix - 0.5 * (Z.matrix @ X.matrix + X.matrix @ Z.matrix)
    assert np.allclose(pp.matrix, expected)


def test_disjunction_of_complements_is_identity():
    pp = disjunction_pp(Z, ZBAR)
    assert np.allclose(pp.matrix, np.eye(2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4))
def test_pp_is_hermitian_with_projector_trace_rule(seed, n):
    rng = np.random.default_rng(seed)
    factors = [haar_projector(rng, 2) for _ in range(n)]
    for build in (unit_pp, symmetrized_pp):
        pp = build(factors)
        assert np.allclose(pp.matrix, pp.matrix.conj().T, atol=1e-12)


def test_pp_requires_two_factors():
    with pytest.raises(InvalidInputError):
        unit_pp([Z])


def test_pp_rejects_dimension_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        unit_pp([Z, haar_projector(rng, 3)])


def test_commuting_factors_give_ordinary_projector_product():
    pp = unit_pp([Z, Z])
    assert np.allclose(pp.matrix, Z.matrix)
    value, _ = min_eigen_certificate(pp)
    assert value >= -1e-14


def test_builders_do_not_use_the_subset_moments(monkeypatch):
    # tests/test_scheme.py checks build_scheme, which runs on
    # _ordered_moments, against these builders; that check needs them to stay
    # an independent route.
    from pplab import pseudoprojection

    def refuse(*args, **kwargs):
        raise AssertionError("builder went through _ordered_moments")

    monkeypatch.setattr(pseudoprojection, "_ordered_moments", refuse)
    factors = [Z, X, qubit_projector([0, 1, 0], +1)]
    expected = 0.5 * (Z.matrix @ X.matrix + X.matrix @ Z.matrix)
    np.testing.assert_allclose(symmetrized_pp([Z, X]).matrix, expected, atol=1e-15)
    np.testing.assert_allclose(convex_pp(factors).matrix, symmetrized_pp(factors).matrix, atol=1e-15)
    unit_pp(factors)
    convex_pp(factors, [1.0, 0.0, 0.0])
