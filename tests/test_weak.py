from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix,
    FactorizationUndefinedError,
    InvalidInputError,
    PostSelectionImpossibleError,
    bloch_state,
    hj_decompose,
    pauli_vector,
    pp_weak_factorization,
    qubit_projector,
    real_weak_product,
    unit_pp,
    weak_value,
)
from support import ginibre_density, haar_projector, haar_vector


def _pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def test_weak_value_eigenstate_is_eigenvalue():
    pre = _pure([1, 0])
    post = _pure([1, 0])
    report = weak_value(pauli_vector([0, 0, 1]), pre, post)
    assert report.value == pytest.approx(1.0)
    assert not report.anomalous


def test_weak_value_anomalous_example():
    theta = 3 * math.pi / 8
    pre = _pure([math.cos(theta), -math.sin(theta)])
    post = bloch_state([1, 0, 0])
    report = weak_value(pauli_vector([0, 0, 1]), pre, post)
    assert float(np.real(report.value)) == pytest.approx(-(1 + math.sqrt(2)), abs=1e-12)
    assert report.anomalous
    assert report.spectrum_bounds == pytest.approx((-1.0, 1.0))


def test_weak_value_orthogonal_post_selection_fails():
    pre = _pure([1, 0])
    post = _pure([0, 1])
    with pytest.raises(PostSelectionImpossibleError):
        weak_value(pauli_vector([0, 0, 1]), pre, post)


def test_weak_value_mixed_states_reduce_to_expectation():
    rng = np.random.default_rng(23)
    rho = ginibre_density(rng, 2)
    op = pauli_vector([0, 0, 1])
    report = weak_value(op, rho, DensityMatrix(np.eye(2, dtype=complex) / 2))
    expected = float(np.real(np.trace(rho.matrix @ op)))
    assert float(np.real(report.value)) == pytest.approx(expected, abs=1e-12)


def test_real_weak_product_matches_trace_formula():
    rng = np.random.default_rng(29)
    rho = ginibre_density(rng, 2)
    post = ginibre_density(rng, 2)
    ops = [haar_projector(rng, 2).matrix for _ in range(2)]
    got = real_weak_product(ops, rho, post)
    prod = ops[0] @ ops[1]
    expected = np.real(np.trace(post.matrix @ prod @ rho.matrix) / np.trace(post.matrix @ rho.matrix))
    assert got == pytest.approx(float(expected), abs=1e-12)


def test_hj_decomposition_of_zx_product():
    p = qubit_projector([0, 0, 1], +1).matrix @ qubit_projector([1, 0, 0], +1).matrix
    h, j = hj_decompose(p)
    assert np.allclose(h, np.array([[0.5, 0.25], [0.25, 0.0]]))
    assert np.allclose(j, -pauli_vector([0, 1, 0]) / 4)
    assert np.allclose(h + h.conj().T, 2 * h)
    assert np.allclose(p, h - 1j * j)


def test_pp_weak_factorization_identity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        rho = ginibre_density(rng, dim)
        factors = [haar_projector(rng, dim) for _ in range(n)]
        out = pp_weak_factorization(rho, factors)
        assert out["identity_residual"] <= 1e-10
        pp = float(np.real(np.trace(rho.matrix @ unit_pp(factors).matrix)))
        assert out["pseudo_probability"] == pytest.approx(pp, abs=1e-12)
        assert out["born_factor"] >= 0.0


def test_pp_weak_factorization_two_factor_sign_rule():
    rng = np.random.default_rng(37)
    for _ in range(100):
        rho = ginibre_density(rng, 2)
        factors = [haar_projector(rng, 2) for _ in range(2)]
        out = pp_weak_factorization(rho, factors)
        assert math.copysign(1, out["pseudo_probability"]) == math.copysign(1, out["weak_factor"]) or (
            out["pseudo_probability"] == 0 and out["weak_factor"] == 0
        )


def test_pp_weak_factorization_rejects_vanishing_born():
    pre = _pure([0, 1])
    factors = [qubit_projector([0, 0, 1], +1), qubit_projector([1, 0, 0], +1)]
    with pytest.raises(FactorizationUndefinedError):
        pp_weak_factorization(pre, factors)


def test_weak_value_non_hermitian_operator_reports_nan_bounds():
    rng = np.random.default_rng(41)
    pre = ginibre_density(rng, 2)
    post = ginibre_density(rng, 2)
    op = haar_projector(rng, 2).matrix @ haar_projector(rng, 2).matrix
    report = weak_value(op, pre, post)
    assert math.isnan(report.spectrum_bounds[0])
    assert math.isnan(report.spectrum_bounds[1])


def test_weak_value_accepts_projector_states():
    pre = qubit_projector([0, 0, 1], +1)
    post = qubit_projector([1, 0, 0], +1)
    report = weak_value(pauli_vector([0, 0, 1]), pre, post)
    assert float(np.real(report.value)) == pytest.approx(1.0, abs=1e-12)


def test_weak_value_pure_state_formula():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pre_v = haar_vector(rng, 2)
        post_v = haar_vector(rng, 2)
        if abs(np.vdot(post_v, pre_v)) < 1e-3:
            continue
        op = pauli_vector([0, 0, 1])
        report = weak_value(op, _pure(pre_v), _pure(post_v))
        expected = np.vdot(post_v, op @ pre_v) / np.vdot(post_v, pre_v)
        assert complex(report.value) == pytest.approx(complex(expected), abs=1e-10)


def test_weak_value_rejects_non_finite_operator():
    with pytest.raises(InvalidInputError, match="a is not finite"):
        weak_value(np.array([[np.inf, 0.0], [0.0, 1.0]]), bloch_state([0, 0, 1]), bloch_state([1, 0, 0]))
