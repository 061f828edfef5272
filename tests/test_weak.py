from __future__ import annotations

import math
import re
import warnings
from pathlib import Path

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
from pplab import weak, witnesses
from pplab.operator_core import _expectations
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


def test_real_weak_product_names_a_dimension_mismatch():
    z, x = bloch_state([0, 0, 1]), bloch_state([1, 0, 0])
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        real_weak_product([np.eye(4)], z, x)
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        real_weak_product([qubit_projector([0, 0, 1])], z, DensityMatrix(np.eye(4) / 4))
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        real_weak_product([np.eye(2), np.eye(4)], z, x)


def test_real_weak_product_refuses_a_factor_of_spectral_norm_above_one():
    """Entries of modulus 1 pass the entry bound, but 200 all-ones factors would overflow
    their product; a factor of norm 1 that is no projector, sigma_z, stays accepted."""
    state = DensityMatrix(np.eye(64) / 64)
    z, x = bloch_state([0, 0, 1]), bloch_state([1, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="factor has spectral norm 64, above 1"):
            real_weak_product([np.ones((64, 64))] * 200, state, state)
        with pytest.raises(InvalidInputError, match="factor has spectral norm 1.41421, above 1"):
            real_weak_product([np.array([[1.0, 1.0], [0.0, 0.0]])], z, x)
        assert real_weak_product([pauli_vector([0, 0, 1])] * 201, z, x) == pytest.approx(1.0, abs=1e-12)


def test_pp_weak_factorization_rejects_a_non_collection():
    with pytest.raises(InvalidInputError, match="factors must be an ordered collection of projectors"):
        pp_weak_factorization(bloch_state([0, 0, 1]), 5)


def test_overlap_floor_and_pauli_matrices_have_one_home():
    package = Path(weak.__file__).parent
    floors, paulis = [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if re.search(r"^\s*OVERLAP_FLOOR\s*=", text, re.MULTILINE):
            floors.append(path.name)
        flat = re.sub(r"\s", "", text)
        if any(m in flat for m in ("[[0,1],[1,0]]", "[[0,-1j],[1j,0]]", "[[1,0],[0,-1]]")):
            paulis.append(path.name)
    assert floors == ["weak.py"]
    assert paulis == ["geometry.py"]
    assert not hasattr(witnesses, "BORN_FLOOR")


def test_compiled_terms_are_read_from_one_contraction(monkeypatch):
    """A weak term reads Re Tr(rho lead rest) / Re Tr(rho lead) and a plain Born
    term reads 1, also at a zero Born factor, with no numpy warning; the weak
    value of a lead with a zero Born factor is None."""
    up, down, x_up = (qubit_projector(a, s).matrix for a, s in (([0, 0, 1], 1), ([0, 0, 1], -1), ([1, 0, 0], 1)))
    terms = weak._compile_terms(
        np.stack([up, down, down]), (1, 1, 1), np.stack([x_up, np.eye(2), x_up]), (True, False, True),
        ("w", "b", "v"), (1.0,) * 3, (0,) * 3,
    )
    calls = []
    monkeypatch.setattr(weak, "_expectations", lambda *a: calls.append(a) or _expectations(*a))
    monkeypatch.setattr(weak, "_overlap", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        born, weak_values = weak._born_weak(terms, bloch_state([0, 0, 1]).matrix)
    assert len(calls) == 1
    assert born == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert weak_values[0] == pytest.approx(0.5, abs=1e-15)
    assert weak_values[1:] == [1.0, None]


def test_huge_weak_layer_operands_are_refused_or_split_without_a_numpy_warning():
    huge = np.full((2, 2), 1e308)
    pre, post = bloch_state([0.6, 0.0, 0.0]), bloch_state([0.0, 0.0, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="a has an entry of modulus above"):
            weak_value(huge, pre, post)
        with pytest.raises(InvalidInputError, match="factor has an entry of modulus above 1"):
            real_weak_product([qubit_projector([0, 0, 1]), huge], pre, post)
        with pytest.raises(InvalidInputError, match="need at least one factor"):
            real_weak_product([], pre, post)
        h, j = hj_decompose(huge)
    assert np.array_equal(h, huge) and not j.any()
    # The bound leaves room for the division by the smallest overlap weak_value takes.
    edge = np.full((64, 64), weak.MAX_ENTRY)
    state = DensityMatrix(np.eye(64) / 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(weak_value(edge, state, state).value)
