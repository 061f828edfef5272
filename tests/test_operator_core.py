from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    DensityMatrix,
    InvalidInputError,
    Projector,
    anticommutator,
    expectation,
    partial_trace,
    resolve_tolerance,
    tensor_product,
)
from pplab import operator_core
from pplab.operator_core import _close, _kron
from support import ginibre_density, haar_projector


def test_density_matrix_accepts_valid():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert rho.dim == 2


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidInputError, match="trace = 1"):
        DensityMatrix(np.diag([0.5, 0.4]).astype(complex))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidInputError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidInputError, match="positive semidefinite"):
        DensityMatrix(m)


def test_projector_rejects_non_idempotent():
    with pytest.raises(InvalidInputError, match="idempotent"):
        Projector(np.diag([0.5, 0.5]).astype(complex))


def test_projector_rank_inferred():
    p = Projector(np.diag([1.0, 1.0, 0.0]).astype(complex))
    assert p.rank == 2


def test_projector_rejects_zero():
    with pytest.raises(InvalidInputError):
        Projector(np.zeros((2, 2), dtype=complex))


def test_anticommutator_matches_definition():
    rng = np.random.default_rng(7)
    a = haar_projector(rng, 3).matrix
    b = haar_projector(rng, 3).matrix
    assert np.allclose(anticommutator(a, b), a @ b + b @ a)


def test_tensor_product_dimensions_and_order():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    t = tensor_product(a, b)
    assert t.shape == (4, 4)
    assert np.allclose(t, np.kron(a, b))


def test_expectation_density_and_array():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert expectation(rho, sz) == pytest.approx(0.5)
    assert expectation(rho.matrix, sz) == pytest.approx(0.5)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    a = ginibre_density(rng, 2).matrix
    b = ginibre_density(rng, 3).matrix
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (2, 3), 0), a)
    assert np.allclose(partial_trace(joint, (2, 3), 1), b)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(13)
    parts = [ginibre_density(rng, d).matrix for d in (2, 2, 2)]
    joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert np.allclose(partial_trace(joint, (2, 2, 2), 1), parts[1])


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    rho = ginibre_density(rng, 4).matrix
    reduced = partial_trace(rho, (2, 2), 0)
    assert np.trace(reduced) == pytest.approx(1.0)


def test_resolve_tolerance_default_and_env(monkeypatch):
    monkeypatch.delenv("PPLAB_TOL", raising=False)
    assert resolve_tolerance() == pytest.approx(1e-10)
    monkeypatch.setenv("PPLAB_TOL", "1e-6")
    assert resolve_tolerance() == pytest.approx(1e-6)


def test_resolve_tolerance_rejects_garbage(monkeypatch):
    monkeypatch.setenv("PPLAB_TOL", "not-a-number")
    with pytest.raises(InvalidInputError):
        resolve_tolerance()
    monkeypatch.setenv("PPLAB_TOL", "-1e-10")
    with pytest.raises(InvalidInputError):
        resolve_tolerance()


def test_density_matrix_accepts_tiny_negative_noise():
    eps = 1e-13
    m = np.diag([1.0 + eps, -eps]).astype(complex)
    rho = DensityMatrix(m)
    assert math.isclose(float(np.real(np.trace(rho.matrix))), 1.0, abs_tol=1e-9)


def test_density_matrix_rejects_non_finite_entries():
    with pytest.raises(InvalidInputError, match="density matrix is not finite"):
        DensityMatrix([[math.nan, 0.0], [0.0, 1.0]])


def test_projector_rejects_non_finite_entries():
    with pytest.raises(InvalidInputError, match="projector is not finite"):
        Projector([[math.inf, 0.0], [0.0, 0.0]])


_CLOSE_RATIOS = (0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(1, 1), (2, 2), (3, 3), (4, 4), (8, 8), (1, 3)]),
    atol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-3]),
    scale=st.sampled_from([1e-9, 1.0, 1e6]),
    ratio=st.sampled_from(_CLOSE_RATIOS),
)
def test_close_matches_numpy_allclose(seed, shape, atol, scale, ratio):
    rng = np.random.default_rng(seed)
    b = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    # Move a random subset of entries to `ratio` times their own threshold
    # atol + 1e-5 |b|, so draws sit just inside, on and just outside it.
    bound = atol + 1e-5 * np.abs(b)
    moved = rng.random(shape) < 0.5
    phase = np.exp(2j * math.pi * rng.random(shape))
    a = b + np.where(moved, ratio * bound * phase, 0.0)
    assert _close(a, b, atol) == np.allclose(a, b, atol=atol)
    assert _close(b, b, atol) == np.allclose(b, b, atol=atol)


def test_close_decides_both_sides_of_the_threshold():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert _close(b + 0.5e-5 * np.abs(b), b, 0.0)
    assert not _close(b + 2e-5 * np.abs(b), b, 0.0)
    zero = np.zeros((2, 2), dtype=complex)
    assert _close(zero + 0.5e-9, zero, 1e-9)
    assert not _close(zero + 2e-9, zero, 1e-9)


@pytest.mark.parametrize(
    "shape_a,shape_b", [((2, 2), (2, 2)), ((2, 2), (4, 4)), ((4, 4), (2, 2)), ((1, 3), (3, 1))]
)
def test_kron_is_numpy_kron_bit_for_bit(shape_a, shape_b):
    rng = np.random.default_rng(23)
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    assert np.array_equal(_kron(a, b), np.kron(a, b))
    assert np.array_equal(_kron(a.real, b), np.kron(a.real, b))


def test_allclose_and_kron_live_only_in_operator_core():
    package = Path(operator_core.__file__).parent
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(package.glob("*.py"))
        if path.name != "operator_core.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "np.allclose(" in line or "np.kron(" in line
    ]
    assert offenders == []


@pytest.mark.parametrize("build, name", [(DensityMatrix, "density matrix"), (Projector, "projector")])
def test_huge_entries_are_refused_before_any_check_overflows(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"{name} has an entry of modulus above 2"):
            build(np.full((2, 2), 1e308))
        with pytest.raises(InvalidInputError, match=f"{name} has an entry of modulus above 2"):
            build(np.diag([2.0 + 1e-15, -1.0]))


def test_entries_up_to_the_bound_reach_the_invariant_checks():
    # No accepted state or projector has an entry above 1 + 64 SPECTRAL_TOL, so inputs up
    # to 2 keep the message of the invariant they break.
    with pytest.raises(InvalidInputError, match="positive semidefinite"):
        DensityMatrix(np.diag([2.0, -1.0]))
    with pytest.raises(InvalidInputError, match="idempotent"):
        Projector(np.diag([2.0, 0.0]))
    assert operator_core._ENTRY_LIMIT > 1 + 64 * operator_core.SPECTRAL_TOL
