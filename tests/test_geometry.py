from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    InvalidInputError,
    bloch_state,
    make_doublet,
    make_entanglement_geometry,
    mub_partner,
    pauli_vector,
    qubit_projector,
    werner_state,
)
from pplab import geometry
from support import random_unit_vector

unit_angles = st.floats(min_value=1e-3, max_value=math.pi - 1e-3)


def test_bloch_state_center_is_maximally_mixed():
    rho = bloch_state([0, 0, 0])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_bloch_state_rejects_outside_ball():
    with pytest.raises(InvalidInputError):
        bloch_state([1.0, 1.0, 0.0])


def test_qubit_projector_eigen_relation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = random_unit_vector(rng)
        p = qubit_projector(n, +1)
        sigma = pauli_vector(n)
        assert np.allclose(sigma @ p.matrix, p.matrix)
        q = qubit_projector(n, -1)
        assert np.allclose(p.matrix + q.matrix, np.eye(2))


def test_pauli_vector_squares_to_identity():
    rng = np.random.default_rng(5)
    n = random_unit_vector(rng)
    s = pauli_vector(n)
    assert np.allclose(s @ s, np.eye(2))


@settings(max_examples=60, deadline=None)
@given(alpha=unit_angles, seed=st.integers(0, 2**31 - 1))
def test_doublet_aperture_and_bisector(alpha, seed):
    rng = np.random.default_rng(seed)
    axis = random_unit_vector(rng)
    d = make_doublet(axis, alpha)
    assert float(d.n1 @ d.n2) == pytest.approx(math.cos(alpha), abs=1e-12)
    bisector = d.n1 + d.n2
    bisector /= np.linalg.norm(bisector)
    assert np.allclose(bisector, d.axis, atol=1e-12)
    assert float(d.n1 @ d.axis) == pytest.approx(math.cos(alpha / 2), abs=1e-12)


def test_doublet_rejects_bad_aperture():
    with pytest.raises(InvalidInputError):
        make_doublet([0, 0, 1], 0.0)
    with pytest.raises(InvalidInputError):
        make_doublet([0, 0, 1], math.pi)


def test_doublet_rejects_unknown_azimuth_rule():
    with pytest.raises(InvalidInputError):
        make_doublet([0, 0, 1], 1.0, azimuth_rule="whatever")


def test_mub_partner_is_orthogonal_unit():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = random_unit_vector(rng)
        m = mub_partner(n)
        assert float(n @ m) == pytest.approx(0.0, abs=1e-12)
        assert float(m @ m) == pytest.approx(1.0, abs=1e-12)


def test_mub_partner_of_z_is_x():
    assert np.allclose(mub_partner(np.array([0.0, 0.0, 1.0])), [1.0, 0.0, 0.0])


def test_werner_state_limits():
    singlet = werner_state(1.0).matrix
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert np.allclose(singlet, np.outer(psi, psi.conj()))
    assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4)


def test_werner_state_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        werner_state(1.5)
    with pytest.raises(InvalidInputError):
        werner_state(-0.5)


def test_werner_correlations():
    eta = 0.7
    w = werner_state(eta).matrix
    for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        s = pauli_vector(axis)
        corr = float(np.real(np.trace(w @ np.kron(s, s))))
        assert corr == pytest.approx(-eta, abs=1e-12)


def test_entanglement_geometry_defaults():
    geom = make_entanglement_geometry(math.pi / 2)
    assert len(geom.a_axes) == 3
    assert np.allclose(geom.a_axes[0], [1, 0, 0])
    assert np.allclose(geom.b_axes[2], [0, 0, 1])
    for i in range(3):
        d = geom.b_doublets[i]
        assert float(d.n1 @ d.n2) == pytest.approx(0.0, abs=1e-12)


def test_entanglement_geometry_rejects_non_orthonormal_frame():
    frame = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(InvalidInputError):
        make_entanglement_geometry(1.0, a_frame=frame)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
def test_non_finite_vectors_are_rejected_as_such(bad):
    with pytest.raises(InvalidInputError, match="not finite"):
        pauli_vector(bad)
    with pytest.raises(InvalidInputError, match="not finite"):
        bloch_state(bad)


def test_cross_has_the_bits_of_np_cross():
    """`geometry._cross` forms np.cross's products and subtractions: the same bits, signed zeros included."""
    rng = np.random.default_rng(41)
    a, b = rng.normal(size=(64, 3)), rng.normal(size=(64, 3))
    near = a[:16] * (1.0 + rng.uniform(-1e-15, 1e-15, size=(16, 1)))  # nearly parallel to a[:16]
    zeros = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [1.0, -0.0, 0.0]])
    pairs = [(a, b), (a[:16], near), (zeros, zeros[::-1]), (zeros, b[:4]), (b[:4], zeros), (a, a)]
    pairs += [(v, ref) for v in a[:8] for ref in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))]
    for x, y in pairs:
        got, want = geometry._cross(x, y), np.cross(x, y)
        assert got.shape == want.shape
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
