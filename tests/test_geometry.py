from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pplab import (
    InvalidInputError,
    bloch_state,
    linear_ent_test,
    make_doublet,
    make_entanglement_geometry,
    mub_partner,
    pauli_vector,
    qubit_projector,
    werner_state,
)
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


def _bits(x):
    """`x` with every float spelled by `float.hex`."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x.hex() if type(x) is float else x


def test_a_copied_or_unpickled_geometry_is_rebuilt_read_only_with_no_terms():
    geom = make_entanglement_geometry(2.0)
    state = werner_state(0.9)
    expected = _bits(linear_ent_test(state, geom, "II").to_json_dict())
    assert geom._terms is not None
    for twin in (pickle.loads(pickle.dumps(geom)), copy.copy(geom), copy.deepcopy(geom)):
        assert twin._terms is None
        doublets = twin.a_doublets + twin.b_doublets
        vectors = [*twin.a_axes, *twin.b_axes, *(v for d in doublets for v in (d.n1, d.n2, d.axis))]
        assert not any(v.flags.writeable for v in vectors)
        with pytest.raises(ValueError):
            twin.b_axes[1][:] = [0, 0, 1]
        assert _bits(linear_ent_test(state, twin, "II").to_json_dict()) == expected


def test_a_copied_or_unpickled_doublet_is_read_only():
    d = make_doublet([0, 0, 1], 1.1)
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert not any(v.flags.writeable for v in (twin.n1, twin.n2, twin.axis))
        assert [v.tobytes() for v in (twin.n1, twin.n2, twin.axis)] == [v.tobytes() for v in (d.n1, d.n2, d.axis)]
        assert twin.alpha.hex() == d.alpha.hex()
