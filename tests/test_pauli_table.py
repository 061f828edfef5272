"""One Pauli coordinate table and one Re Tr(rho X) kernel behind the closed forms.

The table and the kernel are checked against an independent np.trace, so a
fault in the shared kernel cannot move a witness statistic and its Pauli
closed form together unnoticed.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from pplab import (
    ObservableSpec,
    chsh_test,
    discord_test,
    linear_ent_test,
    make_entanglement_geometry,
    nonlinear_ent_test,
    werner_state,
)
from pplab import geometry
from pplab.geometry import PAULI_X, PAULI_Y, PAULI_Z, _pauli_coordinates
from pplab.operator_core import _expectations
from support import ginibre_density, haar_vector

SIGMAS = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)


@pytest.mark.parametrize("seed", range(5))
def test_pauli_coordinates_match_an_independent_trace(seed):
    rng = np.random.default_rng(300 + seed)
    one = ginibre_density(rng, 2).matrix
    two = ginibre_density(rng, 4).matrix
    expected_one = [np.trace(one @ s).real for s in SIGMAS]
    expected_two = [[np.trace(two @ np.kron(s, t)).real for t in SIGMAS] for s in SIGMAS]
    assert np.allclose(_pauli_coordinates(one), expected_one, rtol=0, atol=1e-14)
    assert np.allclose(_pauli_coordinates(two), expected_two, rtol=0, atol=1e-14)


def test_expectations_match_an_independent_trace():
    rng = np.random.default_rng(311)
    rho = ginibre_density(rng, 4).matrix
    stack = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
    single = _expectations(rho, stack[1, 2])
    assert isinstance(single, float)
    assert single == pytest.approx(np.trace(rho @ stack[1, 2]).real, abs=1e-12)
    values = _expectations(rho, stack)
    assert values.shape == (3, 5)
    assert np.allclose(values, np.trace(rho @ stack, axis1=-2, axis2=-1).real, rtol=0, atol=1e-12)


def _assert_close(a, b, path="report"):
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=1e-12), path
    else:
        assert a == b, path


@pytest.mark.parametrize("seed", range(5))
def test_chsh_matrix_observables_match_their_axes(seed):
    rng = np.random.default_rng(320 + seed)
    state = ginibre_density(rng, 4)
    by_matrix, by_axis = [], []
    for sub, label in ((0, "A1"), (0, "A2"), (1, "B1"), (1, "B2")):
        # U sigma_z U^dag has +1 eigenvector psi = U|0>, whose Bloch vector is the axis.
        psi = haar_vector(rng, 2)
        u = np.column_stack([psi, [-psi[1].conj(), psi[0].conj()]])
        overlap = psi[0].conj() * psi[1]
        axis = [2.0 * overlap.real, 2.0 * overlap.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2]
        by_matrix.append(ObservableSpec(sub, matrix=u @ PAULI_Z @ u.conj().T, label=label))
        by_axis.append(ObservableSpec(sub, axis=axis, label=label))
    report = chsh_test(state, *by_matrix)
    assert report.extras["pauli_closed_form"] == pytest.approx(report.statistic, abs=1e-12)
    _assert_close(report.to_json_dict(), chsh_test(state, *by_axis).to_json_dict())


def test_two_qubit_closed_forms_do_not_revalidate_axes(monkeypatch):
    original = geometry.pauli_vector
    calls = []

    def counting(n):
        calls.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if (name == "pplab" or name.startswith("pplab.")) and getattr(module, "pauli_vector", None) is original:
            monkeypatch.setattr(module, "pauli_vector", counting)

    state, geom = werner_state(0.8), make_entanglement_geometry(1.2)
    for variant in ("I", "II"):
        linear_ent_test(state, geom, variant)
    for variant in ("I", "II", "III"):
        nonlinear_ent_test(state, geom, variant)
    discord_test(state, 1.2)
    assert calls == []
    # The counter reaches pplab's own calls (an ObservableSpec no longer makes one).
    geometry.qubit_projector([0.0, 0.0, 1.0])
    assert len(calls) == 1
