"""The two-qubit statistics are invariant under the transformations that leave their physics unchanged.

A local unitary U x V on the state, with the frames (or the CHSH axes) rotated
by the matching SO(3) matrices, leaves the five entanglement statistics and CHSH
unchanged; swapping the parties leaves CHSH (with its axes swapped), linear I
and nonlinear III (at the default frames) unchanged.  Every route compares two
frames here, so a frame bug that the scheme table, the weak recombination and
the Pauli closed form share is caught.  The rotations are seeded and drawn with
numpy alone; the samples hold Werner states, a state with a maximally mixed
marginal, and frame axes on either side of `AXIS_ALIGNMENT_CUTOFF`, where the
doublets switch their reference axis.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix, ObservableSpec, bloch_state, chsh_test, linear_ent_test, make_entanglement_geometry,
    nonlinear_ent_test, werner_state,
)
from pplab.geometry import AXIS_ALIGNMENT_CUTOFF, PAULI_X, PAULI_Y, PAULI_Z
from support import ginibre_density, random_unit_vector

VARIANTS = [
    (linear_ent_test, "I"), (linear_ent_test, "II"),
    (nonlinear_ent_test, "I"), (nonlinear_ent_test, "II"), (nonlinear_ent_test, "III"),
]
SIGMAS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
SWAP = np.eye(4)[[0, 2, 1, 3]]
TOL = 1e-12


def _su2(q: np.ndarray) -> np.ndarray:
    """The SU(2) matrix q0 I - i (q1 X + q2 Y + q3 Z) of a unit quaternion q."""
    return q[0] * np.eye(2) - 1j * np.einsum("i,ijk->jk", q[1:], SIGMAS)


def _rotation(u: np.ndarray) -> np.ndarray:
    """The SO(3) matrix R with u (sigma . n) u^dag = sigma . (R n)."""
    return np.einsum("iab,bc,jcd,ad->ij", SIGMAS, u, SIGMAS, u.conj()).real / 2.0


def _about(axis: np.ndarray, angle: float) -> np.ndarray:
    """The SU(2) rotation by `angle` about the unit `axis`."""
    return _su2(np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis]))


def _frame_with(axis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A right-handed orthonormal frame whose first row is `axis`."""
    q, _ = np.linalg.qr(np.column_stack([axis, rng.normal(size=(3, 2))]))
    q[:, 0] *= np.sign(q[:, 0] @ axis)
    frame = q.T
    return frame if np.linalg.det(frame) > 0 else frame[[0, 2, 1]]


def _across_cutoff(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A frame whose first axis lies just above the z-alignment cutoff, and the unitary
    that turns it to just below: the doublets of the two frames use different references."""
    phi = rng.uniform(0, 2 * math.pi)
    tilt = lambda z: np.array([math.sqrt(1 - z * z) * math.cos(phi), math.sqrt(1 - z * z) * math.sin(phi), z])  # noqa: E731
    above, below = tilt(AXIS_ALIGNMENT_CUTOFF + 1e-9), tilt(AXIS_ALIGNMENT_CUTOFF - 1e-9)
    axis = np.cross(above, below)
    angle = math.atan2(np.linalg.norm(axis), above @ below)
    u = _about(axis / np.linalg.norm(axis), angle)
    assert np.abs(_rotation(u) @ above - below).max() < 1e-12
    return _frame_with(above, rng), u


def _cases() -> list[tuple[DensityMatrix, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(state, alpha, a frame, b frame, U, V): Ginibre states, Werner states and a state with a
    maximally mixed a marginal, with random local unitaries; every third case turns an axis
    of the a frame across the alignment cutoff."""
    rng = np.random.default_rng(1717)
    states = [ginibre_density(rng, 4) for _ in range(10)]
    states += [werner_state(eta) for eta in (1.0, 0.6, 1 / 3, -1 / 3)]
    states.append(DensityMatrix(np.kron(np.eye(2) / 2, bloch_state([0.2, -0.4, 0.5]).matrix)))
    cases = []
    for k, state in enumerate(states):
        alpha = float(rng.uniform(0.3, 1.8))
        q = rng.normal(size=(2, 4))
        u, v = (_su2(x / np.linalg.norm(x)) for x in q)
        a_frame = _frame_with(random_unit_vector(rng), rng)
        if k % 3 == 0:
            a_frame, u = _across_cutoff(rng)
        cases.append((state, alpha, a_frame, _frame_with(random_unit_vector(rng), rng), u, v))
    return cases


CASES = _cases()


def _moved(state: DensityMatrix, u: np.ndarray, v: np.ndarray) -> DensityMatrix:
    w = np.kron(u, v)
    return DensityMatrix(w @ state.matrix @ w.conj().T)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_local_unitaries_with_rotated_frames_leave_the_entanglement_statistics_unchanged(case):
    state, alpha, a_frame, b_frame, u, v = CASES[case]
    ru, rv = _rotation(u), _rotation(v)
    geom = make_entanglement_geometry(alpha, a_frame, b_frame)
    turned = make_entanglement_geometry(alpha, a_frame @ ru.T, b_frame @ rv.T)
    moved = _moved(state, u, v)
    for test, variant in VARIANTS:
        before, after = test(state, geom, variant).statistic, test(moved, turned, variant).statistic
        assert abs(before - after) <= TOL, (test.__name__, variant, before, after)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_local_unitaries_with_rotated_axes_leave_chsh_unchanged(case):
    state, _, a_frame, b_frame, u, v = CASES[case]
    ru, rv = _rotation(u), _rotation(v)
    axes = [a_frame[0], a_frame[1], b_frame[0], b_frame[2]]
    specs = [ObservableSpec(sub, axis=n) for sub, n in zip((0, 0, 1, 1), axes)]
    turned = [ObservableSpec(sub, axis=r @ n) for sub, r, n in zip((0, 0, 1, 1), (ru, ru, rv, rv), axes)]
    before, after = chsh_test(state, *specs).statistic, chsh_test(_moved(state, u, v), *turned).statistic
    assert abs(before - after) <= TOL


@pytest.mark.parametrize("case", range(len(CASES)))
def test_swapping_the_parties_leaves_chsh_linear_i_and_nonlinear_iii_unchanged(case):
    state, alpha, a_frame, b_frame, _, _ = CASES[case]
    swapped = DensityMatrix(SWAP @ state.matrix @ SWAP)
    a1, a2, b1, b2 = a_frame[0], a_frame[1], b_frame[0], b_frame[2]
    chsh = chsh_test(state, *(ObservableSpec(s, axis=n) for s, n in zip((0, 0, 1, 1), (a1, a2, b1, b2))))
    chsh_swapped = chsh_test(swapped, *(ObservableSpec(s, axis=n) for s, n in zip((0, 0, 1, 1), (b1, b2, a1, a2))))
    assert abs(chsh.statistic - chsh_swapped.statistic) <= TOL
    geom = make_entanglement_geometry(alpha)
    for test, variant in ((linear_ent_test, "I"), (nonlinear_ent_test, "III")):
        before, after = test(state, geom, variant).statistic, test(swapped, geom, variant).statistic
        assert abs(before - after) <= TOL, (test.__name__, variant, before, after)
