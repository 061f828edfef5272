"""Results are invariant under the transformations that leave their physics unchanged.

A local unitary U x V on the state, with the frames (or the CHSH axes) rotated
by the matching SO(3) matrices, leaves the five entanglement statistics and CHSH
unchanged; swapping the parties leaves CHSH (with its axes swapped), linear I
and nonlinear III (at the default frames) unchanged.  Every route compares two
frames here, so a frame bug that the scheme table, the weak recombination and
the Pauli closed form share is caught.  The rotations are seeded and drawn with
numpy alone; the samples hold Werner states, a state with a maximally mixed
marginal, and frame axes on either side of `AXIS_ALIGNMENT_CUTOFF`, where the
doublets switch their reference axis.

The rest of the library is held the same way: negating one observable's axis
maps each `build_scheme` entry onto the entry with that outcome flipped, bit
for bit; one unitary on every input leaves `simulate_pointers`' ratio and
`weak_value` unchanged; one rotation of a qubit's Bloch vector and axes leaves
the coherence, Boolean state-dependent and distributivity statistics unchanged.
`discord_test` is the exception: lab axes fix its measurements, and its move
under a local unitary is pinned.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix, ObservableSpec, PointerConfig, Projector, bloch_state, boolean_state_dep_test, build_scheme,
    chsh_test, coherence_test, discord_test, distributivity_test, linear_ent_test, make_entanglement_geometry,
    nonlinear_ent_test, simulate_pointers, weak_value, werner_state,
)
from pplab.geometry import AXIS_ALIGNMENT_CUTOFF, PAULI_X, PAULI_Y, PAULI_Z
from pplab.pseudoprojection import PRESCRIPTIONS
from support import ginibre_density, haar_projector, random_bloch_vector, random_unit_vector

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


def test_discord_depends_on_the_lab_frame_by_the_pinned_amount():
    """`discord_test` is not covariant; both statistics are pinned so that a change of convention is
    made on purpose.  Lab axes fix its measurements: the second branch axis is `mub_partner` of the
    first, crossed with y (z near y), each doublet lies in the plane of its axis and z (x near z), as
    `_doublets` builds it, and side b measures along side a's branch axes in its own frame.  So a
    local unitary U x V on one seeded state moves the statistic at alpha = 2 by 0.12."""
    rng = np.random.default_rng(1713)
    state = ginibre_density(rng, 4)
    u, v = (_su2(x / np.linalg.norm(x)) for x in rng.normal(size=(2, 4)))
    before, after = discord_test(state, 2.0).statistic, discord_test(_moved(state, u, v), 2.0).statistic
    assert abs(before - 0.235644336147045) <= TOL
    assert abs(after - 0.35431513911857665) <= TOL


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


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: the Q of a complex Ginibre matrix, with the phases of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _turned(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return u @ m @ u.conj().T


def test_negating_an_axis_flips_that_outcome_of_every_scheme_entry_exactly():
    rng = np.random.default_rng(3141)
    for k, split in enumerate([(1,), (2,), (3,), (4,), (2, 1), (1, 2), (2, 2), (3, 1)] * 3):
        subsystems = [sub for sub, size in enumerate(split) for _ in range(size)]
        axes = [random_unit_vector(rng) for _ in subsystems]
        state = ginibre_density(rng, 2 ** len(split))
        prescription = PRESCRIPTIONS[k % len(PRESCRIPTIONS)]
        j = int(rng.integers(len(axes)))
        signs = [-1.0 if i == j else 1.0 for i in range(len(axes))]
        scheme = build_scheme(state, [ObservableSpec(sub, axis=n) for sub, n in zip(subsystems, axes)], prescription)
        negated = build_scheme(
            state, [ObservableSpec(sub, axis=s * n) for sub, s, n in zip(subsystems, signs, axes)], prescription
        )
        flipped = {tuple(o * int(s) for o, s in zip(key, signs)): v for key, v in scheme.entries.items()}
        assert [v.hex() for v in negated.entries.values()] == [flipped[key].hex() for key in negated.entries], (
            split, prescription, j)


def test_one_unitary_on_state_projectors_and_post_selection_leaves_the_pointer_ratio_unchanged():
    rng = np.random.default_rng(2718)
    for k in range(12):
        state = DensityMatrix(np.eye(2) / 2) if k == 0 else ginibre_density(rng, 2)
        projectors = [haar_projector(rng, 2) for _ in range(1 + k % 3)]
        post = ginibre_density(rng, 2)
        cfg = PointerConfig(g=float(rng.uniform(0.2, 1.0)), t=0.5)
        u = _unitary(rng, 2)
        before = simulate_pointers(state, projectors, post, cfg).ratio
        after = simulate_pointers(
            DensityMatrix(_turned(u, state.matrix)),
            [Projector(_turned(u, p.matrix)) for p in projectors],
            DensityMatrix(_turned(u, post.matrix)),
            cfg,
        ).ratio
        assert abs(after - before) <= TOL * max(1.0, abs(before)), (k, before, after)


def test_one_rotation_of_bloch_vector_and_axes_leaves_the_single_qubit_statistics_unchanged():
    rng = np.random.default_rng(1618)
    tests = [(coherence_test, 2), (boolean_state_dep_test, 2), (distributivity_test, 3)]
    for k in range(20):
        r = np.zeros(3) if k == 0 else random_unit_vector(rng) if k % 5 == 1 else random_bloch_vector(rng)
        axes = [random_unit_vector(rng) for _ in range(3)]
        q = rng.normal(size=4)
        rot = _rotation(_su2(q / np.linalg.norm(q)))
        for test, count in tests:
            before = test(bloch_state(r), *axes[:count]).statistic
            after = test(bloch_state(rot @ r), *(rot @ n for n in axes[:count])).statistic
            assert abs(after - before) <= TOL, (test.__name__, k, before, after)


def test_one_unitary_on_operator_pre_and_post_selection_leaves_the_weak_value_unchanged():
    rng = np.random.default_rng(1414)
    for k in range(30):
        d = 2 + k % 3
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g + g.conj().T if k % 2 else g
        pre, post = ginibre_density(rng, d), haar_projector(rng, d) if k % 4 < 2 else ginibre_density(rng, d)
        u = _unitary(rng, d)
        moved = type(post)(_turned(u, post.matrix))
        before = weak_value(a, pre, post).value
        after = weak_value(_turned(u, a), DensityMatrix(_turned(u, pre.matrix)), moved).value
        assert abs(after - before) <= TOL * abs(before), (k, before, after)
