"""The pointer kernel's per-thread workspace keeps the bits of the plain-expression kernel.

`_oracle_correlation` is the kernel as it was written before it reused its
arrays: one fresh numpy temporary per step.  numpy's complex multiply uses FMA,
so it is not bitwise commutative, and numpy elides `phase * <temporary>` into
the temporary from 256 KiB on, swapping the operands.  The results therefore
depend on the host's SIMD paths; each test compares the two kernels on the
same host instead of pinning golden numbers.
"""
from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np
import pytest

import pplab.pointer
from pplab import PointerConfig, bloch_state, proportionality_check, qubit_projector, simulate_pointers
from pplab.pointer import (
    BRANCH_FLOOR, OVERLAP_FLOOR, SPECTRAL_TOL, ConvergenceError, PostSelectionImpossibleError, _pauli_coordinates,
)


def _oracle_correlation(state, projectors, effect, cfg):
    n_pointers = len(projectors)
    n = cfg.grid_points
    half = cfg.grid_halfwidth
    xs = np.linspace(-half, half, n, endpoint=False)
    dx = xs[1] - xs[0]
    ks = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)

    # Product of identical Gaussians, discretely normalized.
    psi1 = np.exp(-(xs ** 2) / 4.0).astype(complex)
    psi1 /= math.sqrt(float(np.sum(np.abs(psi1) ** 2)))
    phik = np.fft.fftn(functools.reduce(np.multiply.outer, [psi1] * n_pointers))

    # Each projector is c I + v . sigma with (c, v) = Tr(P sigma_mu)/2.
    comps = [_pauli_coordinates(p.matrix) / 2.0 for p in projectors]
    kgrids = np.meshgrid(*([ks] * n_pointers), indexing="ij")
    alpha = sum(cv[0] * kg for cv, kg in zip(comps, kgrids))
    beta = [sum(cv[a] * kg for cv, kg in zip(comps, kgrids)) for a in (1, 2, 3)]
    bnorm = np.sqrt(beta[0] ** 2 + beta[1] ** 2 + beta[2] ** 2)

    gt = cfg.g * cfg.t / cfg.sigma
    phase = np.exp(-1j * gt * alpha)
    cosb = np.cos(gt * bnorm)
    # sin(gt b)/b with its b -> 0 limit gt.
    sinc = np.where(bnorm > 0, np.sin(gt * np.where(bnorm > 0, bnorm, 1.0)) / np.where(bnorm > 0, bnorm, 1.0), gt)
    u00 = phase * (cosb - 1j * sinc * beta[2])
    u01 = phase * (-1j * sinc * (beta[0] - 1j * beta[1]))
    u10 = phase * (-1j * sinc * (beta[0] + 1j * beta[1]))
    u11 = phase * (cosb + 1j * sinc * beta[2])

    xprod = functools.reduce(np.multiply.outer, [xs] * n_pointers)

    evals, evecs = np.linalg.eigh(state.matrix)
    num = 0.0
    den = 0.0
    for weight, chi in zip(evals, evecs.T):
        if weight < BRANCH_FLOOR:
            continue
        c0k = chi[0] * phik
        c1k = chi[1] * phik
        b0 = np.fft.ifftn(u00 * c0k + u01 * c1k)
        b1 = np.fft.ifftn(u10 * c0k + u11 * c1k)
        norm = float(np.sum(np.abs(b0) ** 2 + np.abs(b1) ** 2))
        if abs(norm - 1.0) > SPECTRAL_TOL:
            raise ConvergenceError(
                f"evolution lost unitarity (branch norm {norm:.12f}); increase grid_halfwidth"
            )
        w = np.real(
            effect[0, 0] * b0 * b0.conj()
            + effect[1, 1] * b1 * b1.conj()
            + effect[0, 1] * b1 * b0.conj()
            + effect[1, 0] * b0 * b1.conj()
        )
        num += float(weight) * float(np.sum(w * xprod))
        den += float(weight) * float(np.sum(w))

    if den <= OVERLAP_FLOOR:
        raise PostSelectionImpossibleError(
            f"post-selection weight {den:.3e} vanished after evolution"
        )
    return num / den


# (pointers, grid points, inputs): 1-pointer sizes from 32 to the 4096 cap, and the
# 2- and 3-pointer grids below and above numpy's 256 KiB elision threshold.
GRIDS = [(1, 32, 4), (1, 64, 4), (1, 256, 4), (1, 1024, 4), (1, 4096, 4), (2, 32, 4), (2, 64, 4), (2, 128, 2),
         (3, 32, 2)]
KICKS = [1e-6, 1e-4, 1e-2, 0.3, 1.0]


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _case(rng, n_pointers, grid_points, i):
    """Seeded input `i`: a pure or mixed state (i even or odd), a diagonal or off-diagonal
    effect (i mod 4 below 2 or not) and the kick g t / sigma = KICKS[i mod 5]."""
    state = bloch_state(_unit(rng) * (1.0 if i % 2 == 0 else rng.uniform(0.2, 0.9)))
    projectors = [qubit_projector(_unit(rng), int(rng.choice([-1, 1]))) for _ in range(n_pointers)]
    if i % 4 < 2:
        effect = np.diag(rng.uniform(0.1, 1.0, size=2)).astype(complex)
    else:
        effect = bloch_state(_unit(rng) * rng.uniform(0.3, 1.0)).matrix
    sigma = float(rng.choice([0.5, 1.0, 2.0]))
    cfg = PointerConfig(g=KICKS[i % len(KICKS)] * sigma, t=1.0, sigma=sigma, grid_points=grid_points,
                        grid_halfwidth=float(rng.choice([7.0, 9.0])))
    plist, effect, _ = pplab.pointer._setup(state, projectors, effect)
    return state, plist, effect, cfg


def _cases():
    rng = np.random.default_rng(20)
    inputs = {4: (0, 1, 2, 3), 2: (0, 3)}
    cases = [_case(rng, n, grid, i + j) for j, (n, grid, count) in enumerate(GRIDS) for i in inputs[count]]
    # One 3-pointer grid at its 64-point cap, and projectors along one axis, whose b
    # vanishes on the whole line k_1 = k_2 and not only at k = 0.
    cases.append(_case(rng, 3, 64, 2))
    state, _, effect, cfg = _case(rng, 2, 64, 1)
    cases.append((state, (qubit_projector([0, 0, 1]), qubit_projector([0, 0, 1], -1)), effect, cfg))
    return cases


def test_the_kernel_keeps_the_bits_of_the_plain_expression_kernel():
    for state, plist, effect, cfg in _cases():
        got = pplab.pointer._correlation(state, plist, effect, cfg)
        want = _oracle_correlation(state, plist, effect, cfg)
        assert got.hex() == want.hex(), (len(plist), cfg)


def test_simulation_and_fit_equal_their_values_on_the_plain_expression_kernel(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [_case(rng, n, grid, i) for n, grid in ((1, 64), (2, 32), (1, 2048)) for i in range(3)]

    def run():
        return [
            (simulate_pointers(state, plist, effect, cfg),
             proportionality_check(state, plist, effect, cfg, [cfg.g / 3, cfg.g / 2, cfg.g]))
            for state, plist, effect, cfg in cases
        ]

    got = run()
    monkeypatch.setattr(pplab.pointer, "_correlation", _oracle_correlation)
    assert repr(got) == repr(run())


def _run_in_threads(jobs):
    """Run each job in its own thread, all released together and switched often; return their results in order."""
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(i):
        start.wait(timeout=30)
        results[i] = [pplab.pointer._correlation(*args) for args in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_on_different_grids_get_the_sequential_results():
    rng = np.random.default_rng(22)
    # Each thread alternates two shapes, as a simulation and its refinement do, and
    # shares one of them with another thread, so a workspace shared across threads
    # would be overwritten mid-call.
    jobs = [
        [_case(rng, n, grid, i) for i, grid in enumerate(grids * 4)]
        for n, grids in ((1, (4096, 2048)), (1, (2048, 1024)), (2, (64, 128)), (2, (32, 64)))
    ]
    want = [[pplab.pointer._correlation(*args) for args in job] for job in jobs]
    for _ in range(3):
        assert _run_in_threads(jobs) == want


@pytest.mark.parametrize("grids", [((1, 32), (1, 64), (2, 32)), ((2, 32), (2, 64), (2, 32), (1, 4096))])
def test_a_thread_keeps_the_workspaces_of_its_two_latest_grid_shapes_only(grids):
    rng = np.random.default_rng(23)
    cases = [_case(rng, n, grid, 0) for n, grid in grids]
    held = []

    def work():
        for case in cases:
            pplab.pointer._correlation(*case)
        held.extend(pplab.pointer._local.blocks)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    shapes = [(grid,) * n for n, grid in grids]
    assert held == shapes[-2:]
