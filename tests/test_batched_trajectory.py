"""The game reads its whole trajectory from one stacked scheme contraction.

`evaluate_strategy` checks its inputs once, rotates the initial Bloch vector
to every grid time in one step and contracts the (T, 2, 2) stack of states
with the unit moments of the observable pair.  Each entry must still be the
pseudo-probability `build_scheme` gives for the rotated state alone.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import pplab
from pplab import ObservableSpec, bloch_state, build_scheme, evaluate_strategy, scheme_from_state
from pplab import game, operator_core
from pplab.game import OUTCOME_ORDER
from pplab.scheme import _walsh_hadamard


def _rotated(p0: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """p0 turned by `angle` about the unit `axis`, through the rotation matrix."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    r = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return r @ p0


def _strategies():
    rng = np.random.default_rng(2024)
    for k in range(16):
        p0 = rng.normal(size=3)
        p0 /= np.linalg.norm(p0)
        if k % 4:
            p0 *= rng.uniform(0.0, 1.0)  # every fourth strategy keeps |p0| = 1
        axis = np.array([0.0, 0.0, 1.0]) if k % 3 == 0 else rng.normal(size=3)
        yield p0, axis / np.linalg.norm(axis), float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-4.0, 4.0))


@pytest.mark.parametrize("p0, axis, omega, theta", list(_strategies()))
def test_trajectory_entries_equal_a_per_point_build_scheme(p0, axis, omega, theta):
    times = np.linspace(0.0, 7.0, 23)
    report = evaluate_strategy(p0, axis, omega, times, theta)
    m = [math.cos(theta), math.sin(theta), 0.0]
    w = [-math.sin(theta), math.cos(theta), 0.0]
    pair = [ObservableSpec(0, axis=m), ObservableSpec(0, axis=w)]
    for point, t in zip(report.trajectory, times):
        scheme = build_scheme(bloch_state(_rotated(p0, axis, -omega * t)), pair, "unit")
        assert point.time == t
        assert np.max(np.abs(np.subtract(point.scheme4, [scheme.entry(k) for k in OUTCOME_ORDER]))) <= 1e-12
    best = max(report.trajectory, key=lambda g: 1.0 - min(g.scheme4))
    assert (report.best_time, report.best_score) == (best.time, 1.0 - min(best.scheme4))


def test_scheme_from_state_is_the_trajectory_at_one_time():
    p0, axis = np.array([0.3, -0.5, 0.4]), np.array([0.0, 0.6, 0.8])
    point = evaluate_strategy(p0, axis, 1.7, [0.0], 0.9).trajectory[0]
    assert point.scheme4 == scheme_from_state(p0, 0.9)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_walsh_hadamard_equals_row_by_row(n):
    v = np.random.default_rng(n).normal(size=(7, 2**n))
    stacked = _walsh_hadamard(v)
    rows = np.concatenate([_walsh_hadamard(row[None]) for row in v])
    assert stacked.shape == v.shape
    assert stacked.tobytes() == rows.tobytes()
    hadamard = np.ones((1, 1))
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(stacked, v @ hadamard, rtol=0.0, atol=1e-12)


def test_a_trajectory_checks_its_inputs_once_and_builds_no_scheme(monkeypatch):
    states: list[object] = []
    original_init = operator_core.DensityMatrix.__post_init__

    def counting_init(self):
        states.append(self)
        original_init(self)

    monkeypatch.setattr(operator_core.DensityMatrix, "__post_init__", counting_init)
    schemes: list[object] = []
    original_build = sys.modules["pplab.scheme"].build_scheme

    def counting_build(*args, **kwargs):
        schemes.append(args)
        return original_build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "pplab" or name.startswith("pplab.")) and getattr(module, "build_scheme", None) is original_build:
            monkeypatch.setattr(module, "build_scheme", counting_build)
    checks: list[object] = []
    original_check = game._validate_scheme4

    def counting_check(s):
        checks.append(s)
        return original_check(s)

    monkeypatch.setattr(game, "_validate_scheme4", counting_check)

    report = evaluate_strategy([0.2, 0.7, -0.1], [0.6, 0.0, 0.8], 1.3, np.linspace(0.0, 2.0 * math.pi, 129), 0.4)
    scores = [g.score for g in report.trajectory]
    assert len(report.trajectory) == 129
    assert states == []
    assert schemes == []
    # One check per GameState as it is built; reading a score re-checks nothing.
    assert len(checks) == 129
    assert scores == [1.0 - min(g.scheme4) for g in report.trajectory]
    # The counters reach the functions they wrap.
    pplab.build_scheme(bloch_state([0.0, 0.0, 0.5]), [ObservableSpec(0, axis=[0.0, 0.0, 1.0])], "unit")
    assert len(schemes) == 1 and len(states) == 1


@pytest.mark.parametrize("bad", [
    [0.0, 1.0], [[0.0, 0.0, 1.0]], [float("nan"), 0.0, 0.0], [0.5j, 0.0, 0.0], "abc", ["0", "0", "1"],
    [0.0, 0.0, 1.0 + 1e-9], [0.8, 0.8, 0.0], [1e200, 0.0, 0.0],
])
def test_a_bad_bloch_vector_fails_the_trajectory_as_it_fails_bloch_state(bad):
    with pytest.raises(pplab.PPLabError) as expected:
        bloch_state(bad)
    with pytest.raises(pplab.PPLabError) as got:
        evaluate_strategy(bad, [0.0, 0.0, 1.0], 1.0, [0.0, 1.0])
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
