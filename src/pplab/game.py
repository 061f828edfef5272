"""Two-observable pseudo-probability game under Larmor evolution.

A strategy picks an initial Bloch vector and a Hamiltonian axis; the state
precesses, the four pseudo-probabilities of an orthogonal equatorial
observable pair evolve through an explicit 4x4 transition family T(t), and
the payoff is how far any three entries climb above 1 (equivalently how
negative the remaining entry gets).  Entry order throughout is
(++, --, +-, -+).

The family satisfies T(t1) T(t2) = T(t1 + t2) and row/column sums 1, with
entries of either sign.  T(0) is idempotent rather than the 4x4 identity:
it is the identity element of the family, and it fixes exactly the balanced
schemes (P1 + P2 = P3 + P4 = 1/2), which is every scheme an actual state
produces for this observable pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import bloch_state, unit_vector
from .operator_core import SPECTRAL_TOL, Array, _real, _sequence
from .scheme import ObservableSpec, build_scheme

__all__ = [
    "GameState",
    "StrategyReport",
    "transition_matrix",
    "evolve_scheme",
    "game_score",
    "scheme_from_state",
    "evaluate_strategy",
    "scan_strategies",
]

# (++, --, +-, -+) labels for the four entries.
OUTCOME_ORDER = ((+1, +1), (-1, -1), (+1, -1), (-1, +1))


@dataclass(frozen=True)
class GameState:
    """One trajectory point: the scheme with its strategy context."""

    scheme4: tuple[float, float, float, float]
    time: float
    omega_L: float
    bloch: tuple[float, float, float]
    hamiltonian_axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        _validate_scheme4(self.scheme4)

    @property
    def score(self) -> float:
        return game_score(self.scheme4)


@dataclass(frozen=True)
class StrategyReport:
    trajectory: tuple[GameState, ...]
    best_time: float
    best_score: float


def _validate_scheme4(s: object) -> Array:
    try:
        arr = np.asarray(s, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"scheme must be 4 real numbers, got {s!r}") from None
    if arr.shape != (4,):
        raise InvalidInputError(f"scheme must have 4 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("scheme entries must be finite")
    total = float(arr.sum())
    if abs(total - 1.0) > SPECTRAL_TOL:
        raise InvalidInputError(f"scheme must sum to 1, got {total}")
    return arr


def transition_matrix(t: float) -> Array:
    """Explicit transition family at unit Larmor frequency.

    Rescale time for other frequencies.  Rows and columns sum to 1; entries
    go negative, which is what lets evolved schemes outscore the classical
    bound.
    """
    t = _real(t, "t")
    if not math.isfinite(t):
        raise InvalidInputError(f"time must be finite, got {t}")
    c = math.cos(t)
    s = math.sin(t)
    return 0.25 * np.array(
        [
            [1 + 2 * c, 1 - 2 * c, 1 - 2 * s, 1 + 2 * s],
            [1 - 2 * c, 1 + 2 * c, 1 + 2 * s, 1 - 2 * s],
            [1 + 2 * s, 1 - 2 * s, 1 + 2 * c, 1 - 2 * c],
            [1 - 2 * s, 1 + 2 * s, 1 - 2 * c, 1 + 2 * c],
        ]
    )


def evolve_scheme(s0: object, t: float) -> Array:
    arr = _validate_scheme4(s0)
    return transition_matrix(t) @ arr


def game_score(s: object) -> float:
    """1 - min entry: the largest sum of three entries."""
    arr = _validate_scheme4(s)
    return float(1.0 - arr.min())


def _observable_axes(theta: float) -> tuple[Array, Array]:
    m = np.array([math.cos(theta), math.sin(theta), 0.0])
    w = np.array([-math.sin(theta), math.cos(theta), 0.0])
    return m, w


def scheme_from_state(state_bloch: object, theta: float = 0.0) -> tuple[float, float, float, float]:
    """Four pseudo-probabilities of the equatorial observable pair at angle theta."""
    rho = bloch_state(state_bloch)
    theta = _real(theta, "theta")
    if not math.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    m, w = _observable_axes(theta)
    sch = build_scheme(rho, [ObservableSpec(0, axis=m), ObservableSpec(0, axis=w)], "unit")
    return tuple(sch.entry(k) for k in OUTCOME_ORDER)  # type: ignore[return-value]


def _rotate(p: Array, axis: Array, angle: float) -> Array:
    c = math.cos(angle)
    s = math.sin(angle)
    return p * c + np.cross(axis, p) * s + axis * float(axis @ p) * (1.0 - c)


def evaluate_strategy(
    bloch: object,
    hamiltonian_axis: object,
    omega_L: float,
    t_grid: object,
    theta: float = 0.0,
) -> StrategyReport:
    """Score the scheme trajectory of a precessing state.

    The Bloch vector rotates by -omega_L * t about the Hamiltonian axis (the
    Hamiltonian is minus half the frequency times the axis observable), the
    scheme is rebuilt at every grid time, and the best scoring point is
    reported.
    """
    bloch_state(bloch)  # shape, finiteness and |p| <= 1, once for the whole trajectory
    p0 = np.asarray(bloch, dtype=float)
    axis = unit_vector(hamiltonian_axis, "hamiltonian_axis")
    omega_L = _real(omega_L, "omega_L")
    if not math.isfinite(omega_L):
        raise InvalidInputError(f"omega_L must be finite, got {omega_L}")
    times = _sequence(t_grid, "t_grid", "numbers", float)
    if not times:
        raise InvalidInputError("need at least one time point")
    if not all(math.isfinite(t) for t in times):
        raise InvalidInputError("time grid entries must be finite")

    points = []
    for t in times:
        p_t = _rotate(p0, axis, -omega_L * t)
        scheme = scheme_from_state(p_t, theta)
        points.append(
            GameState(
                scheme4=scheme,
                time=t,
                omega_L=omega_L,
                bloch=tuple(float(x) for x in p0),
                hamiltonian_axis=tuple(float(x) for x in axis),
            )
        )
    best = max(points, key=lambda g: g.score)
    return StrategyReport(tuple(points), best.time, best.score)


def scan_strategies(
    bloch_grid: object,
    axis_grid: object,
    omega_L: float,
    t_grid: object,
    theta: float = 0.0,
) -> dict[str, object]:
    """Brute-force sweep over candidate initial states and Hamiltonian axes.

    A plain grid scan, no search claims: returns the best (bloch, axis, time,
    score) seen.
    """
    axes = _sequence(axis_grid, "axis_grid", "axes")
    best: dict[str, object] | None = None
    for p in _sequence(bloch_grid, "bloch_grid", "Bloch vectors"):
        for axis in axes:
            report = evaluate_strategy(p, axis, omega_L, t_grid, theta)
            if best is None or report.best_score > best["score"]:  # type: ignore[index,operator]
                best = {
                    "bloch": [float(x) for x in np.asarray(p, dtype=float)],
                    "axis": [float(x) for x in np.asarray(axis, dtype=float)],
                    "time": report.best_time,
                    "score": report.best_score,
                }
    if best is None:
        raise InvalidInputError("empty strategy grids")
    return best
