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
from .geometry import IDENTITY_2, _bloch_vector, _sigmas, bloch_state, unit_vector
from .operator_core import SPECTRAL_TOL, Array, _finite, _real, _real_array, _real_item, _sequence
from .pseudoprojection import _ordered_moments
from .scheme import _outcomes, _scheme_rows

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

# (++, --, +-, -+) labels for the four entries, and their columns in a `scheme._outcomes` row.
OUTCOME_ORDER = ((+1, +1), (-1, -1), (+1, -1), (-1, +1))
_COLUMNS = [_outcomes(2).index(k) for k in OUTCOME_ORDER]


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
        return float(1.0 - min(self.scheme4))  # game_score without re-checking what __post_init__ did


@dataclass(frozen=True)
class StrategyReport:
    trajectory: tuple[GameState, ...]
    best_time: float
    best_score: float


def _validate_scheme4(s: object) -> Array:
    try:
        arr = _real_array(s)
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


def _schemes(rhos: Array, theta: float) -> list[tuple[float, float, float, float]]:
    """The entries, in OUTCOME_ORDER, of the equatorial pair sigma.m, sigma.w with m = (cos theta, sin theta, 0)
    and w = (-sin theta, cos theta, 0) in each state of the (T, 2, 2) stack `rhos`, from one contraction."""
    c, s = math.cos(theta), math.sin(theta)
    moments = _ordered_moments(_sigmas([[c, s, 0.0], [-s, c, 0.0]]), "unit")
    return [tuple(row) for row in _scheme_rows(rhos, [moments], [[0, 1]])[:, _COLUMNS].tolist()]  # type: ignore[misc]


def scheme_from_state(state_bloch: object, theta: float = 0.0) -> tuple[float, float, float, float]:
    """Four pseudo-probabilities of the equatorial observable pair at angle theta."""
    rho = bloch_state(state_bloch)
    return _schemes(rho.matrix[None], _finite(theta, "theta"))[0]


def evaluate_strategy(
    bloch: object,
    hamiltonian_axis: object,
    omega_L: float,
    t_grid: object,
    theta: float = 0.0,
) -> StrategyReport:
    """Score the scheme trajectory of a precessing state.

    The Bloch vector rotates by -omega_L * t about the Hamiltonian axis (the
    Hamiltonian is minus half the frequency times the axis observable), and
    the best scoring grid time is reported.  The inputs are checked once; the
    states at all grid times form one stack for one scheme contraction.
    """
    p0 = _bloch_vector(bloch)
    axis = unit_vector(hamiltonian_axis, "hamiltonian_axis")
    omega_L = _finite(omega_L, "omega_L")
    times = _sequence(t_grid, "t_grid", "numbers", _real_item)
    if not times:
        raise InvalidInputError("need at least one time point")
    if not all(math.isfinite(t) for t in times):
        raise InvalidInputError("time grid entries must be finite")
    theta = _finite(theta, "theta")

    # Rodrigues' rotation of p0 by the angle -omega_L * t of each grid time, one row each.
    # The angles are Python floats, so an overflow is refused here rather than warned of by numpy.
    angles = [-omega_L * t for t in times]
    if not all(map(math.isfinite, angles)):
        raise InvalidInputError(
            f"omega_L * t must be finite, got omega_L = {omega_L} with |t| up to {max(map(abs, times))}"
        )
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    points = p0 * c + np.cross(axis, p0) * s + axis * float(axis @ p0) * (1.0 - c)
    rhos = 0.5 * (IDENTITY_2 + _sigmas(points))
    context = {"omega_L": omega_L, "bloch": tuple(p0.tolist()), "hamiltonian_axis": tuple(axis.tolist())}
    trajectory = tuple(GameState(scheme4=s4, time=t, **context) for s4, t in zip(_schemes(rhos, theta), times))
    best = max(trajectory, key=lambda g: g.score)
    return StrategyReport(trajectory, best.time, best.score)


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
