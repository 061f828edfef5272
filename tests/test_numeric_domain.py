"""Numbers outside the range a computation can represent are refused by name.

The pointer simulation runs in units of the pointer width and scales its
results by sigma^N and by 1 / (g t / sigma)^N.  A zero, underflowing or
overflowing factor used to give a NaN ratio or a Python OverflowError, and an
extreme width or window gave NaN correlations after numpy warnings.  Dict weak
terms, game schemes and 3-vectors had similar holes: NaN and infinite terms
were summed, complex entries were cast to real with a numpy warning, and a
3-vector's norm could overflow.  Each case now raises InvalidInputError,
with no numpy warning on the way.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pplab import (
    InvalidInputError,
    PointerConfig,
    bloch_state,
    evaluate_strategy,
    game_score,
    perturbative_prediction,
    proportionality_check,
    qubit_projector,
    simulate_pointers,
    statistic_from_terms,
    transition_matrix,
)
from pplab.cli import parse_and_dispatch

MIXED = bloch_state([0.0, 0.0, 0.0])
RHO = bloch_state([0.6, 0.0, 0.0])
PROJS = [qubit_projector([0, 0, 1]), qubit_projector([1, 0, 0])]


def _sim(**fields):
    return simulate_pointers(RHO, PROJS, MIXED, PointerConfig(**{"g": 0.05, "t": 1.0, **fields}))


# Each call used to return NaN, raise a Python OverflowError, or warn; the
# second item is the start of the message that names the argument.
REFUSALS = {
    "simulate_pointers/zero_g": (lambda: _sim(g=0.0), "g * t / sigma = 0 is out of range"),
    "simulate_pointers/negative_zero_g": (lambda: _sim(g=-0.0), "g * t / sigma = -0 is out of range"),
    "simulate_pointers/zero_t": (lambda: _sim(t=0.0), "g * t / sigma = 0 is out of range"),
    "simulate_pointers/underflowing_g": (lambda: _sim(g=1e-200), "g * t / sigma = 1e-200 is out of range"),
    "simulate_pointers/huge_g": (lambda: _sim(g=1e200), "g * t / sigma = 1e+200 is out of range"),
    "simulate_pointers/huge_t": (lambda: _sim(t=1e300), "g * t / sigma = 5e+298 is out of range"),
    "simulate_pointers/huge_sigma": (lambda: _sim(sigma=1e300), "sigma = 1e+300 is out of range"),
    "simulate_pointers/tiny_sigma": (lambda: _sim(sigma=1e-300), "sigma = 1e-300 is out of range"),
    "simulate_pointers/huge_post": (
        lambda: simulate_pointers(RHO, PROJS, np.full((2, 2), 1e308), PointerConfig(g=0.05, t=1.0)),
        "post has an entry of modulus above 2",
    ),
    "perturbative_prediction/huge_g": (
        lambda: perturbative_prediction(RHO, PROJS, MIXED, PointerConfig(g=1e200, t=1.0)),
        "g * t / 2 = 5e+199 is out of range",
    ),
    "proportionality_check/huge_coupling": (
        lambda: proportionality_check(RHO, PROJS, MIXED, PointerConfig(g=0.05, t=1.0), [0.02, 0.04, 1e200]),
        "g * t / sigma = 1e+200 is out of range",
    ),
    "proportionality_check/underflowing_kick": (
        lambda: proportionality_check(RHO, PROJS, MIXED, PointerConfig(g=0.05, t=1.0, sigma=1e200), [0.02, 0.04, 0.06]),
        "g * t / sigma = 2e-202 is out of range",
    ),
    "statistic_from_terms/nan_coefficient": (
        lambda: statistic_from_terms([{"coefficient": math.nan, "pseudo_probability": 1.0}], "sum"),
        "coefficient must be finite, got nan",
    ),
    "statistic_from_terms/infinite_pseudo_probability": (
        lambda: statistic_from_terms([{"coefficient": 1.0, "pseudo_probability": -math.inf}], "max_group_sum"),
        "pseudo_probability must be finite, got -inf",
    ),
    "game_score/complex": (
        lambda: game_score(np.array([0.25 + 1j, 0.25, 0.25, 0.25 - 1j])),
        "scheme must be 4 real numbers",
    ),
    "evaluate_strategy/complex_bloch": (
        lambda: evaluate_strategy(np.array([1.0, 0.0, 1j]), [0, 0, 1], 1.0, [0.0]),
        "Bloch vector must be a real 3-vector",
    ),
    "evaluate_strategy/huge_axis": (
        lambda: evaluate_strategy([1.0, 0.0, 0.0], [1e200, 0.0, 0.0], 1.0, [0.0]),
        "hamiltonian_axis has an entry of modulus above 1e+100",
    ),
    "transition_matrix/complex_scalar": (lambda: transition_matrix(np.complex128(0.5)), "t must be a real number"),
}


@pytest.mark.parametrize("call, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_out_of_range_numbers_are_refused_by_name(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError) as info:
            call()
    assert type(info.value) is InvalidInputError
    assert str(info.value).startswith(message)


def test_zero_and_negative_couplings_stay_in_the_domain():
    # A zero coupling is one point of a fit; only all-zero couplings are degenerate.
    out = proportionality_check(MIXED, PROJS, np.eye(2), PointerConfig(g=0.0, t=1.0), [0.0, 0.04, 0.06])
    assert out["relative_deviation"] < 0.05
    # A negative coupling simulates; two pointers read the ratio of +g up to its next, odd order.
    plus, minus = _sim(g=0.05), _sim(g=-0.05)
    assert minus.ratio == pytest.approx(plus.ratio, rel=1e-6)


def test_the_simulation_runs_in_units_of_the_pointer_width():
    # Doubling sigma and g keeps the kick g t / sigma: the width-unit run is the same,
    # so the correlation scales by 2^N = 4 and the ratio is unchanged, exactly.
    one, two = _sim(g=0.05, sigma=1.0), _sim(g=0.1, sigma=2.0)
    assert two.correlation == 4.0 * one.correlation
    assert (two.ratio, two.pseudo_probability, two.convergence_estimate) == (
        one.ratio, one.pseudo_probability, one.convergence_estimate,
    )
    assert all(math.isfinite(v) for v in dataclasses.astuple(_sim(sigma=1e40, g=5e38)))


def test_three_pointers_at_a_weak_kick_read_one_eighth_with_no_warning():
    projs = [qubit_projector([0, 0, 1]), qubit_projector([1, 0, 0]), qubit_projector([0, 1, 0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = simulate_pointers(MIXED, projs, MIXED, PointerConfig(g=0.05, t=1.0))
    assert out.pseudo_probability == pytest.approx(0.125)
    assert out.ratio == pytest.approx(0.125, rel=1e-3)


@pytest.mark.parametrize("flags", [["--g", "0"], ["--g", "1e200"], ["--sigma", "1e-300"], ["--t", "1e300"]])
def test_cli_refuses_the_pointer_domain_with_exit_one(capsys, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = parse_and_dispatch(["pointer", "sim", "--bloch", "0,0,0", *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "out of range" in captured.err and "Traceback" not in captured.err
