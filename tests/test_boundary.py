"""Malformed arguments fail at the public boundary as InvalidInputError.

Each case below used to escape as a bare Python or numpy TypeError or
ValueError (a non-iterable collection, a malformed entry inside a valid
collection, a non-numeric matrix or 3-vector).
"""
from __future__ import annotations

import pytest

from pplab import (
    DensityMatrix,
    GameState,
    InvalidInputError,
    ObservableSpec,
    PointerConfig,
    Scheme,
    bloch_state,
    build_scheme,
    chsh_test,
    coherence_test,
    convex_pp,
    discord_test,
    equality_sum,
    evaluate_strategy,
    evolve_scheme,
    game_score,
    linear_ent_test,
    make_doublet,
    make_entanglement_geometry,
    marginalize,
    negativity_report,
    nonlinear_ent_test,
    partial_trace,
    perturbative_prediction,
    proportionality_check,
    qubit_projector,
    scan_strategies,
    scheme_from_json,
    scheme_from_state,
    scheme_to_json,
    simulate_pointers,
    statistic_from_terms,
    transition_matrix,
    unit_pp,
    werner_state,
)

RHO = bloch_state([0.6, 0.0, 0.0])
POST = bloch_state([0.0, 0.0, 0.0])
CFG = PointerConfig(g=0.05, t=1.0, grid_points=32)
Z_PLUS = qubit_projector([0, 0, 1], +1)
PROJS = [Z_PLUS, qubit_projector([1, 0, 0], +1)]
AXIS = [0.0, 0.0, 1.0]

CASES = {
    "build_scheme/observables": lambda: build_scheme(RHO, 5),
    "build_scheme/entry": lambda: build_scheme(RHO, [5]),
    "scheme_from_json/observables": lambda: scheme_from_json(
        {"observables": 5, "prescription": "unit", "entries": {}}
    ),
    "simulate_pointers/projectors": lambda: simulate_pointers(RHO, 5, POST, CFG),
    "perturbative_prediction/projectors": lambda: perturbative_prediction(RHO, 5, POST, CFG),
    "proportionality_check/couplings": lambda: proportionality_check(RHO, PROJS, POST, CFG, couplings=5),
    "proportionality_check/coupling": lambda: proportionality_check(
        RHO, PROJS, POST, CFG, couplings=["a"] * 3
    ),
    "evaluate_strategy/t_grid": lambda: evaluate_strategy([1, 0, 0], AXIS, 1.0, 5),
    "evaluate_strategy/time": lambda: evaluate_strategy([1, 0, 0], AXIS, 1.0, ["a"]),
    "scan_strategies/bloch_grid": lambda: scan_strategies(5, [AXIS], 1.0, [0.0]),
    "scan_strategies/axis_grid": lambda: scan_strategies([[1, 0, 0]], 5, 1.0, [0.0]),
    "make_entanglement_geometry/frame": lambda: make_entanglement_geometry(1.0, 5),
    "statistic_from_terms/terms": lambda: statistic_from_terms(5, "sum"),
    "statistic_from_terms/term": lambda: statistic_from_terms([5], "sum"),
    "DensityMatrix/string": lambda: DensityMatrix("a"),
    "unit_pp/string_factor": lambda: unit_pp(["a", Z_PLUS]),
    "simulate_pointers/string_projector": lambda: simulate_pointers(RHO, ["a"], POST, CFG),
    "bloch_state/string": lambda: bloch_state("abc"),
    "qubit_projector/string": lambda: qubit_projector("abc"),
    "make_doublet/string_axis": lambda: make_doublet("abc", 1.0),
}


@pytest.mark.parametrize("call", list(CASES.values()), ids=list(CASES))
def test_malformed_argument_is_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


MESSAGES = {
    "unit_pp": (lambda: unit_pp(5), "factors must be an ordered collection of projectors"),
    "build_scheme": (lambda: build_scheme(RHO, [5]), "observables must be an ordered collection of ObservableSpec"),
    "proportionality_check": (
        lambda: proportionality_check(RHO, PROJS, POST, CFG, couplings=5),
        "couplings must be an ordered collection of numbers",
    ),
    "DensityMatrix": (lambda: DensityMatrix("a"), "density matrix is not a numeric matrix"),
    "bloch_state": (lambda: bloch_state("abc"), "Bloch vector must be a real 3-vector"),
    "make_doublet": (lambda: make_doublet("abc", 1.0), "axis must be a real 3-vector"),
}


@pytest.mark.parametrize("call, message", list(MESSAGES.values()), ids=list(MESSAGES))
def test_boundary_messages_name_the_argument(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_item_errors_keep_their_own_message():
    # A numeric entry that fails Projector's checks is not reported as a
    # malformed collection.
    with pytest.raises(InvalidInputError, match="idempotent"):
        unit_pp([[[1, 0], [0, 0.5]], Z_PLUS])


def test_scan_strategies_reads_an_axis_generator_for_every_state():
    # The better state comes second, so a grid read only once would miss it.
    points = [[0.0, 0.0, 0.5], [0.6, 0.6, 0.0]]
    axes = ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    listed = scan_strategies(points, list(axes), 1.0, [0.0, 0.5, 1.0])
    generated = scan_strategies(points, (a for a in axes), 1.0, [0.0, 0.5, 1.0])
    assert listed["bloch"] == [0.6, 0.6, 0.0]
    assert generated == listed


def _ndarray_state_simulation():
    return simulate_pointers(RHO.matrix, PROJS, POST, CFG)


NAN = float("nan")
WERNER = werner_state(0.9)
OBS = [
    ObservableSpec(sub, axis=axis, label=label)
    for sub, axis, label in ((0, AXIS, "A1"), (0, [1, 0, 0], "A2"), (1, AXIS, "B1"), (1, [1, 0, 0], "B2"))
]
THREE_ON_ONE = [ObservableSpec(0, axis=axis) for axis in (AXIS, [1, 0, 0], [0, 1, 0])]
ONE = [ObservableSpec(0, axis=AXIS)]
PAIR_SCHEME = build_scheme(RHO, THREE_ON_ONE[:2])


# Each call used to escape as a Python TypeError, AttributeError or
# ValueError; the second item is the argument the message must name.
LEAKS = {
    "make_doublet/alpha": (lambda: make_doublet(AXIS, "a"), "alpha"),
    "werner_state/eta": (lambda: werner_state("a"), "eta"),
    "discord_test/alpha": (lambda: discord_test(werner_state(1.0), "a"), "alpha"),
    "PointerConfig/g": (lambda: PointerConfig(g="a", t=1.0), "g"),
    "transition_matrix/t": (lambda: transition_matrix("a"), "t"),
    "scheme_from_json/entries": (
        lambda: scheme_from_json({"observables": [], "prescription": "unit", "entries": 5}),
        "entries",
    ),
    "simulate_pointers/ndarray_state": (_ndarray_state_simulation, "state"),
    "statistic_from_terms/empty_max_group": (lambda: statistic_from_terms([], "max_group_sum"), "terms"),
    "convex_pp/nan_weight": (lambda: convex_pp(PROJS, [NAN]), "weights"),
    "convex_pp/string_weights": (lambda: convex_pp(PROJS, "a"), "weights"),
    "build_scheme/nan_weight": (lambda: build_scheme(RHO, THREE_ON_ONE, "convex", [NAN, 0.5, 0.5]), "weights"),
    "scheme_from_json/nan_entry": (
        lambda: scheme_from_json(
            {"observables": [{"subsystem": 0, "axis": AXIS}], "prescription": "unit", "entries": {"+": NAN, "-": 1.0}}
        ),
        "entries",
    ),
    "coherence_test/ndarray_state": (lambda: coherence_test(RHO.matrix, AXIS, [1, 0, 0]), "state"),
    "chsh_test/ndarray_state": (lambda: chsh_test(WERNER.matrix, *OBS), "state"),
    "linear_ent_test/ndarray_state": (
        lambda: linear_ent_test(WERNER.matrix, make_entanglement_geometry(1.0)),
        "state",
    ),
    "discord_test/ndarray_state": (lambda: discord_test(WERNER.matrix, 1.0), "state"),
    "build_scheme/ndarray_state": (lambda: build_scheme(RHO.matrix, OBS[:1]), "state"),
    "chsh_test/observable": (lambda: chsh_test(WERNER, 5, *OBS[1:]), "A1"),
    "linear_ent_test/geom": (lambda: linear_ent_test(WERNER, 5), "geom"),
    "nonlinear_ent_test/geom": (lambda: nonlinear_ent_test(WERNER, 5), "geom"),
    "scheme_from_json/outcome_key": (
        lambda: scheme_from_json({"observables": [], "prescription": "unit", "entries": {5: 0.5}}),
        "entries",
    ),
    "ObservableSpec/string_subsystem": (lambda: ObservableSpec("a", axis=AXIS), "subsystem"),
    "ObservableSpec/float_subsystem": (lambda: ObservableSpec(0.5, axis=AXIS), "subsystem"),
    "evaluate_strategy/omega_L": (lambda: evaluate_strategy([1, 0, 0], AXIS, "a", [0.0]), "omega_L"),
    "evaluate_strategy/theta": (lambda: evaluate_strategy([1, 0, 0], AXIS, 1.0, [0.0], theta="a"), "theta"),
    "scheme_from_state/theta": (lambda: scheme_from_state([1, 0, 0], "a"), "theta"),
    "partial_trace/dims": (lambda: partial_trace(WERNER.matrix, "ab", 0), "dims"),
    "partial_trace/keep": (lambda: partial_trace(WERNER.matrix, (2, 2), "a"), "keep"),
    # Convex weights with no subsystem carrying two or more observables.
    "build_scheme/single_nan_weight": (lambda: build_scheme(RHO, ONE, "convex", [NAN]), "weights"),
    "build_scheme/single_string_weights": (lambda: build_scheme(RHO, ONE, "convex", "a"), "weights"),
    "build_scheme/single_inf_weight": (lambda: build_scheme(RHO, ONE, "convex", [1.0, float("inf")]), "weights"),
    "scheme_from_json/nan_weight": (
        lambda: scheme_from_json(
            {"observables": [{"subsystem": 0, "axis": AXIS}], "prescription": "convex",
             "entries": {"+": 0.5, "-": 0.5}, "weights": [NAN]}
        ),
        "weights",
    ),
    "marginalize/string_index": (lambda: marginalize(PAIR_SCHEME, "a"), "drop_index"),
    "marginalize/float_index": (lambda: marginalize(PAIR_SCHEME, 0.5), "drop_index"),
    "Scheme.entry/int": (lambda: PAIR_SCHEME.entry(5), "outcomes"),
    "negativity_report/int": (lambda: negativity_report(5), "s"),
    "equality_sum/int": (lambda: equality_sum(5, "0=1"), "s"),
    "scheme_to_json/int": (lambda: scheme_to_json(5), "s"),
    "game_score/string": (lambda: game_score("abcd"), "scheme"),
    "evolve_scheme/string": (lambda: evolve_scheme("abcd", 0.0), "scheme"),
    "GameState/string": (lambda: GameState("abcd", 0.0, 1.0, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), "scheme"),
    "scheme_from_json/outcome_keys": (
        lambda: marginalize(
            scheme_from_json(
                {"observables": [{"subsystem": 0, "axis": AXIS}, {"subsystem": 0, "axis": [1, 0, 0]}],
                 "prescription": "unit", "entries": {"++": 0.25, "+-": 0.25, "-+": 0.25, "+++": 0.25}}
            ),
            0,
        ),
        "entries",
    ),
    "scheme_from_json/prescription": (
        lambda: scheme_from_json(
            {"observables": [{"subsystem": 0, "axis": AXIS}], "prescription": "bogus", "entries": {"+": 0.5, "-": 0.5}}
        ),
        "prescription",
    ),
    "Scheme/int_observables": (lambda: Scheme(5, PAIR_SCHEME.entries, "unit"), "observables"),
    "Scheme/int_entries": (lambda: Scheme(PAIR_SCHEME.observables, 5, "unit"), "entries"),
    "Scheme/string_weights": (
        lambda: Scheme(PAIR_SCHEME.observables, PAIR_SCHEME.entries, "convex", ("a",)),
        "weights",
    ),
    "Scheme.entry/unhashable": (lambda: PAIR_SCHEME.entry([[1]]), "outcomes"),
}


@pytest.mark.parametrize("call, name", list(LEAKS.values()), ids=list(LEAKS))
def test_scalar_and_container_leaks_are_invalid_input(call, name):
    with pytest.raises(InvalidInputError, match=rf"^{name} "):
        call()
