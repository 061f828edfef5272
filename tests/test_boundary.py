"""Malformed arguments fail at the public boundary as InvalidInputError.

Each case below used to escape as a bare Python or numpy TypeError or
ValueError (a non-iterable collection, a malformed entry inside a valid
collection, a non-numeric matrix or 3-vector).
"""
from __future__ import annotations

import copy

import numpy as np
import pytest

from pplab import (
    DensityMatrix,
    Doublet,
    EntanglementGeometry,
    GameState,
    InvalidInputError,
    ObservableSpec,
    PointerConfig,
    Projector,
    Scheme,
    anticommutator,
    bloch_state,
    boolean_state_dep_test,
    build_scheme,
    chsh_test,
    coherence_test,
    conjunction_pp,
    convex_pp,
    discord_test,
    distributivity_test,
    equality_sum,
    evaluate_strategy,
    evolve_scheme,
    expectation,
    game_score,
    linear_ent_test,
    make_doublet,
    make_entanglement_geometry,
    marginalize,
    min_eigen_certificate,
    negativity_report,
    nonlinear_ent_test,
    partial_trace,
    perturbative_prediction,
    pp_weak_factorization,
    proportionality_check,
    qubit_projector,
    real_weak_product,
    scan_strategies,
    scheme_from_json,
    scheme_from_state,
    scheme_to_json,
    simulate_pointers,
    statistic_from_terms,
    tensor_product,
    transition_matrix,
    unit_pp,
    weak_value,
    werner_state,
)
from pplab.operator_core import hermitian_eigen, require_square
from pplab.pseudoprojection import distinct_orderings

RHO = bloch_state([0.6, 0.0, 0.0])
POST = bloch_state([0.0, 0.0, 0.0])
CFG = PointerConfig(g=0.05, t=1.0)
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
HUGE = np.full((2, 2), 1e308)
WERNER = werner_state(0.9)
OBS = [
    ObservableSpec(sub, axis=axis, label=label)
    for sub, axis, label in ((0, AXIS, "A1"), (0, [1, 0, 0], "A2"), (1, AXIS, "B1"), (1, [1, 0, 0], "B2"))
]
THREE_ON_ONE = [ObservableSpec(0, axis=axis) for axis in (AXIS, [1, 0, 0], [0, 1, 0])]
ONE = [ObservableSpec(0, axis=AXIS)]
PAIR_SCHEME = build_scheme(RHO, THREE_ON_ONE[:2])
THREE_SCHEME = build_scheme(RHO, THREE_ON_ONE)


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
    # Finite weights whose sum overflows are refused before any sum is taken.
    "convex_pp/huge_weights": (
        lambda: convex_pp([*PROJS, qubit_projector([0, 1, 0], +1)], [1e308, 1e308, 0.0]),
        "weights",
    ),
    "build_scheme/huge_weights": (lambda: build_scheme(RHO, THREE_ON_ONE, "convex", [1e308, 1e308, 0.0]), "weights"),
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
    # Accepted silently before: a fractional subsystem read as its integer part,
    # and weights that build_scheme refuses.
    "scheme_from_json/float_subsystem": (
        lambda: scheme_from_json(
            {"observables": [{"subsystem": 0.5, "axis": AXIS}], "prescription": "unit", "entries": {"+": 0.5, "-": 0.5}}
        ),
        "subsystem",
    ),
    "Scheme/unit_weights": (lambda: Scheme(PAIR_SCHEME.observables, PAIR_SCHEME.entries, "unit", (1.0,)), "weights"),
    "scheme_from_json/unit_weights": (
        lambda: scheme_from_json({**scheme_to_json(PAIR_SCHEME), "prescription": "unit", "weights": [1.0, 2.0]}),
        "weights",
    ),
    "Scheme/convex_weight_count": (
        lambda: Scheme(THREE_SCHEME.observables, THREE_SCHEME.entries, "convex", (0.25,) * 4),
        "weights",
    ),
    "scheme_from_json/convex_weight_count": (
        lambda: scheme_from_json({**scheme_to_json(THREE_SCHEME), "prescription": "convex", "weights": [0.25] * 4}),
        "weights",
    ),
    # numpy refused a bool slot size with "TypeError: an integer is required".
    "partial_trace/bool_dims": (lambda: partial_trace(np.eye(4) / 4, (True, 4), 0), "dims"),
    # numpy raised "The truth value of an array ... is ambiguous".
    "qubit_projector/array_outcome": (lambda: qubit_projector(AXIS, np.array([1, 1])), "outcome"),
    "ObservableSpec.projector/array_outcome": (
        lambda: ObservableSpec(0, axis=AXIS).projector(np.array([1, -1])),
        "outcome",
    ),
    # A non-string label was tested for truth: "The truth value of an array ... is ambiguous".
    "ObservableSpec/array_label": (lambda: ObservableSpec(0, axis=AXIS, label=np.array([1, -1, 1])), "label"),
    # Complex weights were cast to real with a ComplexWarning, dropping the imaginary part.
    "convex_pp/complex_weight": (lambda: convex_pp(PROJS, [1 + 1j]), "weights"),
    "build_scheme/complex_weight": (
        lambda: build_scheme(bloch_state([0.3, 0, 0]), THREE_ON_ONE[:2], "convex", [1 + 0.5j]),
        "weights",
    ),
    # A declared rank was tested for truth: an array raised "The truth value of an array ... is
    # ambiguous", and True and 1.0 were accepted as rank 1.
    "Projector/array_rank": (lambda: Projector(Z_PLUS.matrix, rank=np.array([1, 1])), "rank"),
    "Projector/bool_rank": (lambda: Projector(Z_PLUS.matrix, rank=True), "rank"),
    "Projector/float_rank": (lambda: Projector(Z_PLUS.matrix, rank=1.0), "rank"),
    # An array rule was compared with ==: "The truth value of an array ... is ambiguous".
    "statistic_from_terms/array_rule": (
        lambda: statistic_from_terms([], np.array(["sum", "x"])),
        "unknown statistic rule",
    ),
    "linear_ent_test/array_variant": (lambda: linear_ent_test(WERNER, GEOM, np.array(["I", "II"])), "variant"),
    "nonlinear_ent_test/array_variant": (lambda: nonlinear_ent_test(WERNER, GEOM, np.array(["I"])), "variant"),
    # numpy warned "overflow encountered" on finite entries of 1e308.
    "tensor_product/huge_a": (lambda: tensor_product(HUGE, 2.0 * np.eye(2)), "a"),
    "tensor_product/huge_b": (lambda: tensor_product(2.0 * np.eye(2), HUGE), "b"),
    "anticommutator/huge_a": (lambda: anticommutator(HUGE, np.eye(2)), "a"),
    "anticommutator/huge_b": (lambda: anticommutator(np.eye(2), HUGE), "b"),
    "expectation/huge_state": (lambda: expectation(HUGE, 2.0 * np.eye(2)), "state"),
    "expectation/huge_op": (lambda: expectation(np.eye(2), HUGE), "op"),
    "partial_trace/huge": (lambda: partial_trace(np.full((4, 4), 1e308), (2, 2), 0), "m"),
    # n was compared with 2 before it was read as an integer.
    "distinct_orderings/float": (lambda: distinct_orderings(2.0), "n"),
    "distinct_orderings/string": (lambda: distinct_orderings("3"), "n"),
    "distinct_orderings/none": (lambda: distinct_orderings(None), "n"),
    # None was read as "this test takes no state": AttributeError on None.matrix.
    "coherence_test/none_state": (lambda: coherence_test(None, AXIS, [1, 0, 0]), "state"),
    "boolean_state_dep_test/none_state": (lambda: boolean_state_dep_test(None, AXIS, [1, 0, 0]), "state"),
    "distributivity_test/none_state": (lambda: distributivity_test(None, AXIS, [1, 0, 0], [0, 1, 0]), "state"),
    # The shape was read as an ndarray's: AttributeError for a list, IndexError below two axes.
    "require_square/list": (lambda: require_square([[1.0, 0.0], [0.0, 1.0]]), "matrix"),
    "require_square/vector": (lambda: require_square(np.zeros(2), "m"), "m"),
    "require_square/scalar": (lambda: require_square(np.array(1.0), "m"), "m"),
}


@pytest.mark.parametrize("call, name", list(LEAKS.values()), ids=list(LEAKS))
def test_scalar_and_container_leaks_are_invalid_input(call, name):
    with pytest.raises(InvalidInputError, match=rf"^{name} "):
        call()


ONE_SCHEME = build_scheme(RHO, ONE)
GEOM = make_entanglement_geometry(1.2)
WIDE = make_entanglement_geometry(2.8)
C, S = np.cos(0.6), np.sin(0.6)
X = [1.0, 0.0, 0.0]


def _geometry_with(side: str, index: int, **fields) -> EntanglementGeometry:
    """GEOM built directly, with the fields of one doublet replaced."""
    doublets = {"a": list(GEOM.a_doublets), "b": list(GEOM.b_doublets)}
    d = doublets[side][index]
    doublets[side][index] = Doublet(**{"n1": d.n1, "n2": d.n2, "axis": d.axis, "alpha": d.alpha, **fields})
    return EntanglementGeometry(GEOM.alpha, GEOM.a_axes, GEOM.b_axes, doublets["a"], doublets["b"])


def _off_unit_geometry() -> EntanglementGeometry:
    """The default geometry at alpha = 3.1 with a_axes[0] 5.2e-8 off unit length: the bisector of n1, n2 about x
    with n1.n2 = cos(alpha) + 0.9e-10, which passes every doublet check."""
    alpha = 3.1
    half = np.arccos(np.cos(alpha) + 0.9e-10) / 2.0
    n1, n2 = np.array([np.cos(half), 0.0, np.sin(half)]), np.array([np.cos(half), 0.0, -np.sin(half)])
    row = (n1 + n2) / (2.0 * np.cos(alpha / 2.0))
    geom = make_entanglement_geometry(alpha)
    a_doublets = (Doublet(n1, n2, row, alpha), *geom.a_doublets[1:])
    return EntanglementGeometry(alpha, (row, *geom.a_axes[1:]), geom.b_axes, a_doublets, geom.b_doublets)


# A 4x4 dichotomic observable (Z x Z) and a qutrit projector.
ZZ = np.diag([1.0, -1.0, -1.0, 1.0])
QUTRIT = np.diag([1.0, 0.0, 0.0])

# Refusals that no other test reaches: the call, its error class and its whole message.
REFUSALS = {
    "chsh_test/4x4_A1": (
        lambda: chsh_test(WERNER, ObservableSpec(0, matrix=ZZ), *OBS[1:]),
        "A1 must be a qubit observable",
    ),
    "build_scheme/mixed_dimensions": (
        lambda: build_scheme(WERNER, [ObservableSpec(0, axis=AXIS), ObservableSpec(0, matrix=ZZ)]),
        "subsystem 0 has observables of differing dimension",
    ),
    "build_scheme/nine_observables": (lambda: build_scheme(RHO, THREE_ON_ONE * 3), "need 1..8 observables, got 9"),
    "build_scheme/unequal_groups": (
        lambda: build_scheme(WERNER, [ObservableSpec(s, axis=AXIS) for s in (0, 0, 1, 1, 1)], "convex", [1.0]),
        "convex weights require all multi-observable groups to share one size",
    ),
    "Scheme/nine_observables": (lambda: Scheme(THREE_ON_ONE * 3, PAIR_SCHEME.entries, "unit"), "need 1..8 observables, got 9"),
    "Scheme/not_observables": (
        lambda: Scheme([5], ONE_SCHEME.entries, "unit"),
        "observables must be an ordered collection of ObservableSpec",
    ),
    "Scheme/entry_count": (
        lambda: Scheme(PAIR_SCHEME.observables, ONE_SCHEME.entries, "unit"),
        "expected 4 entries for 2 observables, got 2",
    ),
    "Scheme/string_entry": (
        lambda: Scheme(ONE, {(1,): "a", (-1,): 0.5}, "unit"),
        "entries must map outcome tuples to real numbers",
    ),
    "Scheme/sum": (lambda: Scheme(ONE, {(1,): 0.6, (-1,): 0.5}, "unit"), "entries must sum to 1, got 1.1"),
    "Scheme.entry/character": (lambda: PAIR_SCHEME.entry("x"), "bad outcome character 'x' in 'x'"),
    "Scheme.entry/missing": (lambda: ONE_SCHEME.entry((1, 1)), "no entry for outcomes (1, 1)"),
    "ObservableSpec/negative_subsystem": (
        lambda: ObservableSpec(-1, axis=AXIS),
        "subsystem index must be >= 0, got -1",
    ),
    "ObservableSpec/non_hermitian": (
        lambda: ObservableSpec(0, matrix=[[1, 1], [0, -1]]),
        "observable must be Hermitian",
    ),
    "ObservableSpec.projector/outcome": (lambda: ONE[0].projector(0), "outcome must be +1 or -1, got 0"),
    "marginalize/range": (lambda: marginalize(PAIR_SCHEME, 2), "drop_index 2 out of range for 2 observables"),
    "scheme_from_json/empty": (
        lambda: scheme_from_json({}),
        "scheme JSON needs observables, prescription, entries",
    ),
    "statistic_from_terms/rule": (lambda: statistic_from_terms([], "bogus"), "unknown statistic rule 'bogus'"),
    "distinct_orderings/one": (lambda: distinct_orderings(1), "orderings need n >= 2, got 1"),
    "conjunction_pp/one_factor": (lambda: conjunction_pp([Z_PLUS]), "need at least 2 factors, got 1"),
    "conjunction_pp/dimensions": (lambda: conjunction_pp([Z_PLUS, QUTRIT]), "factor dimension mismatch: [2, 3]"),
    "make_entanglement_geometry/alpha": (
        lambda: make_entanglement_geometry(4.0),
        "alpha must lie in (0, pi), got 4.0",
    ),
    "make_entanglement_geometry/two_axes": (
        lambda: make_entanglement_geometry(1.0, [[1, 0, 0], [0, 1, 0]]),
        "a_frame must contain exactly 3 axes",
    ),
    "qubit_projector/axis_shape": (lambda: qubit_projector([1, 0]), "axis must be a real 3-vector, got shape (2,)"),
    "qubit_projector/outcome": (lambda: qubit_projector(AXIS, 0), "outcome must be +1 or -1, got 0"),
    "simulate_pointers/3x3_post": (
        lambda: simulate_pointers(RHO, PROJS, np.eye(3) / 3, CFG),
        "post must be 2x2, got (3, 3)",
    ),
    "simulate_pointers/non_hermitian_post": (
        lambda: simulate_pointers(RHO, PROJS, [[1, 1], [0, 0]], CFG),
        "post must be Hermitian",
    ),
    "simulate_pointers/qutrit_projector": (
        lambda: simulate_pointers(RHO, [QUTRIT], POST, CFG),
        "pointer simulation couples qubit projectors only",
    ),
    "proportionality_check/zero_couplings": (
        lambda: proportionality_check(RHO, PROJS, POST, CFG, couplings=[0, 0, 0]),
        "couplings give a degenerate fit; use nonzero g values",
    ),
    "real_weak_product/empty": (lambda: real_weak_product([], RHO, POST), "need at least one factor"),
    "pp_weak_factorization/dimensions": (
        lambda: pp_weak_factorization(WERNER, PROJS),
        "dimension mismatch: state 4, factors 2",
    ),
    "Projector/rank": (lambda: Projector(Z_PLUS.matrix, rank=2), "declared rank 2 != trace rank 1"),
    "partial_trace/dims_shape": (
        lambda: partial_trace(WERNER.matrix, (2, 3), 0),
        "dims (2, 3) inconsistent with shape (4, 4)",
    ),
    "partial_trace/keep_range": (
        lambda: partial_trace(WERNER.matrix, (2, 2), 2),
        "keep index 2 out of range for 2 slots",
    ),
    "tensor_product/dimension": (lambda: tensor_product(np.eye(8), np.eye(16)), "tensor product exceeds dimension 64"),
    "anticommutator/dimensions": (lambda: anticommutator(np.eye(2), np.eye(4)), "dimension mismatch: (2, 2) vs (4, 4)"),
    "expectation/dimensions": (lambda: expectation(RHO, np.eye(4)), "dimension mismatch: (2, 2) vs (4, 4)"),
    "hermitian_eigen/non_hermitian": (
        lambda: hermitian_eigen([[0, 1], [0, 0]]),
        "hermitian_eigen requires a Hermitian matrix",
    ),
    "hermitian_eigen/non_square": (lambda: hermitian_eigen(np.ones((2, 3))), "m must be square, got shape (2, 3)"),
    "DensityMatrix/65x65": (
        lambda: DensityMatrix(np.eye(65) / 65),
        "density matrix exceeds the supported dimension 64",
    ),
    "DensityMatrix/3d": (
        lambda: DensityMatrix(np.zeros((2, 2, 2))),
        "density matrix must be 2-dimensional, got ndim=3",
    ),
    "game_score/three_entries": (lambda: game_score([0.5, 0.25, 0.25]), "scheme must have 4 entries, got shape (3,)"),
    "game_score/nan": (lambda: game_score([NAN, 0.5, 0.25, 0.25]), "scheme entries must be finite"),
    "transition_matrix/nan": (lambda: transition_matrix(NAN), "time must be finite, got nan"),
    "scheme_from_state/nan_theta": (lambda: scheme_from_state([0, 0, 0], NAN), "theta must be finite, got nan"),
    "evaluate_strategy/nan_omega": (
        lambda: evaluate_strategy([1, 0, 0], AXIS, NAN, [0.0]),
        "omega_L must be finite, got nan",
    ),
    "evaluate_strategy/no_times": (lambda: evaluate_strategy([1, 0, 0], AXIS, 1.0, []), "need at least one time point"),
    # numpy overflowed omega_L * t with a warning, then refused the scheme entries as not finite.
    "evaluate_strategy/overflowing_angle": (
        lambda: evaluate_strategy([1, 0, 0], AXIS, 1e308, [0.0, 2.0]),
        "omega_L * t must be finite, got omega_L = 1e+308 with |t| up to 2.0",
    ),
    "evaluate_strategy/nan_time": (
        lambda: evaluate_strategy([1, 0, 0], AXIS, 1.0, [NAN]),
        "time grid entries must be finite",
    ),
    "scan_strategies/empty": (lambda: scan_strategies([], [AXIS], 1.0, [0.0]), "empty strategy grids"),
    # bool is a subclass of int, so these two were accepted as subsystem True, labelled "sTrue".
    "ObservableSpec/bool_subsystem": (
        lambda: ObservableSpec(True, axis=AXIS),
        "subsystem must be an integer, got True",
    ),
    "scheme_from_json/bool_subsystem": (
        lambda: scheme_from_json({**scheme_to_json(ONE_SCHEME), "observables": [{"subsystem": True, "axis": AXIS}]}),
        "subsystem must be an integer, got True",
    ),
    # A label was read through str(), so 5 became "5" and null became "None".
    "scheme_from_json/numeric_label": (
        lambda: scheme_from_json({**scheme_to_json(ONE_SCHEME), "observables": [{"subsystem": 0, "axis": AXIS, "label": 5}]}),
        "label must be a string, got 5",
    ),
    # With no multi-observable group no factors are ordered; the weights were kept unchecked.
    "build_scheme/convex_weights_without_orderings": (
        lambda: build_scheme(RHO, ONE, "convex", [0.3, 5.0]),
        "weights must be non-negative and sum to 1",
    ),
    "scheme_from_json/convex_weights_without_orderings": (
        lambda: scheme_from_json({**scheme_to_json(ONE_SCHEME), "prescription": "convex", "weights": [-0.5, 1.5]}),
        "weights must be non-negative and sum to 1",
    ),
    # bool is an int, so these indices were read as 1.
    "marginalize/bool_index": (lambda: marginalize(PAIR_SCHEME, True), "drop_index must be an integer, got True"),
    "partial_trace/bool_keep": (lambda: partial_trace(WERNER.matrix, (2, 2), True), "keep must be an integer, got True"),
    # A geometry built directly was never checked against its doublets: these
    # reported one aperture while their statistic came from another.
    "EntanglementGeometry/doublets_of_another_aperture": (
        lambda: EntanglementGeometry(1.0, WIDE.a_axes, WIDE.b_axes, WIDE.a_doublets, WIDE.b_doublets),
        "a_doublets[0] has aperture 2.8, not the geometry's 1.0",
    ),
    "EntanglementGeometry/doublet_alpha": (
        lambda: _geometry_with("b", 2, alpha=1.3),
        "b_doublets[2] has aperture 1.3, not the geometry's 1.2",
    ),
    "EntanglementGeometry/long_n1": (
        lambda: _geometry_with("a", 1, n1=2.0 * GEOM.a_doublets[1].n1),
        "a_doublets[1] n1 is not a unit vector: |n1| = 2.000000000000",
    ),
    "EntanglementGeometry/long_n2": (
        lambda: _geometry_with("b", 0, n2=GEOM.b_doublets[0].n2 * (1 + 1e-9)),
        "b_doublets[0] n2 is not a unit vector: |n2| = 1.000000001000",
    ),
    "EntanglementGeometry/nan_n1": (
        lambda: _geometry_with("a", 0, n1=[NAN, 0.0, 0.0]),
        "a_doublets[0] n1 is not a unit vector: |n1| = nan",
    ),
    # Norms at the 1e100 entry bound used to print as 100-digit numbers with 12 decimals.
    "qubit_projector/huge_axis": (
        lambda: qubit_projector([1e100, 0, 0]),
        "axis must be unit length, |axis| = 1.000000000000e+100",
    ),
    "bloch_state/huge": (
        lambda: bloch_state([1e100, 0, 0]),
        "Bloch vector must satisfy |p| <= 1, got 1.000000000000e+100",
    ),
    "EntanglementGeometry/huge_n1": (
        lambda: _geometry_with("a", 1, n1=[1e100, 0.0, 0.0]),
        "a_doublets[1] n1 is not a unit vector: |n1| = 1.000000000000e+100",
    ),
    # Unit axes at half-angle 0.6 from z, but not opposite each other about it.
    "EntanglementGeometry/doublet_angle": (
        lambda: _geometry_with("a", 2, n1=[S, 0.0, C], n2=[0.0, S, C]),
        f"a_doublets[2] has n1.n2 = {C * C:.12f}, not cos(alpha) = {np.cos(1.2):.12f}",
    ),
    "EntanglementGeometry/doublet_about_another_axis": (
        lambda: _geometry_with("b", 1, n1=GEOM.b_doublets[0].n1, n2=GEOM.b_doublets[0].n2),
        "b_doublets[1] is not bisected by b_axes[1]",
    ),
    "EntanglementGeometry/alpha": (
        lambda: EntanglementGeometry(4.0, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets),
        "alpha must lie in (0, pi), got 4.0",
    ),
    "EntanglementGeometry/two_axes": (
        lambda: EntanglementGeometry(1.2, GEOM.a_axes[:2], GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets),
        "a_axes must hold 3 entries, got 2",
    ),
    "EntanglementGeometry/two_doublets": (
        lambda: EntanglementGeometry(1.2, GEOM.a_axes, GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets[:2]),
        "b_doublets must hold 3 entries, got 2",
    ),
    "EntanglementGeometry/two_vector_axis": (
        lambda: EntanglementGeometry(1.2, [[1, 0], *GEOM.a_axes[1:]], GEOM.b_axes, GEOM.a_doublets, GEOM.b_doublets),
        "a_axes[0] must be a real 3-vector",
    ),
    "Doublet/string_n1": (lambda: Doublet("abc", AXIS, AXIS, 1.0), "n1 must be a real 3-vector"),
    "Doublet/two_vector_n2": (lambda: Doublet(AXIS, [0, 1], AXIS, 1.0), "n2 must be a real 3-vector"),
    "Doublet/string_alpha": (lambda: Doublet(AXIS, AXIS, AXIS, "x"), "alpha must be a real number, got 'x'"),
    "EntanglementGeometry/not_a_doublet": (
        lambda: EntanglementGeometry(1.2, GEOM.a_axes, GEOM.b_axes, (5, *GEOM.a_doublets[1:]), GEOM.b_doublets),
        "a_doublets[0] must be a Doublet, got int",
    ),
    # A frame built directly was not checked: with frames (x, x, x), linear I and II read the product
    # state |+x>|-x> as entangled at alpha = 1.5 (-0.1963 and -0.2945), and a frame row off unit
    # length that passes every doublet check failed only at the first test call.
    "EntanglementGeometry/repeated_frame_axis": (
        lambda: EntanglementGeometry(1.5, [X] * 3, [X] * 3, [make_doublet(X, 1.5)] * 3, [make_doublet(X, 1.5)] * 3),
        "a_axes must be orthonormal",
    ),
    "EntanglementGeometry/frame_axis_off_unit": (
        _off_unit_geometry,
        "a_axes[0] must be unit length, |a_axes[0]| = 1.000000052032",
    ),
    "make_entanglement_geometry/non_orthogonal_b_frame": (
        lambda: make_entanglement_geometry(1.5, b_frame=[X, X, AXIS]),
        "b_axes must be orthonormal",
    ),
    # str.isdigit accepts superscript digits, which int() refuses.
    "equality_sum/superscript_index": (lambda: equality_sum(PAIR_SCHEME, "0=¹"), "malformed pattern token '¹'"),
    "equality_sum/superscript_singleton": (lambda: equality_sum(PAIR_SCHEME, "²"), "malformed pattern token '²'"),
    # numpy raised IndexError for a string index.
    "scheme_from_json/ndarray": (
        lambda: scheme_from_json(np.zeros((2, 2))),
        "scheme JSON needs observables, prescription, entries",
    ),
    # The two spellings of outcome - collapsed, and one value was dropped silently.
    "scheme_from_json/two_spellings": (
        lambda: scheme_from_json({**scheme_to_json(ONE_SCHEME), "entries": {"+": 0.5, "-": 0.3, "−": 0.5}}),
        "entries spell outcome '-' more than once",
    ),
    # A zero-length side raised numpy's ValueError in the ordered product and IndexError in the eigensolver.
    "real_weak_product/empty_factor": (
        lambda: real_weak_product([np.empty((0, 0))], RHO, RHO),
        "factor must not be empty, got shape (0, 0)",
    ),
    "min_eigen_certificate/empty": (lambda: min_eigen_certificate(np.empty((0, 0))), "pp must not be empty, got shape (0, 0)"),
}


@pytest.mark.parametrize("call, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal_class_and_message(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert type(info.value) is InvalidInputError
    assert str(info.value) == message


@pytest.mark.parametrize("term, message", [
    ({"coefficient": "2", "pseudo_probability": "0.5", "group": 1.7}, "coefficient must be a real number, got '2'"),
    ({"coefficient": 2.0, "pseudo_probability": "0.5"}, "pseudo_probability must be a real number, got '0.5'"),
    ({"coefficient": 2.0, "pseudo_probability": 0.5, "group": 1.7}, "group must be an integer, got 1.7"),
    ({"coefficient": 2.0, "pseudo_probability": 0.5, "group": True}, "group must be an integer, got True"),
])
def test_statistic_from_terms_reads_dict_terms_as_numbers(term, message):
    """A string number or a non-integer group used to be converted, by float() and int()."""
    for rule in ("sum", "max_group_sum"):
        with pytest.raises(InvalidInputError) as info:
            statistic_from_terms([term], rule)
        assert type(info.value) is InvalidInputError
        assert str(info.value) == message


_UNIT_RECORD = {"prescription": "unit", "entries": {"+": 0.5, "-": 0.5}}

# Text entries: numpy parses "0.1" as a number, so each of these used to be accepted.
# Each is refused with its boundary's existing message.
TEXT = {
    "bloch_state": (lambda: bloch_state(["0.1", "0", "0"]), "Bloch vector must be a real 3-vector"),
    "ObservableSpec/axis": (lambda: ObservableSpec(0, axis=["0", "0", "1"]), "axis must be a real 3-vector"),
    "ObservableSpec/bytes_axis": (
        lambda: ObservableSpec(0, axis=np.array([b"0", b"0", b"1"])), "axis must be a real 3-vector",
    ),
    "ObservableSpec/object_axis": (
        lambda: ObservableSpec(0, axis=np.array([0.0, 0.0, "1"], dtype=object)), "axis must be a real 3-vector",
    ),
    "DensityMatrix": (
        lambda: DensityMatrix([["0.5", "0"], ["0", "0.5"]]), "density matrix is not a numeric matrix",
    ),
    "DensityMatrix/mixed": (
        lambda: DensityMatrix([[0.5, 0.0], [0.0, "0.5"]]), "density matrix is not a numeric matrix",
    ),
    "scheme_from_json/axis": (
        lambda: scheme_from_json({**_UNIT_RECORD, "observables": [{"subsystem": 0, "axis": ["0", "0", "1"]}]}),
        "axis must be a real 3-vector",
    ),
    "scheme_from_json/matrix": (
        lambda: scheme_from_json({**_UNIT_RECORD, "observables": [
            {"subsystem": 0, "matrix": {"re": [["1", "0"], ["0", "-1"]], "im": [[0, 0], [0, 0]]}},
        ]}),
        "observables must be an ordered collection of observable records",
    ),
    "proportionality_check/couplings": (
        lambda: proportionality_check(RHO, PROJS, POST, CFG, couplings=["0.02", "0.04", "0.06"]),
        "couplings must be an ordered collection of numbers",
    ),
    "convex_pp/weights": (
        lambda: convex_pp(PROJS, weights=["1"]), "weights must be real numbers, got ['1']",
    ),
}


@pytest.mark.parametrize("call, message", list(TEXT.values()), ids=list(TEXT))
def test_text_entries_are_refused(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert type(info.value) is InvalidInputError
    assert str(info.value) == message


# Each used to raise numpy's "The truth value of an array ... is ambiguous" ValueError when
# compared with an equal but distinct copy.  A type that holds arrays compares by identity;
# WeakValueReport and Scheme compare their fields, which are such objects.
EQUALITY = {
    "DensityMatrix": lambda: RHO,
    "Projector": lambda: Z_PLUS,
    "ObservableSpec": lambda: ObservableSpec(0, axis=AXIS),
    "Doublet": lambda: make_doublet(AXIS, 1.0),
    "EntanglementGeometry": lambda: GEOM,
    "PseudoProjection": lambda: unit_pp(PROJS),
    "WeakValueReport": lambda: weak_value(np.diag([1.0, -1.0]), RHO, bloch_state([0.0, 0.0, 0.8])),
    "Scheme": lambda: PAIR_SCHEME,
}


@pytest.mark.parametrize("build", list(EQUALITY.values()), ids=list(EQUALITY))
def test_equality_gives_a_bool(build):
    x = build()
    assert isinstance(x == copy.deepcopy(x), bool)
    assert x == x
