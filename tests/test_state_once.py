"""A state is a value: it keeps a read-only copy of its matrix and evaluates each compiled term stack once.

`DensityMatrix` copies the matrix it is given and makes the copy read-only, so
what the witnesses derive from a state (its Pauli table, its report digest and
its evaluation of the last compiled term stack it met) can be kept on it.  These
tests hold the reports of a state to those of a fresh one, count the
contractions of a geometry's stack, and check that no report hands out a
mutable part of the cache.
"""
from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from pplab import (
    DensityMatrix, ObservableSpec, bloch_state, chsh_test, coherence_test, discord_test, distributivity_test,
    linear_ent_test, make_entanglement_geometry, nonlinear_ent_test, werner_state,
)
from pplab import witnesses
from support import ginibre_density, random_unit_vector

VARIANTS = [
    (linear_ent_test, "I"), (linear_ent_test, "II"),
    (nonlinear_ent_test, "I"), (nonlinear_ent_test, "II"), (nonlinear_ent_test, "III"),
]


def _frame(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def _two_qubit_reports(state: DensityMatrix, geom, chsh: list[ObservableSpec]) -> list[dict]:
    reports = [test(state, geom, variant) for test, variant in VARIANTS]
    reports += [chsh_test(state, *chsh), discord_test(state, geom.alpha)]
    return [r.to_json_dict() for r in reports]


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_mutating_the_callers_array_changes_no_report_and_the_matrix_is_read_only():
    rng = np.random.default_rng(3101)
    geom = make_entanglement_geometry(1.3, _frame(rng), _frame(rng))
    chsh = [ObservableSpec(sub, axis=random_unit_vector(rng)) for sub in (0, 0, 1, 1)]
    rho = ginibre_density(rng, 4).matrix
    expected = _two_qubit_reports(DensityMatrix(rho.copy()), geom, chsh)

    early, late = rho.copy(), rho.copy()
    read_first = DensityMatrix(late)
    assert _two_qubit_reports(read_first, geom, chsh) == expected
    mutated = DensityMatrix(early)
    for a in (early, late):
        a[:] = np.eye(4) / 4
    # A state made before the change, read after it, and a state read before and after it.
    assert _two_qubit_reports(mutated, geom, chsh) == expected
    assert _two_qubit_reports(read_first, geom, chsh) == expected

    qubit = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    state = DensityMatrix(qubit)
    before = coherence_test(state, [0, 0, 1], [1, 0, 0]).to_json_dict()
    qubit[0, 1] = 0.0
    assert coherence_test(state, [0, 0, 1], [1, 0, 0]).to_json_dict() == before

    for s in (mutated, state):
        assert not s.matrix.flags.writeable
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 0


def test_the_five_variants_on_one_state_and_geometry_contract_its_stack_once(monkeypatch):
    rng = np.random.default_rng(3102)
    geom = make_entanglement_geometry(1.7, _frame(rng), _frame(rng))
    states = [ginibre_density(rng, 4), werner_state(0.8)]
    for test, variant in VARIANTS:  # compiles the geometry's stack before counting
        test(DensityMatrix(np.eye(4) / 4), geom, variant)
    contractions = _count(monkeypatch, witnesses, "_born_weak")
    for k, state in enumerate(states, start=1):
        for test, variant in VARIANTS:
            test(state, geom, variant)
        assert len(contractions) == k
        assert contractions[-1][0] is geom._terms


def test_editing_a_reports_state_digest_leaves_the_next_report_unchanged():
    rng = np.random.default_rng(3103)
    qubit = bloch_state([0.3, -0.2, 0.5])
    first = coherence_test(qubit, [0, 0, 1], [1, 0, 0])
    expected = copy.deepcopy(first.to_json_dict())  # the report's own dicts are edited below
    first.inputs["state"]["bloch"][0] = 9.0  # type: ignore[index]
    first.inputs["state"]["purity"] = -1.0  # type: ignore[index]
    assert coherence_test(qubit, [0, 0, 1], [1, 0, 0]).to_json_dict() == expected
    assert distributivity_test(qubit, [0, 0, 1], [1, 0, 0], [0, 1, 0]).inputs["state"] == expected["inputs"]["state"]

    state = ginibre_density(rng, 4)
    geom = make_entanglement_geometry(1.1)
    digest = linear_ent_test(state, geom, "I").inputs["state"]
    expected_digest = copy.deepcopy(digest)
    digest["dim"] = 0  # type: ignore[index]
    digest["extra"] = True  # type: ignore[index]
    for report in (nonlinear_ent_test(state, geom, "III"), discord_test(state, 1.1), linear_ent_test(state, geom, "I")):
        assert report.inputs["state"] == expected_digest


def test_one_state_on_two_geometries_in_turn_gives_the_reports_of_a_fresh_state():
    rng = np.random.default_rng(3104)
    state = ginibre_density(rng, 4)
    # Two stacks of the same size: only the identity of the stack tells the state's evaluations apart.
    geoms = [make_entanglement_geometry(alpha, _frame(rng), _frame(rng)) for alpha in (0.9, 2.1)]
    for _ in range(2):
        for test, variant in VARIANTS:
            for geom in geoms:
                fresh = test(DensityMatrix(state.matrix), geom, variant).to_json_dict()
                assert test(state, geom, variant).to_json_dict() == fresh


def test_a_copied_or_unpickled_state_is_read_only_and_starts_with_an_empty_cache():
    state = werner_state(0.7)
    geom = make_entanglement_geometry(1.2)
    expected = linear_ent_test(state, geom, "II").to_json_dict()
    for twin in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
        assert not twin.matrix.flags.writeable and twin._derived == {}
        assert np.array_equal(twin.matrix, state.matrix)
        assert linear_ent_test(twin, geom, "II").to_json_dict() == expected
