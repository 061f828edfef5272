"""Operators are checked once, where they enter the library.

A matrix observable is judged in `ObservableSpec`, which checks its outcome
projectors (I +- A)/2; a state or projector in the `DensityMatrix` or
`Projector` constructor.  Kernels that only read checked inputs, such as
`build_scheme` and the compiled Born x weak terms, do not check them again;
`build_scheme` only refuses A = +-I, by its trace.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from pplab import (
    InvalidInputError,
    ObservableSpec,
    Projector,
    Scheme,
    bloch_state,
    boolean_state_dep_test,
    boolean_state_indep_test,
    build_scheme,
    chsh_test,
    coherence_test,
    discord_test,
    distributivity_test,
    linear_ent_test,
    make_entanglement_geometry,
    nonlinear_ent_test,
    pp_weak_factorization,
    qubit_projector,
    weak_value,
    werner_state,
)
from pplab import operator_core, scheme
from pplab.geometry import PAULI_X, PAULI_Z

CHECKS = ("_check_projector", "_check_density")
# CHSH partners of a matrix observable A1: A2 on qubit 0, B1 and B2 on qubit 1.
A2 = ObservableSpec(0, axis=[1.0, 0.0, 0.0])
B1, B2 = ObservableSpec(1, axis=[0.0, 0.0, 1.0]), ObservableSpec(1, axis=[1.0, 0.0, 0.0])


def _count_checks(monkeypatch) -> list[str]:
    """Names of the checks called from now on, from any pplab module that imported them by name."""
    calls: list[str] = []
    for check in CHECKS:
        original = getattr(operator_core, check)

        def counting(m, original=original, check=check):
            calls.append(check)
            return original(m)

        for name, module in list(sys.modules.items()):
            if (name == "pplab" or name.startswith("pplab.")) and getattr(module, check, None) is original:
                monkeypatch.setattr(module, check, counting)
    return calls


def test_kernels_do_not_recheck_checked_inputs(monkeypatch):
    calls = _count_checks(monkeypatch)
    state, qubit = werner_state(0.8), bloch_state([0.1, 0.2, 0.3])
    A1 = ObservableSpec(0, matrix=(PAULI_Z + PAULI_X) / math.sqrt(2.0))
    geom = make_entanglement_geometry(1.2)
    # The inputs are checked as they are built: one state each, and the matrix
    # observable's outcome projectors as one stack; axis observables need none.
    assert calls == ["_check_density", "_check_density", "_check_projector"]
    calls.clear()

    build_scheme(state, [A1, A2, B1, B2], "symmetrized")
    coherence_test(qubit, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    chsh_test(state, A1, A2, B1, B2)
    for variant in ("I", "II"):
        linear_ent_test(state, geom, variant)
    for variant in ("I", "II", "III"):
        nonlinear_ent_test(state, geom, variant)
    discord_test(state, 1.2)
    assert calls == []


def _reflection_4x4() -> np.ndarray:
    psi = np.ones(4) / 2.0
    return math.sqrt(1.0 + 1e-9) * (np.eye(4) - 2.0 * np.outer(psi, psi))


_A = math.sqrt((1.0 + 8e-6) / 2.0)


@pytest.mark.parametrize("matrix, message", [
    (np.array([[_A, _A], [_A, -_A]]), "idempotent"),
    (_reflection_4x4(), "trace = rank"),
    (np.diag([-1.0 + 2e-11j, 1.0]), "Hermitian"),
])
def test_observable_spec_checks_the_outcome_projectors_of_a_matrix(matrix, message):
    """Each matrix squares to I within the dichotomic tolerance, but one of its
    outcome projectors fails a projector invariant."""
    with pytest.raises(InvalidInputError, match=f"projector invariant violated: {message}"):
        ObservableSpec(0, matrix=matrix)


def test_chsh_test_takes_an_observable_whose_projectors_passed_the_spec():
    A1 = ObservableSpec(0, matrix=np.diag([1.0 + 1e-11, -1.0]))
    report = chsh_test(werner_state(0.9), A1, A2, B1, B2)
    assert abs(report.statistic - report.extras["pauli_closed_form"]) <= 1e-12


def test_pp_weak_factorization_refuses_a_lead_that_is_not_a_state_once_normalized():
    lead = Projector(np.diag([1.0 + 5e-11, 0.0]))
    rho = bloch_state([0.1, 0.2, 0.3])
    with pytest.raises(InvalidInputError, match="density matrix invariant violated: trace = 1"):
        pp_weak_factorization(rho, [lead, qubit_projector([1.0, 0.0, 0.0])])
    with pytest.raises(InvalidInputError, match="density matrix invariant violated: trace = 1"):
        weak_value(PAULI_Z, rho, lead)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_plus_minus_identity_is_refused_where_it_is_used(sign):
    rank = "projector invariant violated: rank >= 1"
    with pytest.raises(InvalidInputError, match=rank):
        build_scheme(bloch_state([0.1, 0.2, 0.3]), [ObservableSpec(0, matrix=sign * np.eye(2))], "unit")
    with pytest.raises(InvalidInputError, match=rank):
        build_scheme(werner_state(0.5), [ObservableSpec(0, matrix=sign * np.eye(4))], "unit")
    with pytest.raises(InvalidInputError, match=rank):
        chsh_test(werner_state(0.9), ObservableSpec(0, matrix=sign * np.eye(2)), A2, B1, B2)


def test_a_matrix_within_tolerance_of_the_identity_is_refused_by_its_trace():
    near = ObservableSpec(0, matrix=np.diag([1.0, 1.0 - 1e-6]))
    with pytest.raises(InvalidInputError, match="projector invariant violated: rank >= 1"):
        build_scheme(bloch_state([0.1, 0.2, 0.3]), [near], "unit")


def _count_builds(monkeypatch) -> list[str]:
    """Names of the checked classes constructed, and one "build_scheme" per call of it, from now on."""
    built: list[str] = []
    for cls in (Projector, ObservableSpec, Scheme):
        def counting(self, original=cls.__post_init__, name=cls.__name__):
            built.append(name)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def counting_build(*args, original=scheme.build_scheme, **kwargs):
        built.append("build_scheme")
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "pplab" or name.startswith("pplab.")) and getattr(module, "build_scheme", None) is build_scheme:
            monkeypatch.setattr(module, "build_scheme", counting_build)
    return built


def test_single_qubit_witnesses_and_chsh_build_nothing_that_checks_again(monkeypatch):
    """The five witnesses read their checked inputs through the kernels: no check runs
    again, and no Projector, ObservableSpec or Scheme is built on the way."""
    state, qubit = werner_state(0.8), bloch_state([0.1, 0.2, 0.3])
    A1 = ObservableSpec(0, matrix=(PAULI_Z + PAULI_X) / math.sqrt(2.0))
    z, x, y = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    calls, built = _count_checks(monkeypatch), _count_builds(monkeypatch)

    coherence_test(qubit, z, x)
    boolean_state_dep_test(qubit, z, x)
    boolean_state_indep_test(z, x)
    distributivity_test(qubit, z, x, y)
    chsh_test(state, A1, A2, B1, B2)
    assert calls == []
    assert built == []
    # The counters see what they count.
    scheme.build_scheme(qubit, [ObservableSpec(0, axis=z)], "unit")
    assert built == ["ObservableSpec", "build_scheme", "Scheme"]
