"""Checks and weak terms evaluated over (k, d, d) stacks.

A stacked check must reject a stack exactly as the single-matrix check
rejects its one bad matrix, and the stacked weak terms of a witness must
equal what the public single-term route computes for each of them.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from pplab import (
    DensityMatrix,
    InvalidInputError,
    ObservableSpec,
    Projector,
    chsh_test,
    discord_test,
    make_doublet,
    qubit_projector,
    real_weak_product,
)
from pplab.geometry import _sigmas
from pplab.operator_core import _check_density, _check_projector, _outcome_projectors
from support import ginibre_density, random_unit_vector

GOOD_PROJECTOR = np.diag([1.0, 0.0]).astype(complex)
GOOD_STATE = np.diag([0.25, 0.75]).astype(complex)

# One matrix per invariant, each failing that invariant and passing the ones
# checked before it.
BAD = {
    "projector/Hermitian": (Projector, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)),
    "projector/idempotent": (Projector, np.diag([1.0, 0.5]).astype(complex)),
    "projector/rank": (Projector, np.zeros((2, 2), dtype=complex)),
    "projector/trace=rank": (Projector, np.diag([1.0 + 1e-7, 0.0]).astype(complex)),
    "density/Hermitian": (DensityMatrix, np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)),
    "density/trace=1": (DensityMatrix, np.diag([0.5, 0.6]).astype(complex)),
    "density/PSD": (DensityMatrix, np.diag([1.5, -0.5]).astype(complex)),
}


@pytest.mark.parametrize("cls, bad", list(BAD.values()), ids=list(BAD))
def test_a_stack_with_one_bad_matrix_fails_like_that_matrix(cls, bad):
    with pytest.raises(InvalidInputError) as single:
        cls(bad)
    good = GOOD_PROJECTOR if cls is Projector else GOOD_STATE
    check = _check_projector if cls is Projector else _check_density
    with pytest.raises(InvalidInputError) as stacked:
        check(np.stack([good, bad, good]))
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


def test_stacked_checks_pass_good_stacks():
    rng = np.random.default_rng(211)
    stack = np.stack([GOOD_PROJECTOR, np.eye(2, dtype=complex), qubit_projector(random_unit_vector(rng)).matrix])
    ranks = _check_projector(stack)
    assert ranks.tolist() == [1, 2, 1]
    assert _check_projector(GOOD_PROJECTOR) == 1 and isinstance(_check_projector(GOOD_PROJECTOR), int)
    states = np.stack([ginibre_density(rng, 4).matrix for _ in range(3)])
    assert _check_density(states) is states
    assert _check_density(states[:0]).shape == (0, 4, 4)


def test_qubit_projector_stack_equals_the_single_builds():
    rng = np.random.default_rng(223)
    axes = [random_unit_vector(rng) for _ in range(5)]
    stack = _outcome_projectors(_sigmas(axes))
    assert stack.shape == (5, 2, 2, 2)
    for i, axis in enumerate(axes):
        for o, outcome in enumerate((+1, -1)):
            assert np.array_equal(stack[i, o], qubit_projector(axis, outcome).matrix)


def _independent_term(rho, lead, rank, rest):
    """Born factor by np.trace, weak value by the public real_weak_product."""
    born = float(np.real(np.trace(lead @ rho.matrix)))
    return born, real_weak_product([rest], rho, DensityMatrix(lead / rank))


def _check_term(term, born, weak):
    assert term.born_factor == pytest.approx(born, abs=1e-12)
    assert term.weak_value == pytest.approx(weak, abs=1e-12)
    assert term.pseudo_probability == pytest.approx(born * weak, abs=1e-12)


EYE = np.eye(2, dtype=complex)
SIGN = {"+": +1, "-": -1}


def test_chsh_and_discord_terms_match_an_independent_route():
    rng = np.random.default_rng(227)
    for _ in range(10):
        rho = ginibre_density(rng, 4)
        specs = [ObservableSpec(sub, axis=random_unit_vector(rng), label=name)
                 for sub, name in ((0, "A1"), (0, "A2"), (1, "B1"), (1, "B2"))]
        proj = {o.label: {s: o.projector(s).matrix for s in (+1, -1)} for o in specs}
        report = chsh_test(rho, *specs)
        assert len(report.weak_terms) == 4
        for term in report.weak_terms:
            a, sa, sb1, sb2 = re.fullmatch(r"(A[12])([+-])B1([+-]) \| B2([+-])", term.label).groups()
            lead = np.kron(proj[a][SIGN[sa]], proj["B1"][SIGN[sb1]])
            _check_term(term, *_independent_term(rho, lead, 1, np.kron(EYE, proj["B2"][SIGN[sb2]])))

        alpha = float(rng.uniform(0.3, math.pi - 0.3))
        report = discord_test(rho, alpha)
        assert len(report.weak_terms) == 8
        for group, axis in enumerate(report.inputs["branch_axes"], start=1):
            doublet = make_doublet(axis, alpha)
            pa, pb1, pb2 = ({s: qubit_projector(n, s).matrix for s in (+1, -1)} for n in (axis, doublet.n1, doublet.n2))
            terms = [t for t in report.weak_terms if t.group == group]
            for term in terms[:2]:
                sa, s2, s1 = re.fullmatch(rf"\[{group}\]a([+-])b2([+-]) \| b1([+-])", term.label).groups()
                lead = np.kron(pa[SIGN[sa]], pb2[SIGN[s2]])
                _check_term(term, *_independent_term(rho, lead, 1, np.kron(EYE, pb1[SIGN[s1]])))
            for term in terms[2:]:
                sa, s = re.fullmatch(rf"\(\[{group}\]a([+-])\)\*\(\[{group}\]b1([+-])b2\2\)", term.label).groups()
                a_born = float(np.real(np.trace(np.kron(pa[SIGN[sa]], EYE) @ rho.matrix)))
                born, weak = _independent_term(rho, np.kron(EYE, pb1[SIGN[s]]), 2, np.kron(EYE, pb2[SIGN[s]]))
                _check_term(term, a_born * born, weak)
