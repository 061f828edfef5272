"""Pseudo-projections are formed in one place: `pseudoprojection`'s kernels.

Every pseudo-probability is the expectation of a Hermitized ordered product
of projectors.  `pseudoprojection._herm`, `_ordering_sum` and `_nested` form
those operators; the public builders wrap them, and the rest of the library
calls the kernels on matrices it has already checked, not the builders.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import pplab
from pplab import bloch_state, pp_weak_factorization, qubit_projector

BUILDERS = ("unit_pp", "symmetrized_pp", "convex_pp")
# (1/2)(M + M.conj()...) and (1/2)(A @ B + B @ A), written out by hand.
HAND_WRITTEN = (
    re.compile(r"0\.5\s*\*\s*\(\s*([\w.\[\]]+)\s*\+\s*\1\.conj\(\)"),
    re.compile(r"0\.5\s*\*\s*\(\s*([\w.\[\]]+)\s*@\s*([\w.\[\]]+)\s*\+\s*\2\s*@\s*\1\s*\)"),
)


def test_pp_weak_factorization_calls_no_public_builder(monkeypatch):
    state = bloch_state([0.3, -0.2, 0.5])
    factors = [qubit_projector([0, 0, 1]), qubit_projector([1, 0, 0]), qubit_projector([0, 1, 0], -1)]
    expected = pp_weak_factorization(state, factors)

    def refuse(*args, **kwargs):
        raise AssertionError("a public pseudo-projection builder was called")

    for name, module in list(sys.modules.items()):
        if name == "pplab" or name.startswith("pplab."):
            for builder in BUILDERS:
                if hasattr(module, builder):
                    monkeypatch.setattr(module, builder, refuse)
    assert pp_weak_factorization(state, factors) == expected
    assert expected["pseudo_probability"] == pytest.approx(
        float(np.real(np.trace(state.matrix @ expected_unit(factors)))), abs=1e-15
    )


def expected_unit(factors) -> np.ndarray:
    prod = factors[0].matrix @ factors[1].matrix @ factors[2].matrix
    return 0.5 * prod + 0.5 * prod.conj().T


def _exempt_lines(path: Path, text: str) -> set[int]:
    """Lines of weak.hj_decompose, whose halve-first split keeps a huge product finite."""
    if path.name != "weak.py":
        return set()
    node = next(n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef) and n.name == "hj_decompose")
    return set(range(node.lineno, node.end_lineno + 1))


def test_only_pseudoprojection_hermitizes_or_symmetrizes_products():
    assert HAND_WRITTEN[0].search("w = np.linalg.eigvalsh(0.5 * (op + op.conj().T))")
    assert HAND_WRITTEN[1].search("m = a + b - 0.5 * (a @ b + b @ a)")
    offenders = []
    for path in sorted(Path(pplab.__file__).parent.glob("*.py")):
        if path.name == "pseudoprojection.py":
            continue
        text = path.read_text()
        exempt = _exempt_lines(path, text)
        for i, line in enumerate(text.splitlines(), 1):
            if i not in exempt and any(p.search(line) for p in HAND_WRITTEN):
                offenders.append(f"{path.name}:{i}: {line.strip()}")
    assert offenders == []
