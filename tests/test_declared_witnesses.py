"""The two-qubit tests are declarations read by one evaluator.

Each entanglement variant and discord is a `witnesses._Witness`: entry blocks,
summed blocks, product pairings and a per-axis Pauli closed form over blocks of
compiled frame terms.  A geometry's doublets may sit at any azimuth about their
frame axes; an observable keeps its own copy of its axis; and tolerances come
from `operator_core` alone.  Malformed geometries are refused in
`test_boundary.py`.
"""
from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pplab
from pplab import (
    Doublet,
    EntanglementGeometry,
    ObservableSpec,
    build_scheme,
    discord_test,
    linear_ent_test,
    make_entanglement_geometry,
    nonlinear_ent_test,
    scheme_to_json,
)
from pplab import witnesses
from pplab.cli import parse_and_dispatch
from support import ginibre_density

VARIANTS = [
    (linear_ent_test, "I"),
    (linear_ent_test, "II"),
    (nonlinear_ent_test, "I"),
    (nonlinear_ent_test, "II"),
    (nonlinear_ent_test, "III"),
]


def test_every_two_qubit_report_kind_has_one_declaration():
    assert set(witnesses._WITNESSES) == {*witnesses._APERTURE_WINDOWS, "discord"}
    for name, w in witnesses._WITNESSES.items():
        assert set(witnesses._blocks(w)) <= set(witnesses._BLOCKS), name
        for (x, o), (y, p), k in w.products:
            assert {x, y} <= set(witnesses._BLOCKS) and {o, p} <= {0, 1} and k > 0, name


def test_discord_products_are_nonlinear_iii_pairings_at_full_weight():
    iii, discord = witnesses._WITNESSES["nonlinear-entanglement-III"], witnesses._WITNESSES["discord"]
    assert discord.products == tuple((x, y, 1.0) for x, y, k in iii.products if (x[0], y[0]) == ("a", "b-pairs"))
    assert witnesses._blocks(discord) == ("equality", "b-pairs", "a")


def test_discord_compiles_only_its_twelve_rows_per_call(monkeypatch):
    rows = []
    compile_terms = witnesses._compile_terms

    def counting(specs):
        rows.append(len(specs))
        return compile_terms(specs)

    monkeypatch.setattr(witnesses, "_compile_terms", counting)
    state = ginibre_density(np.random.default_rng(8), 4)
    discord_test(state, 1.0)
    discord_test(state, 2.0)
    assert rows == [12, 12]


# ---------------------------------------------------------------------------
# geometries built directly
# ---------------------------------------------------------------------------

def _rotated(d: Doublet, phi: float) -> Doublet:
    """`d` turned by `phi` about its own axis: the same aperture and bisector, another azimuth."""
    half = d.alpha / 2.0
    u = (d.n1 - d.n2) / (2.0 * math.sin(half))
    w = math.cos(phi) * u + math.sin(phi) * np.cross(d.axis, u)
    return Doublet(math.cos(half) * d.axis + math.sin(half) * w, math.cos(half) * d.axis - math.sin(half) * w, d.axis, d.alpha)


@pytest.mark.parametrize("alpha", [0.7, 1.3, 2.5])
def test_doublets_at_any_azimuth_are_accepted_and_keep_the_closed_forms(alpha):
    rng = np.random.default_rng(int(alpha * 100))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    g = make_entanglement_geometry(alpha, q)
    rotated = EntanglementGeometry(
        alpha, g.a_axes, g.b_axes,
        [_rotated(d, 0.4 + k) for k, d in enumerate(g.a_doublets)],
        [_rotated(d, 2.0 - k) for k, d in enumerate(g.b_doublets)],
    )
    state = ginibre_density(rng, 4)
    for test, variant in VARIANTS:
        report = test(state, rotated, variant)
        assert abs(report.statistic - report.extras["pauli_closed_form"]) <= 1e-12
        assert abs(report.statistic - test(state, g, variant).statistic) <= 1e-12


# ---------------------------------------------------------------------------
# observable axes, tolerances, discord off the z branch
# ---------------------------------------------------------------------------

def test_observable_keeps_a_read_only_copy_of_its_axis():
    v = np.array([0.0, 0.0, 1.0])
    spec = ObservableSpec(0, axis=v, label="z")
    table = build_scheme(pplab.bloch_state([0.0, 0.0, 0.5]), [spec])
    before = json.dumps(scheme_to_json(table))
    v[:] = [1.0, 0.0, 0.0]
    assert spec.axis.tolist() == [0.0, 0.0, 1.0]
    assert json.dumps(scheme_to_json(table)) == before
    assert not spec.axis.flags.writeable


_TOLERANCE_LITERALS = {1e-10, 1e-12}
# The overlap floor has its home in weak.py, and the slope fit's division guard is not a tolerance.
_ALLOWED = {("weak.py", "OVERLAP_FLOOR = 1e-12"), ("pointer.py", "max(abs(pp), 1e-12)")}


def test_tolerances_are_read_from_operator_core():
    src = Path(pplab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "operator_core.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and node.value in _TOLERANCE_LITERALS:
                line = lines[node.lineno - 1]
                if not any(path.name == name and snippet in line for name, snippet in _ALLOWED):
                    found.append(f"{path.name}:{node.lineno}: {line.strip()}")
    assert found == []


def test_discord_from_a_state_file_takes_the_marginal_direction(capsys, tmp_path):
    # |+><+| x 1/2: the a marginal points along x, so no branch falls back to z.
    rho = np.kron(np.full((2, 2), 0.5), np.eye(2) / 2)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    assert parse_and_dispatch(["test", "discord", "--state", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["branch_axes"][0] == [1.0, 0.0, 0.0]
    assert report["extras"]["degenerate_marginal"] is False and report["warnings"] == []
    assert report == discord_test(pplab.DensityMatrix(rho), 3 * math.pi / 4).to_json_dict()

