from __future__ import annotations

import json
import math
import warnings

import pytest

from pplab import convex_pp, min_eigen_certificate, qubit_projector, symmetrized_pp, unit_pp
from pplab.cli import parse_and_dispatch
from pplab.errors import InvalidInputError, PPLabError


def _run(capsys, argv):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_chsh_werner_report(capsys):
    payload = _run_json(capsys, ["test", "chsh", "--werner", "1.0"])
    assert payload["name"] == "chsh"
    assert payload["statistic"] == pytest.approx(0.5 * (1 - math.sqrt(2)), abs=1e-12)
    assert payload["verdict"] is True
    assert len(payload["weak_terms"]) == 4


def test_missing_state_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["test", "chsh"])
    assert code == 1
    assert out == ""


def test_two_state_sources_rejected(capsys):
    code, _, err = _run(capsys, ["test", "chsh", "--werner", "1.0", "--bloch", "0,0,0"])
    assert code == 1


def test_state_file_with_bad_trace_names_the_invariant(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0.7, 0.0], [0.0, 0.7]]}))
    code, _, err = _run(capsys, ["test", "coherence", "--state", str(path)])
    assert code == 1
    assert "trace = 1" in err


@pytest.mark.parametrize("re", ["a", [["a", 0], [0, 1]], [[0.5, 0], [0]]])
def test_state_file_with_non_numeric_matrix_exits_one(capsys, tmp_path, re):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "re": re}))
    code, out, err = _run(capsys, ["test", "coherence", "--state", str(path)])
    assert code == 1
    assert out == ""
    assert "numeric" in err


def test_state_file_round_trip(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}))
    payload = _run_json(capsys, ["test", "coherence", "--state", str(path)])
    assert payload["statistic"] == pytest.approx(0.25, abs=1e-12)


def test_unknown_command_exits_one(capsys):
    code, _, _ = _run(capsys, ["frobnicate"])
    assert code == 1


def test_weak_value_anomalous_example(capsys):
    angle = 3 * math.pi / 8
    payload = _run_json(
        capsys,
        [
            "weak",
            "value",
            "--op-axis",
            "0,0,1",
            f"--pre-bloch={-math.sin(2 * angle)},0,{math.cos(2 * angle)}",
            "--post-bloch",
            "1,0,0",
        ],
    )
    assert payload["value_re"] == pytest.approx(-(1 + math.sqrt(2)), abs=1e-10)
    assert payload["anomalous"] is True


def test_weak_value_orthogonal_post_selection_exits_two(capsys):
    code, _, err = _run(
        capsys,
        [
            "weak",
            "value",
            "--op-axis",
            "0,0,1",
            "--pre-bloch",
            "0,0,1",
            "--post-bloch",
            "0,0,-1",
        ],
    )
    assert code == 2


def test_pointer_resource_limit_exits_two(capsys):
    code, _, _ = _run(
        capsys,
        [
            "pointer",
            "sim",
            "--bloch",
            "1,0,0",
            "--projectors",
            "z+;x+;z-;x+",
        ],
    )
    assert code == 2


def test_pointer_grid_and_doublet_azimuth_settings_are_removed(capsys):
    import dataclasses
    import inspect

    from pplab import PointerConfig, make_doublet

    assert [f.name for f in dataclasses.fields(PointerConfig)] == ["g", "t", "sigma"]
    assert list(inspect.signature(make_doublet).parameters) == ["axis", "alpha"]
    code, out, err = _run(capsys, ["pointer", "sim", "--bloch", "0,0,0", "--grid-points", "64"])
    assert code == 1 and out == ""
    assert "unrecognized arguments: --grid-points 64" in err


def test_pointer_sim_two_pointer_example(capsys):
    payload = _run_json(
        capsys,
        [
            "pointer",
            "sim",
            "--bloch",
            "0,0,0",
            "--projectors",
            "z+;x+",
            "--g",
            "0.05",
            "--t",
            "1.0",
        ],
    )
    assert payload["pseudo_probability"] == pytest.approx(0.25, abs=1e-12)
    assert payload["ratio"] == pytest.approx(0.25, rel=5e-2)


def test_alpha_scan_emits_array(capsys):
    code, out, _ = _run(
        capsys,
        ["test", "ent-linear-1", "--werner", "0.9", "--alpha-scan", "1.0:2.0:0.5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert len(payload) == 3
    assert [p["inputs"]["alpha"] for p in payload] == pytest.approx([1.0, 1.5, 2.0])


def test_alpha_and_alpha_scan_conflict(capsys):
    code, _, _ = _run(
        capsys,
        [
            "test",
            "ent-linear-1",
            "--werner",
            "0.9",
            "--alpha",
            "1.0",
            "--alpha-scan",
            "1.0:2.0:3",
        ],
    )
    assert code == 1


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["test", "chsh", "--werner", "1.0", "--out", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["statistic"] == pytest.approx(0.5 * (1 - math.sqrt(2)), abs=1e-12)


def test_json_indent_zero_is_single_line_friendly(capsys):
    code, out, _ = _run(
        capsys, ["test", "chsh", "--werner", "1.0", "--json-indent", "0"]
    )
    assert code == 0
    json.loads(out)


def test_tolerance_env_changes_verdict(capsys, monkeypatch):
    monkeypatch.setenv("PPLAB_TOL", "0.5")
    payload = _run_json(capsys, ["test", "chsh", "--werner", "1.0"])
    assert payload["verdict"] is False
    assert payload["threshold"] == pytest.approx(-0.5)


def test_garbage_tolerance_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("PPLAB_TOL", "not-a-number")
    code, _, _ = _run(capsys, ["test", "chsh", "--werner", "1.0"])
    assert code == 1


def test_game_run_values(capsys):
    payload = _run_json(
        capsys,
        [
            "game",
            "run",
            "--bloch",
            "1,0,0",
            "--t-max",
            str(math.pi / 2),
            "--t-steps",
            "65",
        ],
    )
    assert payload["best_score"] == pytest.approx(0.25 * (3 + math.sqrt(2)), abs=1e-10)
    assert payload["best_time"] == pytest.approx(math.pi / 4, abs=1e-9)


def test_boolean_indep_needs_no_state(capsys):
    payload = _run_json(capsys, ["test", "boolean-indep"])
    assert payload["statistic"] == pytest.approx(-1 / 24, abs=1e-12)


def test_scheme_build_two_qubit_default(capsys):
    payload = _run_json(capsys, ["scheme", "build", "--werner", "1.0"])
    total = sum(payload["entries"].values())
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pp_eig_reports_negative_witness(capsys):
    payload = _run_json(capsys, ["pp", "eig", "--axes", "z+;x+"])
    assert payload["min_eigenvalue"] == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-12)


def test_pp_eig_over_eight_factors_is_a_resource_error(capsys):
    argv = ["pp", "eig", "--axes", "z+;x+;y+;z-;x-;y-;z+;x+;y+", "--prescription", "symmetrized"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "9 factors" in err


def test_projector_axis_token_with_sign_equals_named_token(capsys):
    by_axis = _run_json(capsys, ["pp", "eig", "--axes", "0,0,1:-;x+"])
    by_name = _run_json(capsys, ["pp", "eig", "--axes", "z-;x+"])
    assert by_axis == by_name


def test_non_numeric_argument_exits_one(capsys):
    code, _, _ = _run(capsys, ["test", "ent-linear-1", "--werner", "0.5", "--alpha", "90deg"])
    assert code == 1


def test_unicode_minus_accepted(capsys):
    payload = _run_json(capsys, ["test", "coherence", "--bloch", "−0.8,0,0"])
    assert payload["inputs"]["state"]["bloch"][0] == pytest.approx(-0.8)


@pytest.mark.parametrize(
    "argv",
    [
        ["weak", "value", "--op-axis", "nan,0,0", "--pre-bloch", "0,0,1", "--post-bloch", "1,0,0"],
        ["pp", "eig", "--axes", "nan,0,0;z+"],
        ["test", "coherence", "--bloch", "nan,0,0"],
        ["game", "run", "--bloch", "nan,0,0"],
    ],
)
def test_non_finite_input_is_named_at_the_boundary(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "not finite" in err
    assert "Hermitian" not in err


def test_alpha_scan_over_cap_is_a_resource_error(capsys):
    from pplab.cli import MAX_ALPHA_POINTS

    # ten times the cap, at a step far too fine to run
    scan = f"0.1:3.0:{2.9 / (10 * MAX_ALPHA_POINTS)}"
    code, out, err = _run(capsys, ["test", "discord", "--werner", "1.0", "--alpha-scan", scan])
    assert code == 2
    assert out == ""
    assert str(MAX_ALPHA_POINTS) in err


def test_game_steps_over_cap_is_a_resource_error(capsys):
    from pplab.cli import MAX_T_STEPS

    argv = ["game", "run", "--bloch", "1,0,0", "--t-steps", str(MAX_T_STEPS + 1)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert str(MAX_T_STEPS) in err


def test_consecutive_calls_share_the_parser_but_no_values(capsys, tmp_path):
    from pplab.cli import _build_parser

    assert _build_parser() is _build_parser()
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["test", "chsh", "--werner", "1.0", "--out", str(target), "--json-indent", "0"])
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 1
    # --out and --json-indent left unset: stdout, indented by the default 2
    code, out, _ = _run(capsys, ["test", "chsh", "--werner", "1.0"])
    assert code == 0
    assert out.startswith('{\n  "')
    scan = _run_json(capsys, ["test", "ent-linear-1", "--werner", "0.9", "--alpha-scan", "1.0:2.0:0.5"])
    assert isinstance(scan, list)
    single = _run_json(capsys, ["test", "ent-linear-1", "--werner", "0.9"])
    assert isinstance(single, dict)
    fitted = _run_json(capsys, ["pointer", "sim", "--bloch", "0,0,0", "--couplings", "0.02,0.04,0.06"])
    assert "proportionality" in fitted
    plain = _run_json(capsys, ["pointer", "sim", "--bloch", "0,0,0"])
    assert "proportionality" not in plain
    code, out, err = _run(capsys, ["test", "chsh", "--werner", "1.0", "--no-such-flag"])
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err
    code, out, _ = _run(capsys, ["pp", "eig", "--axes", "z+;x+"])
    assert code == 0 and json.loads(out)


def test_rank_two_born_floor_state_exits_zero(capsys, tmp_path):
    import numpy as np

    from pplab import bloch_state, make_entanglement_geometry

    n1 = make_entanglement_geometry(math.pi / 2).a_doublets[0].n1
    rho = np.kron(bloch_state(-n1 * (1 - 3e-12)).matrix, np.eye(2) / 2)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()}))
    payload = _run_json(capsys, ["test", "ent-nl-3", "--state", str(path), "--alpha", str(math.pi / 2)])
    assert any(t["weak_value"] is None for t in payload["weak_terms"])


@pytest.mark.parametrize(
    "test, alpha",
    [
        ("ent-linear-1", 2.0 * math.pi / 3.0),
        ("ent-linear-2", math.acos(-7.0 / 9.0)),
        ("ent-nl-1", math.pi / 2.0),
        ("ent-nl-2", math.acos(-1.0 / 3.0)),
        ("ent-nl-3", math.acos(-79.0 / 81.0)),
        ("discord", 3.0 * math.pi / 4.0),
    ],
)
def test_aperture_defaults(capsys, test, alpha):
    payload = _run_json(capsys, ["test", test, "--werner", "0.5"])
    assert payload["inputs"]["alpha"] == alpha
    if test != "discord":
        assert payload["alpha_valid_range"] == [0.0, alpha]
        assert payload["warnings"] == []


def test_axis_defaults(capsys):
    chsh = _run_json(capsys, ["test", "chsh", "--werner", "1.0"])
    assert [chsh["inputs"][k] for k in ("A1", "A2", "B1", "B2")] == ["A1", "A2", "B1", "B2"]
    assert chsh["extras"]["chsh_value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    for test in ("coherence", "boolean-dep", "distributivity"):
        payload = _run_json(capsys, ["test", test, "--bloch", "0,0,0"])
        assert payload["inputs"]["a1"] == [0.0, 0.0, 1.0]
        assert payload["inputs"]["a2"] == [1.0, 0.0, 0.0]
    assert payload["inputs"]["a3"] == [1.0, 0.0, 0.0]
    indep = _run_json(capsys, ["test", "boolean-indep"])
    assert indep["inputs"] == {"a1": [0.0, 0.0, 1.0], "a2": [1.0, 0.0, 0.0]}


def test_nan_convex_weights_exit_one(capsys):
    argv = ["scheme", "build", "--bloch", "0,0,0.5", "--observables", "0:z;0:x;0:y",
            "--prescription", "convex", "--weights", "nan,0.5,0.5"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "weights are not finite" in err


def test_convex_weights_whose_sum_overflows_exit_one_with_one_error_line(capsys):
    # Outside the tests an overflow warning would print on stderr before the error; here it would raise.
    argv = ["pp", "eig", "--axes", "z+;x+;z-", "--prescription", "convex", "--weights", "1e308,1e308,0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: weights must be non-negative and sum to 1\n"


# Every flag whose value is converted; the base command is valid without it.
_FLAG_COMMANDS = {
    "werner": ["test", "chsh"],
    "bloch": ["test", "coherence"],
    "alpha": ["test", "ent-linear-1", "--werner", "0.5"],
    "alpha-scan": ["test", "discord", "--werner", "0.5"],
    "a1": ["test", "coherence", "--bloch", "0,0,0"],
    "a2": ["test", "boolean-dep", "--bloch", "0,0,0"],
    "a3": ["test", "distributivity", "--bloch", "0,0,0"],
    "A1": ["test", "chsh", "--werner", "1.0"],
    "A2": ["test", "chsh", "--werner", "1.0"],
    "B1": ["test", "chsh", "--werner", "1.0"],
    "B2": ["test", "chsh", "--werner", "1.0"],
    "observables": ["scheme", "build", "--bloch", "0,0,0"],
    "weights": ["scheme", "build", "--bloch", "0,0,0", "--prescription", "convex"],
    "axes": ["pp", "eig"],
    "op-axis": ["weak", "value", "--pre-bloch", "1,0,0", "--post-bloch", "1,0,0"],
    "pre-bloch": ["weak", "value", "--op-axis", "0,0,1", "--post-bloch", "1,0,0"],
    "post-bloch": ["pointer", "sim", "--bloch", "0,0,0"],
    "projectors": ["pointer", "sim", "--bloch", "0,0,0"],
    "g": ["pointer", "sim", "--bloch", "0,0,0"],
    "t": ["pointer", "sim", "--bloch", "0,0,0"],
    "sigma": ["pointer", "sim", "--bloch", "0,0,0"],
    "couplings": ["pointer", "sim", "--bloch", "0,0,0"],
    "axis": ["game", "run", "--bloch", "1,0,0"],
    "omega": ["game", "run", "--bloch", "1,0,0"],
    "t-max": ["game", "run", "--bloch", "1,0,0"],
    "t-steps": ["game", "run", "--bloch", "1,0,0"],
    "theta": ["game", "run", "--bloch", "1,0,0"],
    "json-indent": ["pp", "eig", "--axes", "z+;x+"],
}


@pytest.mark.parametrize("flag", list(_FLAG_COMMANDS))
def test_non_numeric_flag_is_named_by_argparse(capsys, flag):
    code, out, err = _run(capsys, [*_FLAG_COMMANDS[flag], f"--{flag}", "abc"])
    assert code == 1
    assert out == ""
    assert f"argument --{flag}: " in err
    assert "Traceback" not in err


def test_game_bloch_is_named_by_argparse(capsys):
    code, out, err = _run(capsys, ["game", "run", "--bloch", "abc"])
    assert code == 1 and out == ""
    assert "argument --bloch: " in err


def test_nan_weight_on_a_single_observable_exits_one(capsys):
    argv = ["scheme", "build", "--bloch", "0,0,0.5", "--observables", "0:z",
            "--prescription", "convex", "--weights", "nan"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "weights are not finite" in err


@pytest.mark.parametrize(
    "prescription, factory, weights",
    [
        ("unit", unit_pp, None),
        ("symmetrized", symmetrized_pp, None),
        ("convex", lambda f: convex_pp(f, [0.5, 0.25, 0.25]), "0.5,0.25,0.25"),
    ],
    ids=["unit", "symmetrized", "convex"],
)
def test_pp_eig_under_each_prescription(capsys, prescription, factory, weights):
    argv = ["pp", "eig", "--axes", "z+;x+;z-", "--prescription", prescription]
    payload = _run_json(capsys, argv + (["--weights", weights] if weights else []))
    factors = [qubit_projector(a, s) for a, s in (([0, 0, 1], 1), ([1, 0, 0], 1), ([0, 0, 1], -1))]
    assert payload["prescription"] == prescription
    assert payload["min_eigenvalue"] == min_eigen_certificate(factory(factors))[0]
    if prescription != "convex":
        code, out, err = _run(capsys, argv + ["--weights", "0.5"])
        assert code == 1 and out == ""
        assert "weights are only meaningful for the convex prescription" in err


def _state_file(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return str(path)


# Each refusal: argv (given tmp_path), expected exit code, and the text the
# message must contain (the flag or the file).
_REFUSALS = {
    "state/unreadable": (lambda p: ["test", "coherence", "--state", str(p / "missing.json")], 1, "missing.json"),
    "state/not_json": (lambda p: ["test", "coherence", "--state", _state_file(p, "{")], 1, "state file"),
    "state/no_re": (lambda p: ["test", "coherence", "--state", _state_file(p, '{"dim": 2}')], 1, "state file"),
    "state/shape": (
        lambda p: ["test", "coherence", "--state", _state_file(p, '{"dim": 3, "re": [[1, 0], [0, 0]]}')],
        1,
        "state file",
    ),
    "alpha-scan/inf": (lambda p: ["test", "discord", "--werner", "1", "--alpha-scan", "0:inf:0.1"], 1, "--alpha-scan"),
    "alpha-scan/step": (lambda p: ["test", "discord", "--werner", "1", "--alpha-scan", "0:1:0"], 1, "--alpha-scan"),
    "alpha-scan/reversed": (lambda p: ["test", "discord", "--werner", "1", "--alpha-scan", "1:0:0.1"], 1, "--alpha-scan"),
    "t-steps/zero": (lambda p: ["game", "run", "--bloch", "1,0,0", "--t-steps", "0"], 1, "--t-steps"),
    "t-max/negative": (lambda p: ["game", "run", "--bloch", "1,0,0", "--t-max", "-1"], 1, "--t-max"),
    # np.linspace warned of an infinite end before the library refused the grid.
    "t-max/inf": (lambda p: ["game", "run", "--bloch", "1,0,0", "--t-max", "inf"], 1, "--t-max"),
    "omega/overflow": (lambda p: ["game", "run", "--bloch", "1,0,0", "--omega", "1e308"], 1, "omega_L * t"),
    "bloch/two_numbers": (lambda p: ["test", "coherence", "--bloch", "1,0"], 1, "--bloch"),
    "projectors/sign": (lambda p: ["pointer", "sim", "--bloch", "0,0,0", "--projectors", "0,0,1:x"], 1, "--projectors"),
    "observables/subsystem": (lambda p: ["scheme", "build", "--bloch", "0,0,0", "--observables", "a:z"], 1, "--observables"),
    # An --out path that cannot be written: a missing directory, and a directory.
    "out/missing_dir": (lambda p: ["test", "coherence", "--bloch", "0,0,1", "--out", str(p / "missing" / "x.json")], 1, "missing/x.json"),
    "out/is_directory": (lambda p: ["test", "coherence", "--bloch", "0,0,1", "--out", str(p)], 1, "cannot write --out"),
    "help": (lambda p: ["--help"], 0, "usage: pplab"),
}


@pytest.mark.parametrize("argv, code, named", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_cli_refusal_exit_code_and_message(capsys, tmp_path, argv, code, named):
    got, out, err = _run(capsys, argv(tmp_path))
    assert got == code
    assert named in (out if code == 0 else err)
    assert "Traceback" not in out + err


def test_state_file_with_an_infinite_part_is_refused_without_a_numpy_warning(capsys, tmp_path):
    text = '{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, Infinity], [0, 0]]}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["test", "coherence", "--state", _state_file(tmp_path, text)])
    assert code == 1 and out == ""
    assert "not finite" in err


@pytest.mark.parametrize(
    "argv, ascii_argv",
    [
        (["pp", "eig", "--axes", "z−;x+"], ["pp", "eig", "--axes", "z-;x+"]),
        (
            ["pointer", "sim", "--bloch", "0.6,0,0", "--projectors", "0,0,1:−;x+", "--g", "0.05", "--t", "1.0"],
            ["pointer", "sim", "--bloch", "0.6,0,0", "--projectors", "0,0,1:-;x+", "--g", "0.05", "--t", "1.0"],
        ),
    ],
    ids=["axes", "projectors"],
)
def test_projector_tokens_accept_the_typographic_minus(capsys, argv, ascii_argv):
    assert _run_json(capsys, argv) == _run_json(capsys, ascii_argv)


def test_a_report_that_fails_its_self_check_exits_two(capsys, monkeypatch):
    monkeypatch.setattr("pplab.cli.statistic_from_terms", lambda terms, rule: 1e9)
    code, out, err = _run(capsys, ["test", "chsh", "--werner", "1.0"])
    assert code == 2 and out == ""
    assert err.startswith("error: report self-check failed")


@pytest.mark.parametrize("base, code", [(PPLabError, 2), (InvalidInputError, 1)])
def test_a_new_error_class_exits_as_its_base_without_a_traceback(capsys, monkeypatch, base, code):
    """Any error the CLI does not name exits 2, or 1 if it is an InvalidInputError."""

    class NewError(base):
        pass

    def refuse(factors):
        raise NewError("a failure of a new kind")

    monkeypatch.setattr("pplab.cli.unit_pp", refuse)
    assert _run(capsys, ["pp", "eig", "--axes", "z+;x+", "--prescription", "unit"]) == (
        code, "", "error: a failure of a new kind\n"
    )


def test_state_file_with_text_entries_exits_one(capsys, tmp_path):
    """numpy would parse the strings as numbers; the state file reader refuses them."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "re": [["0.5", "0"], ["0", "0.5"]]}))
    code, out, err = _run(capsys, ["test", "coherence", "--state", str(path)])
    assert code == 1
    assert out == ""
    assert f"state file {path}: re and im must be real numeric matrices" in err


def test_json_indent_over_cap_is_a_resource_error_before_the_command_runs(capsys, monkeypatch):
    from pplab.cli import MAX_JSON_INDENT

    def ran(factors):
        raise AssertionError("the command ran")

    monkeypatch.setattr("pplab.cli.unit_pp", ran)
    argv = ["pp", "eig", "--axes", "z+;x+", "--json-indent"]
    code, out, err = _run(capsys, argv + [str(MAX_JSON_INDENT + 1)])
    assert code == 2 and out == ""
    assert err == f"error: --json-indent {MAX_JSON_INDENT + 1} exceeds the cap of {MAX_JSON_INDENT}\n"
    monkeypatch.undo()
    code, out, _ = _run(capsys, argv + [str(MAX_JSON_INDENT)])
    assert code == 0
    assert out.startswith("{\n" + " " * MAX_JSON_INDENT + '"prescription"')
