from __future__ import annotations

import json
import math

import pytest

from pplab.cli import parse_and_dispatch


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
            "z+;x+;z-",
            "--grid-points",
            "128",
        ],
    )
    assert code == 2


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
