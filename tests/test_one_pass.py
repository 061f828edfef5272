"""A discord aperture scan and a pointer simulation with its fit each run in one pass.

`pplab test discord --alpha-scan` reads every aperture from one compile and one
contraction (`witnesses._discord_scan`), and `pplab pointer sim --couplings`
reads the simulation and the fit from one set-up and one series
(`pointer._simulate_and_fit`).  These tests hold both to the bytes of the
one-aperture and one-call routes, count the builds, pin which error wins when
several inputs are bad, and cover the cap on the coupling list.
"""
from __future__ import annotations

import dataclasses
import json
import math
import textwrap

import numpy as np
import pytest

from pplab import (
    DensityMatrix, PointerConfig, bloch_state, discord_test, proportionality_check, qubit_projector, simulate_pointers,
    statistic_from_terms, werner_state,
)
from pplab import pointer, witnesses
from pplab.cli import _alpha_grid, parse_and_dispatch
from pplab.errors import InvalidInputError, ResourceLimitError

from support import ginibre_density, random_bloch_vector, random_unit_vector

# |+><+| x 1/2, the state the CLI smoke test writes to plus_mixed.json: its a marginal is polarized.
PLUS_MIXED = [[0.25, 0, 0.25, 0], [0, 0.25, 0, 0.25]] * 2
# Apertures near 0 and near pi, and one grid inside.
SCANS = ("1e-06:0.30000100000000004:0.1", "1.0:2.0:0.25", "3.0:3.14159:0.0353975")


def _states() -> list[np.ndarray]:
    """Seeded two-qubit states, one with a maximally mixed a marginal (discord's degenerate
    z branch), the Werner singlet and plus_mixed."""
    rng = np.random.default_rng(2028)
    degenerate = np.kron(np.eye(2) / 2, bloch_state([0.2, -0.4, 0.5]).matrix)
    return [ginibre_density(rng, 4).matrix for _ in range(3)] + [
        degenerate, werner_state(1.0).matrix, np.array(PLUS_MIXED, dtype=complex),
    ]


def _run(capsys, argv):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.err


def _state_file(tmp_path, rho: np.ndarray):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()}))
    return path


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("k", range(len(_states())))
def test_each_report_of_a_discord_scan_has_the_bytes_of_its_one_aperture_command(capsys, tmp_path, k, scan):
    state = _state_file(tmp_path, _states()[k])
    out = tmp_path / "out.json"
    argv = ["test", "discord", f"--state={state}", "--out", str(out)]
    assert _run(capsys, argv + [f"--alpha-scan={scan}"]) == (0, "")
    scanned = out.read_text()
    alphas = _alpha_grid(scan)
    singles = []
    for alpha in alphas:
        assert _run(capsys, argv + [f"--alpha={alpha!r}"]) == (0, "")
        singles.append(out.read_text())
    assert len(singles) > 1
    # Each element of the scan's list is the one-aperture file, indented one level deeper.
    assert scanned == "[\n" + ",\n".join(textwrap.indent(text.rstrip("\n"), "  ") for text in singles) + "\n]\n"


def _mutable_ids(x: object) -> set[int]:
    """The ids of every dict, list and array reachable from x."""
    if isinstance(x, witnesses.TestReport):
        return set().union(*(_mutable_ids(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return {id(x)}.union(*map(_mutable_ids, x.values()))
    if isinstance(x, (list, tuple)):
        return ({id(x)} if isinstance(x, list) else set()).union(*map(_mutable_ids, x))
    return {id(x)} if isinstance(x, np.ndarray) else set()


def test_the_library_scan_gives_discord_test_at_each_aperture_and_shares_nothing_mutable():
    alphas = [1e-6, 0.4, 1.3, 2.2, 3.1, math.pi - 1e-9]
    for rho in _states():
        state = DensityMatrix(rho)
        reports = witnesses._discord_scan(state, alphas)
        assert [r.to_json_dict() for r in reports] == [discord_test(state, a).to_json_dict() for a in alphas]
        # The statistic, read as the larger branch sum, is the max-group recombination of the terms, bit for bit.
        assert [r.statistic for r in reports] == [statistic_from_terms(r.weak_terms, r.statistic_rule) for r in reports]
        seen: set[int] = set()
        for report in reports:
            ids = _mutable_ids(report)
            assert not ids & seen
            seen |= ids


def _fit_argv(bloch, axes, post, g, t, couplings):
    vec = lambda v: ",".join(map(repr, map(float, v)))  # noqa: E731
    return [
        "pointer", "sim", f"--bloch={vec(bloch)}", "--projectors=" + ";".join(f"{vec(a)}:+" for a in axes),
        f"--post-bloch={vec(post)}", f"--g={g!r}", f"--t={t!r}", f"--couplings={vec(couplings)}",
    ]


def _cases():
    """Seeded pointer commands: one to three pointers, post-selections inside the ball, couplings
    whose kicks need more and fewer orders than the simulation's, a zero and a negative one."""
    rng = np.random.default_rng(2029)
    return [
        (random_bloch_vector(rng), [random_unit_vector(rng) for _ in range(n)], 0.6 * random_bloch_vector(rng), g, t, couplings)
        for n, g, t, couplings in [
            (1, 0.3, 1.0, [0.1, 0.0, -0.4, 1.2]),
            (2, 0.05, 0.7, [0.02, 0.04, 0.06]),
            (2, 0.9, 1.5, [0.1, 1.1, -1.9, 0.0, 0.5]),
            (3, 0.4, 1.0, [0.2, -0.3, 0.05]),
            (3, 0.02, 2.0, [0.3, 0.6, 0.9, 1.0]),
        ]
    ]


@pytest.mark.parametrize("case", _cases())
def test_pointer_sim_with_couplings_writes_the_bytes_of_the_two_public_calls(capsys, tmp_path, case):
    bloch, axes, post, g, t, couplings = case
    out = tmp_path / "out.json"
    assert _run(capsys, _fit_argv(bloch, axes, post, g, t, couplings) + ["--out", str(out)]) == (0, "")
    state, projectors, effect, cfg = bloch_state(bloch), [qubit_projector(a) for a in axes], bloch_state(post), PointerConfig(g, t)
    payload = dataclasses.asdict(simulate_pointers(state, projectors, effect, cfg))
    payload["proportionality"] = proportionality_check(state, projectors, effect, cfg, couplings)
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("couplings", [[0.02, 0.04, 0.06], [0.1, 0.5, 1.2, 0.3, 0.9, 2.0, 0.0]])
def test_pointer_sim_with_couplings_builds_the_word_sums_once(capsys, tmp_path, couplings, monkeypatch):
    builds = _count(monkeypatch, pointer, "_word_sums")
    argv = _fit_argv([0.3, 0.2, 0.5], [[0, 0, 1], [1, 0, 0]], [0, 0, 0], 0.1, 0.5, couplings)
    assert _run(capsys, argv + ["--out", str(tmp_path / "out.json")]) == (0, "")
    # One build, at the largest order among the kicks g t / sigma of the simulation and the couplings.
    assert [args[-1] for args in builds] == [max(pointer._order(g * 0.5, 2)[0] for g in [0.1, *couplings])]


@pytest.mark.parametrize("scan", ["1.0:1.0:0.5", "0.3:1.2:0.225", "0.1:3.0:0.05"])
def test_a_discord_scan_compiles_once_and_contracts_once(capsys, tmp_path, scan, monkeypatch):
    compiles = _count(monkeypatch, witnesses, "_compile_terms")
    contractions = _count(monkeypatch, witnesses, "_born_weak")
    argv = ["test", "discord", "--werner=0.7", f"--alpha-scan={scan}", "--out", str(tmp_path / "out.json")]
    assert _run(capsys, argv) == (0, "")
    assert len(compiles) == len(contractions) == 1
    assert len(compiles[0][0]) == 12 * len(_alpha_grid(scan))


def test_a_fit_takes_at_most_max_couplings_and_refuses_more_before_any_series(monkeypatch):
    state, projectors, effect, cfg = bloch_state([0.3, 0.2, 0.5]), [qubit_projector([0, 0, 1])], np.eye(2), PointerConfig(0.1, 1.0)
    couplings = [0.001 * (k + 1) for k in range(pointer.MAX_COUPLINGS)]
    assert pointer.MAX_COUPLINGS == 100
    assert proportionality_check(state, projectors, effect, cfg, couplings)["relative_deviation"] < 1e-6

    def unbuilt(*args):
        raise AssertionError("the series was built")

    monkeypatch.setattr(pointer, "_word_sums", unbuilt)
    with pytest.raises(ResourceLimitError, match=r"^a fit takes at most 100 coupling values, got 101$"):
        proportionality_check(state, projectors, effect, cfg, couplings + [0.5])


def test_pointer_sim_refuses_a_coupling_list_over_the_cap_with_exit_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pointer, "_word_sums", lambda *args: pytest.fail("the series was built"))
    out = tmp_path / "out.json"
    argv = _fit_argv([0.3, 0.2, 0.5], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [0, 0, 0], 2.0, 1.0, [2.0] * 101)
    assert _run(capsys, argv + ["--out", str(out)]) == (2, "error: a fit takes at most 100 coupling values, got 101\n")
    assert not out.exists()


def test_the_simulations_kick_is_refused_before_the_coupling_count(capsys, tmp_path):
    out = tmp_path / "out.json"
    argv = ["pointer", "sim", "--bloch", "0.3,0.2,0.5", "--g", "10", "--couplings", "0.1,0.2", "--out", str(out)]
    code, err = _run(capsys, argv)
    assert code == 1
    assert err == "error: g * t / sigma = 5 is out of range: |g * t / sigma| must be at most 3 for 2 pointers\n"
    assert not out.exists()
    # Over the cap too: the simulation's own checks still come first.
    code, err = _run(capsys, argv[:-4] + ["--couplings", ",".join(["0.1"] * 101), "--out", str(out)])
    assert (code, err.startswith("error: g * t / sigma = 5 is out of range")) == (1, True)


def test_a_fit_alone_checks_its_couplings_before_the_state():
    with pytest.raises(InvalidInputError, match="need at least 3 coupling values, got 2"):
        proportionality_check(werner_state(0.5), [qubit_projector([0, 0, 1])], np.eye(2), PointerConfig(0.1, 1.0), [0.1, 0.2])
    with pytest.raises(ResourceLimitError, match="at most 100"):
        proportionality_check(werner_state(0.5), [qubit_projector([0, 0, 1])], np.eye(2), PointerConfig(0.1, 1.0), [0.1] * 101)


def test_a_scan_with_an_aperture_past_pi_exits_one_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "out.json"
    code, err = _run(capsys, ["test", "discord", "--werner", "0.5", "--alpha-scan", "2.5:3.5:0.5", "--out", str(out)])
    assert (code, err) == (1, "error: alpha must lie in (0, pi), got 3.5\n")
    assert not out.exists()
