"""Live outputs against the committed corpus under tests/corpus/.

The corpus holds every CI smoke command's exit code and report and one seeded
op of each benchmark workload (see tests/make_corpus.py, which builds it).
Keys, their order, strings, booleans, integers and exit codes must match
exactly; a float must agree within 1e-12 * max(1, |x|).  A change that moves a
number on purpose regenerates the corpus in the same commit.
"""
from __future__ import annotations

import json

import pytest

import make_corpus

RTOL = 1e-12


def _mismatch(live: object, want: object, where: str = "") -> str | None:
    """Where `live` first differs from `want`, or None."""
    if isinstance(want, dict):
        if not isinstance(live, dict) or list(live) != list(want):
            return f"{where}: keys {list(live) if isinstance(live, dict) else type(live).__name__} != {list(want)}"
        return next(filter(None, (_mismatch(live[k], v, f"{where}.{k}") for k, v in want.items())), None)
    if isinstance(want, list):
        if not isinstance(live, list) or len(live) != len(want):
            return f"{where}: {live!r:.80} is not a list of {len(want)}"
        return next(filter(None, (_mismatch(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(live, want)))), None)
    if type(live) is not type(want):
        return f"{where}: {live!r} is a {type(live).__name__}, not a {type(want).__name__}"
    if isinstance(want, float) and abs(live - want) <= RTOL * max(1.0, abs(want)):
        return None
    return None if live == want else f"{where}: {live!r} != {want!r}"


@pytest.fixture(scope="module")
def live() -> dict[str, object]:
    # A JSON round trip gives the live data the corpus's types.
    return {name: json.loads(make_corpus.dumps(data)) for name, data in make_corpus.outputs().items()}


@pytest.mark.parametrize("name", ["smoke.json", "workloads.json"])
def test_outputs_match_the_corpus(live: dict[str, object], name: str) -> None:
    want = json.loads((make_corpus.CORPUS / name).read_text())
    assert _mismatch(live[name], want) is None


def test_every_smoke_command_exits_as_its_workflow_line_expects(live: dict[str, object]) -> None:
    smoke = live["smoke.json"]
    assert {c["command"] for c in smoke} == set(make_corpus.EXIT_CODES)
    assert all(c["exit"] == make_corpus.EXIT_CODES[c["command"]] for c in smoke)
    assert all("report" in c for c in smoke if c["command"] == "pplab")


def test_the_comparison_catches_a_moved_number_and_a_renamed_key() -> None:
    want = {"a": [1.0, {"b": 0.25, "c": True}], "n": 3}
    assert _mismatch({"a": [1.0 + 1e-13, {"b": 0.25, "c": True}], "n": 3}, want) is None
    for moved in (
        {"a": [1.0 + 1e-9, {"b": 0.25, "c": True}], "n": 3},
        {"a": [1.0, {"b": 0.25 - 1e-9, "c": True}], "n": 3},
        {"a": [1.0, {"b2": 0.25, "c": True}], "n": 3},
        {"a": [1.0, {"c": True, "b": 0.25}], "n": 3},
        {"a": [1.0, {"b": 0.25, "c": 1}], "n": 3},
        {"a": [1.0, {"b": 0.25, "c": True}], "n": 3.0},
        {"a": [1.0], "n": 3},
    ):
        assert _mismatch(moved, want) is not None
