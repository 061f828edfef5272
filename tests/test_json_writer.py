"""The CLI's indented JSON writer against json.dumps: the same bytes for every
indent from 1 to MAX_JSON_INDENT, and the same TypeError for what JSON cannot hold.

The inputs are every report in the committed corpus and derandomized
hypothesis trees of JSON values: nested empty containers, tuples, strings
with non-ASCII and control characters, bools, ints and floats with their
subclasses (np.float64), NaN and the infinities, and non-string keys.
Every live CLI report is written by the writer itself, never handed to json.dumps.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import make_corpus
import pplab.cli
from pplab.cli import MAX_JSON_INDENT, _dumps_indented

INDENTS = range(1, MAX_JSON_INDENT + 1)


class _Int(int):
    pass


class _Str(str):
    pass


def _reports() -> list[object]:
    smoke = json.loads((make_corpus.CORPUS / "smoke.json").read_text())
    cli = json.loads((make_corpus.CORPUS / "workloads.json").read_text())["cli_session"]
    return [c["report"] for c in smoke if "report" in c] + [c["report"] for c in cli.values()]


def test_corpus_reports_are_written_as_json_dumps_writes_them():
    reports = _reports()
    assert len(reports) > 30
    for indent in INDENTS:
        for report in reports:
            assert _dumps_indented(report, indent) == json.dumps(report, indent=indent)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]),
    st.text(),
    st.text().map(_Str),
)
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
TREES = st.recursive(
    SCALARS | st.sampled_from([[], {}, ()]),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(TREES)
def test_json_trees_are_written_as_json_dumps_writes_them(tree):
    for indent in INDENTS:
        assert _dumps_indented(tree, indent) == json.dumps(tree, indent=indent)


@pytest.mark.parametrize(
    "payload",
    [
        np.zeros(2),
        {"a": [1.0, np.zeros(2)]},
        [1, {"b": np.int64(3)}],
        {"a": np.zeros(2), (1, 2): 0.5},
        {"a": 1.0, (1, 2): np.zeros(2)},
        [{1j: 0}],
        {"z": set()},
    ],
    ids=["ndarray", "nested-ndarray", "numpy-int", "value-before-key", "key-before-value", "complex-key", "set"],
)
def test_what_json_cannot_hold_raises_json_dumps_type_error(payload):
    with pytest.raises(TypeError) as want:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps_indented(payload, 2)
    assert str(got.value) == str(want.value)


def test_every_live_report_is_written_without_json_dumps(monkeypatch):
    # A report that came to hold a numpy scalar would send every command through
    # json.dumps with the same bytes, so only a count of the fallbacks shows it.
    writes, fallbacks = [], []
    write, dumps = pplab.cli._dumps_indented, json.dumps

    def counted_write(payload, indent):
        writes.append(payload)
        return write(payload, indent)

    def counted_dumps(obj, **kwargs):
        if "indent" in kwargs:
            fallbacks.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(pplab.cli, "_dumps_indented", counted_write)
    monkeypatch.setattr(json, "dumps", counted_dumps)
    live = make_corpus.outputs()  # every CI smoke command and one seeded cli_session op
    reports = [c for c in live["smoke.json"] if c["command"] == "pplab"]
    assert len(writes) == len(reports) + len(live["workloads.json"]["cli_session"]) > 30
    assert fallbacks == []
