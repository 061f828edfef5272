"""Fuzz gate for the CLI's argv: every drawn argv exits 0, 1 or 2, lets no
exception escape, and gives the same exit code, stdout, stderr and --out text
when parsed at its leaf parser as when the whole parser tree parses it.

Each case takes one of the tree's leaves (a two-word command such as
`test chsh`), its required flags with valid values and often a valid state
source, and appends up to four pieces drawn from the leaf's own flags: a
flag with a valid, malformed or out-of-range value, either as two words or as
one `--flag=value` word, a flag with its value missing, an unknown flag, an
extra positional word or `-h`.  A few cases drop or replace the command
words, so the tree's own refusals are drawn too.  Values keep every command
cheap: short --alpha-scan grids, few --t-steps, small pointer kicks and an
--json-indent of at most its cap plus one.  The run is derandomized and
bounded, so it draws the same examples on every run.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pplab.cli
from pplab.cli import _build_parser, parse_and_dispatch

VECTORS = ["0,0,1", "1,0,0", "0.6,0.8,0", "0,0,-1", "0,0,0", "−0.6,0,0", "1,0", "nan,0,0", "2,0,0", "abc", ""]
# Values by flag dest, the first two valid; a dest not named here draws from VECTORS.
VALUES = {
    "werner": ["0.5", "1", "-0.3", "−0.3", "2", "nan", "abc"],
    "observables": ["0:z;0:x", "0:z;1:z", "0:z;0:x;0:y", "0:0,0,1", "a:z", "0:q", "7:z", ";"],
    "prescription": ["unit", "symmetrized", "convex", "bogus"],
    "weights": ["0.5,0.5", "0.5,0.3,0.2", "1", "nan", "a"],
    "axes": ["z+;x+", "z−;x+", "z+;x+;z-", "0,0,1:-;x+", "q+", "0,0,1:x", ";"],
    "projectors": ["z+;x+", "z+", "z+;x+;y+", "0,0,1:-;x+", "w", ";"],
    "g": ["0.05", "0.02", "0", "-0.03", "1e200", "abc"],
    "t": ["1", "0.5", "0", "-1", "inf"],
    "sigma": ["1", "2", "0", "1e-300", "x"],
    "couplings": ["0.02,0.04,0.06", "0.01,0.02,0.03,0.04", "0.1", "0,0,0", "0.01,1e200,0.02", "a"],
    "omega": ["1", "0.5", "nan", "x"],
    "t_max": ["1.5708", "0", "-1", "x"],
    "t_steps": ["1", "3", "5", "0", "-2", "10001", "x"],
    "theta": ["0", "0.3", "inf", "x"],
    "alpha": ["1.0", "2.0", "3.5", "-1", "x"],
    "alpha_scan": ["1.0:1.2:0.1", "2.4:2.6:0.1", "1:0:0.1", "0:1:0", "0:inf:1", "0:1", "x"],
    "json_indent": ["0", "1", "2", "4", "-1", str(pplab.cli.MAX_JSON_INDENT + 1), "x"],
}
LEAVES = sorted(_build_parser().leaves)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "mixed.json").write_text(json.dumps({"dim": 2, "re": [[0.5, 0], [0, 0.5]]}))
    (root / "pair.json").write_text(json.dumps({"dim": 4, "re": [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]}))
    (root / "broken.json").write_text("{")
    return root


def _pieces(leaf_flags: list[tuple[str, str]], root: Path) -> st.SearchStrategy[list[str]]:
    def valued(flag: tuple[str, str]) -> st.SearchStrategy[list[str]]:
        option, dest = flag
        if dest == "state":
            pool = [str(root / name) for name in ("mixed.json", "pair.json", "broken.json", "missing.json")]
        elif dest == "out":
            pool = [str(root / "out.json")]
        else:
            pool = VALUES.get(dest, VECTORS)
        return st.tuples(st.sampled_from(pool[:2]) | st.sampled_from(pool), st.booleans()).map(
            lambda v: [f"{option}={v[0]}"] if v[1] else [option, v[0]]
        )

    flags = st.sampled_from(leaf_flags)
    return st.one_of(
        flags.flatmap(valued),
        flags.flatmap(valued),
        flags.flatmap(valued),
        flags.map(lambda f: [f[0]]),
        st.sampled_from([["--bogus", "1"], ["--no-such-flag"], ["extra"], ["-h"], ["--help"], ["--"],
                         ["--json-indent", str(pplab.cli.MAX_JSON_INDENT + 1)]]),
    )


@st.composite
def argvs(draw: st.DrawFn, root: Path) -> list[str]:
    command, action = draw(st.sampled_from(LEAVES))
    leaf = _build_parser().leaves[command, action][0]
    actions = [a for a in leaf._actions if a.option_strings and a.dest != "help"]
    leaf_flags = [(a.option_strings[-1], a.dest) for a in actions]
    # A base that often runs: each required flag with the first (valid) value of its
    # pool, and one state source where the leaf reads a state.
    words = [command, action]
    for a in actions:
        if a.required:
            words += [a.option_strings[-1], VALUES.get(a.dest, VECTORS)[0]]
    if "werner" in {a.dest for a in actions} and draw(st.booleans()):
        words += draw(st.sampled_from([["--werner", "0.5"], ["--bloch", "0.6,0,0.3"], ["--state", str(root / "pair.json")]]))
    for piece in draw(st.lists(_pieces(leaf_flags, root), max_size=4)):
        words += piece
    head = draw(st.sampled_from(["leaf"] * 8 + ["command", "none", "unknown"]))
    return {"leaf": words, "command": words[:1] + words[2:], "none": words[2:], "unknown": ["frobnicate", *words[1:]]}[head]


def _run(argv: list[str], out: Path) -> tuple[int, str, str, str | None]:
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = parse_and_dispatch(list(argv))
    return code, stdout.getvalue(), stderr.getvalue(), out.read_text() if out.exists() else None


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(data=st.data())
def test_argv_exits_as_the_tree_would_without_a_traceback(files, data):
    argv = data.draw(argvs(files))
    out = files / "out.json"
    leaf = _run(argv, out)
    with mock.patch.object(pplab.cli, "_parse", lambda words: _build_parser().parse_args(words)):
        tree = _run(argv, out)
    assert leaf == tree
    assert leaf[0] in (0, 1, 2)
    assert "Traceback" not in leaf[1] + leaf[2]
