"""Build the committed output corpus that tests/test_corpus.py compares with.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_corpus.py

It writes two files under tests/corpus/, from pplab's public API and its CLI
only:

* ``smoke.json``: every CLI command of the smoke step in
  .github/workflows/tests.yml, run in-process through ``parse_and_dispatch``.
  A ``pplab`` line gives its exit code and its ``--out`` report; an
  ``expect_one`` or ``expect_two`` line gives its exit code and the first line
  of its error message.
* ``workloads.json``: one seeded op of each benchmark workload, drawn, run and
  summarized by perfbench's own ``draw_*``, ``run_*`` and ``summarize_*``.

A change that moves a reported number on purpose reruns this script in the
same commit.  Rerunning it on unchanged code rewrites both files byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from pplab.cli import parse_and_dispatch

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# The benchmark workloads' seeds are [WORKLOAD_SEED, workload id].
WORKLOAD_SEED = 0
# The smoke step's commands read files from this directory, so each run
# replaces it with a directory of its own.
RUNNER_TEMP = "$RUNNER_TEMP"
# The state file the smoke step writes before `pplab test discord --state`.
PLUS_MIXED = {"dim": 4, "re": [[0.25, 0, 0.25, 0], [0, 0.25, 0, 0.25]] * 2, "im": [[0] * 4] * 4}
# The smoke step's command lines, by their first word, and the exit code each expects.
EXIT_CODES = {"pplab": 0, "expect_one": 1, "expect_two": 2}


def smoke_commands() -> list[tuple[str, list[str]]]:
    """(first word, argv) for each command line of the smoke step."""
    commands = []
    for line in WORKFLOW.read_text().splitlines():
        words = line.split()
        if words and words[0] in EXIT_CODES:
            kind, *argv = shlex.split(line)
            commands.append((kind, argv))
    return commands


def plain(obj: object) -> object:
    """`obj` as JSON data: tuples as lists, numpy scalars as Python numbers, a
    complex number as {"complex": [re, im]}, and a dict key that is not a
    string as its repr."""
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else repr(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return plain(obj.item())
    if isinstance(obj, complex):
        return {"complex": [obj.real, obj.imag]}
    return obj


def _run(argv: list[str], work: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = parse_and_dispatch([w.replace(RUNNER_TEMP, str(work)) for w in argv])
    return code, err.getvalue()


def smoke_outputs(work: Path) -> list[dict]:
    """The exit code and the report or the error of each smoke command."""
    (work / "plus_mixed.json").write_text(json.dumps(PLUS_MIXED))
    out = work / "x.json"
    results = []
    for kind, argv in smoke_commands():
        if out.exists():
            out.unlink()
        code, err = _run(argv + ["--out", str(out)], work)
        result = {"command": kind, "argv": argv, "exit": code}
        if kind == "pplab" and out.exists():
            result["report"] = json.loads(out.read_text())
        else:
            result["error"] = err.splitlines()[0] if err else ""
        results.append(result)
    return results


def workload_outputs(work: Path) -> dict:
    """The summary of one seeded op of each benchmark workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    results = {}
    for name, wl in WORKLOADS.items():
        x = wl.draw(np.random.default_rng([WORKLOAD_SEED, wl.id]), work)
        summary = wl.summarize(x, wl.run(x))
        if name == "cli_session":  # each command's --out text is a JSON report
            summary = {k: {"exit": v["exit"], "report": json.loads(v["text"])} for k, v in summary.items()}
        results[name] = plain(summary)
    return results


def outputs() -> dict[str, object]:
    """The live outputs, keyed by corpus file name."""
    with mock.patch.dict(os.environ), tempfile.TemporaryDirectory() as tmp:
        os.environ.pop("PPLAB_TOL", None)  # the default verdict tolerance
        return {"smoke.json": smoke_outputs(Path(tmp)), "workloads.json": workload_outputs(Path(tmp))}


def dumps(data: object) -> str:
    """One value per line, so a moved number shows as a one-line diff."""
    return json.dumps(data, indent=0, separators=(",", ":"), allow_nan=False) + "\n"


def main() -> None:
    CORPUS.mkdir(exist_ok=True)
    for name, data in outputs().items():
        (CORPUS / name).write_text(dumps(data))


if __name__ == "__main__":
    main()
