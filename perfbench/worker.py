"""One benchmark process: set up, run one workload's timed loop, report.

Started by run.py, never by hand.  Prints one JSON line with the process's
set-up time, every op's wall time, the calibration times around the ops,
its peak RSS and, for a traced run, each op's per-layer self time and the
run's work counts.  Set-up time runs from the moment run.py spawned this
process (``--t0``, on the system-wide monotonic clock) to the first timed
op, so it covers interpreter start, importing pplab, drawing the first
inputs and one untimed, checked warm-up op.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import pplab
import reference as ref
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def make_calibration():
    """A fixed kernel of Python and tiny numpy calls, the same mix as a pplab
    op but independent of pplab.  Timed around every op, it tells run.py how
    fast the host was running at that moment."""
    a = np.array([[0.3, 0.4 - 0.1j], [0.4 + 0.1j, 0.7]])

    def calibrate() -> float:
        t = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            acc += float(np.trace(a @ a).real)
        return time.perf_counter() - t

    return calibrate


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--child", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=Path, help="write spans here and report per-layer figures")
    ap.add_argument("--block", type=int, default=0, help="traced run: ops per whole pass")
    args = ap.parse_args()

    if not Path(pplab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pplab imported from {pplab.__file__}, not from this checkout")
    wl = WORKLOADS[args.workload]
    for module in wl.modules:
        __import__(module)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    work = ROOT / "perfbench" / "out" / f"work-{args.workload}-{args.child}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    stream = np.random.SeedSequence([args.seed, wl.id, args.child])
    warm_rng, rng = (np.random.default_rng(s) for s in stream.spawn(2))

    errors: list[str] = []

    def checked(x: dict, raw: object) -> bool:
        try:
            wl.verify(x, wl.summarize(x, raw))
        except ref.CheckFailed as exc:
            errors.append(str(exc))
            return False
        return True

    def slot(i: int) -> Path:
        path = work / f"slot{i}"
        path.mkdir(exist_ok=True)
        return path

    warm = wl.draw(warm_rng, slot(0))
    correct = checked(warm, wl.run(warm))
    block = [wl.draw(rng, slot(i)) for i in range(args.block)] if tracer else []
    setup_s = time.monotonic() - args.t0

    calibrate = make_calibration()
    cal_s = [calibrate()]
    op_s: list[float] = []
    span_marks: list[int] = []
    attempted = failed = 0
    perf = time.perf_counter
    loop_start = perf()
    while True:
        if tracer:
            if attempted and attempted % len(block) == 0 and perf() - loop_start >= args.seconds:
                break
            x = block[attempted % len(block)]
        else:
            if perf() - loop_start >= args.seconds:
                break
            x = wl.draw(rng, slot(0))
        attempted += 1
        if tracer:
            span_marks.append(len(tracer.start))
            tracer.active = True
        t = perf()
        try:
            raw = wl.run(x)
        except pplab.PPLabError as exc:
            failed += 1
            errors.append(f"op failed: {type(exc).__name__}: {exc}")
            continue
        finally:
            op_s.append(perf() - t)
            if tracer:
                tracer.active = False
            cal_s.append(calibrate())
        correct = checked(x, raw) and correct

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "cal_s": cal_s,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors[:5],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["self_ms"] = tracer.self_ms_per_op(span_marks)
        result["counts"] = {f"{layer}.{name}": v for (layer, name), v in tracer.counts.items()}
        tracer.write(args.trace)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
