"""pplab benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload witness_battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("witness_battery", "scheme_tables", "cli_session")

# Untimed runs split their seconds over this many fresh processes, so set-up
# (interpreter start, import, first inputs, warm-up) is measured several
# times per run.
PROCESSES = 7
# Traced runs cycle whole passes over this many pre-drawn ops, so per-op
# work counts repeat exactly for a seed however long the run is.
TRACE_BLOCK = {"witness_battery": 16, "scheme_tables": 8, "cli_session": 8}
# The host's speed wanders: phases about 1.7x slower than full speed last
# from seconds to longer than a whole run.  The worker times a fixed
# calibration kernel before and after every op, and each op's time is
# divided by the mean of those two calibrations and multiplied by
# CAL_REFERENCE_S.  That states every time at the host speed where the
# kernel takes CAL_REFERENCE_S (its full-speed time on the 2-core Xeon host
# the bounds were set on), so the host's phases cancel.  See README.md.
CAL_REFERENCE_S = 0.75e-3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env.pop("PPLAB_TOL", None)
    return env


def spawn(workload: str, seed: int, child: int, seconds: float, trace: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--child", str(child), "--seconds", repr(seconds)]
    if trace:
        cmd += ["--trace", str(trace), "--block", str(TRACE_BLOCK[workload])]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=seconds + 30)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_factors(run: dict) -> list[float]:
    """Per op, the factor that states its time at the reference host speed."""
    cal = run["cal_s"]
    return [2.0 * CAL_REFERENCE_S / (cal[i] + cal[i + 1]) for i in range(len(run["op_s"]))]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    runs = [spawn(workload, seed, c, seconds / PROCESSES, None) for c in range(PROCESSES)]
    op_ms = sorted(t * 1e3 * f for r in runs for t, f in zip(r["op_s"], speed_factors(r)))
    setups = [r["setup_s"] * CAL_REFERENCE_S / r["cal_s"][0] for r in runs]
    raw = [t * 1e3 for r in runs for t in r["op_s"]]
    print(f"{workload:16s} unscaled op_ms p50 {statistics.median(raw):.4g}, "
          f"set-up {statistics.median(r['setup_s'] for r in runs):.4g} s")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "ops/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(op_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in runs) / 1024.0, "MB"),
    }
    return summarize(runs, metrics)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    trace = OUT / f"trace-{workload}-seed{seed}.npz"
    run = spawn(workload, seed, 0, seconds, trace)
    factors = speed_factors(run)
    ops = len(run["op_s"])
    metrics = {}
    for layer, per_op in run["self_ms"].items():
        metrics[f"{layer}.self_ms"] = (sum(f * v for f, v in zip(factors, per_op)) / ops, "ms/op")
    for key, total in run["counts"].items():
        metrics[key] = (total / ops, "KB/op" if key == "cli.output_kb" else "count/op")
    metrics["traced.ops_per_s"] = (ops / sum(t * f for t, f in zip(run["op_s"], factors)), "ops/s")
    return summarize([run], metrics)


def summarize(runs: list[dict], metrics: dict) -> dict:
    for r in runs:
        for line in r["errors"]:
            sys.stderr.write(line + "\n")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pplab" / "__init__.py").is_file():
        print(f"error: no pplab source under {ROOT / 'src'}; run from a pplab checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:16s} {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:16s} attempted {results[name]['attempted']}, failed {results[name]['failed']},"
              f" correct {results[name]['correct']}")
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
