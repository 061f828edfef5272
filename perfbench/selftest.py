"""Show that every correctness check of the benchmark can fail.

Runs one op of each workload, confirms its outputs pass, then feeds the
checks copies of those outputs with one value perturbed and confirms that
each perturbation is caught, by the check it targets.  Run from the root of
a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every perturbation is caught by its check, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference as ref
from workloads import WITNESS_NAMES, WORKLOADS

DELTA = 1e-9


def shift_term(rep: dict) -> None:
    """Move the statistic by DELTA while keeping the report self-consistent:
    one term's pseudo-probability and weak value move with it, so only the
    comparison with an independent closed form can notice."""
    groups: dict[int, float] = {}
    for t in rep["weak_terms"]:
        groups[t["group"]] = groups.get(t["group"], 0.0) + t["coefficient"] * t["pseudo_probability"]
    top = max(groups, key=groups.get)
    term = next(t for t in rep["weak_terms"]
                if t["group"] == top and t["weak_value"] is not None and t["born_factor"] > 1e-3)
    step = DELTA / term["coefficient"]
    term["pseudo_probability"] += step
    term["weak_value"] += step / term["born_factor"]
    rep["statistic"] += DELTA


def edit_cli(name: str, change) -> callable:
    """Perturbation of one CLI command's JSON output."""

    def mutate(out: dict) -> None:
        doc = json.loads(out[name]["text"])
        change(doc)
        out[name]["text"] = json.dumps(doc)

    return mutate


def keep_marginals(table: dict) -> None:
    """Change four entries so that the sum and all single marginals stay put."""
    base = next(iter(table))
    flip = lambda k, i: k[:i] + (-k[i],) + k[i + 1:]  # noqa: E731
    for key, sign in ((base, 1), (flip(base, 0), -1), (flip(base, 1), -1), (flip(flip(base, 0), 1), 1)):
        table[key] += sign * DELTA


def bump(table: dict) -> None:
    table[next(iter(table))] += DELTA


def one_ulp(table: dict) -> None:
    key = next(iter(table))
    table[key] = float(np.nextafter(table[key], 2.0))


def move_marginal(table: dict) -> None:
    """Move weight between two entries: the sum stays, observable 0's marginal moves."""
    key = next(iter(table))
    table[key] += DELTA
    table[(-key[0],) + key[1:]] -= DELTA


def set_in(path: tuple, change) -> callable:
    def mutate(out):
        obj = out
        for k in path[:-1]:
            obj = obj[k]
        obj[path[-1]] = change(obj[path[-1]])

    return mutate


def witness_cases() -> list:
    cases = []
    for name in WITNESS_NAMES:
        cases.append((f"{name}.closed_form", lambda out, n=name: shift_term(out[n])))
    cases += [
        ("coherence.recombination", set_in(("coherence", "weak_terms", 0, "pseudo_probability"), lambda v: v + DELTA)),
        ("chsh.born_times_weak", set_in(("chsh", "weak_terms", 0, "weak_value"), lambda v: v + DELTA)),
        ("linear_II.verdict", set_in(("linear_II", "verdict"), lambda v: not v)),
        ("discord.weak_terms", set_in(("discord", "weak_terms"), lambda v: [])),
        ("discord.branch_axis", set_in(("discord", "inputs", "branch_axes", 1, 0), lambda v: v + 1e-6)),
        ("certificate.min_eigenvalue", set_in(("certificate", "value"), lambda v: v + DELTA)),
        ("certificate.witness", set_in(("certificate", "vector"), lambda v: [c * (1 + DELTA) for c in v])),
        ("weak_value.value", set_in(("weak", "value"), lambda v: v + DELTA)),
        ("weak_value.overlap", set_in(("weak", "overlap"), lambda v: v + DELTA)),
        ("weak_value.bounds", set_in(("weak", "bounds", 1), lambda v: v + DELTA)),
        ("weak_value.anomalous", set_in(("weak", "anomalous"), lambda v: not v)),
        ("factorization.pseudo_probability", set_in(("factorization", "pseudo_probability"), lambda v: v + DELTA)),
        ("factorization.born_factor", set_in(("factorization", "born_factor"), lambda v: v + DELTA)),
        ("factorization.weak_factor", set_in(("factorization", "weak_factor"), lambda v: v + DELTA)),
        ("factorization.residual", set_in(("factorization", "identity_residual"), lambda v: 1e-9)),
        ("geometry.axes", set_in(("geometry", "alpha"), lambda v: v + DELTA)),
        ("geometry.doublet", set_in(("geometry", "doublets", 1, 2, 0, 0), lambda v: v + DELTA)),
    ]
    return cases


def scheme_cases() -> list:
    cases = []
    for index, tag in ((3, "scheme[symmetrized 5]"), (4, "scheme[unit 6]"), (5, "scheme[convex 4]"),
                       (7, "scheme[unit 3+3]")):
        cases += [
            (f"{tag}.table.size", lambda out, i=index: out[i]["entries"].popitem()),
            (f"{tag}.table.normalization", lambda out, i=index: bump(out[i]["entries"])),
            (f"{tag}.table.born_marginal", lambda out, i=index: move_marginal(out[i]["entries"])),
            (f"{tag}.table.entries", lambda out, i=index: keep_marginals(out[i]["entries"])),
            (f"{tag}.marginals", lambda out, i=index: out[i]["marginals"].pop()),
            (f"{tag}.marginal.entries", lambda out, i=index: keep_marginals(out[i]["marginals"][1])),
            (f"{tag}.marginal.born_marginal", lambda out, i=index: move_marginal(out[i]["marginals"][0])),
            (f"{tag}.negativity", set_in((index, "negativity", "nonclassical"), lambda v: not v)),
            (f"{tag}.equality_sum", set_in((index, "equality_sum"), lambda v: v + DELTA)),
            (f"{tag}.json_round_trip", lambda out, i=index: one_ulp(out[i]["round_trip"]["entries"])),
        ]
    return cases


def cli_cases() -> list:
    def pointer(field):
        return lambda d: d.__setitem__(field, d[field] + 2 * ref.POINTER_TOL)

    return [
        ("cli.weak.exit", set_in(("weak", "exit"), lambda v: 1)),
        ("cli.weak.json", set_in(("weak", "text"), lambda v: v.replace("false", "NaN", 1).replace("true", "NaN", 1))),
        ("cli.pp_fixed.min_eigenvalue", edit_cli("pp_fixed", lambda d: d.__setitem__("min_eigenvalue", d["min_eigenvalue"] + DELTA))),
        ("cli.pp.min_eigenvalue", edit_cli("pp", lambda d: d.__setitem__("min_eigenvalue", d["min_eigenvalue"] + DELTA))),
        ("cli.weak.value", edit_cli("weak", lambda d: d.__setitem__("value_im", d["value_im"] + DELTA))),
        ("cli.scheme.entries", edit_cli("scheme", lambda d: [
            d["entries"].__setitem__(k, d["entries"][k] + s * DELTA)
            for k, s in (("+++", 1), ("-++", -1), ("+-+", -1), ("--+", 1))])),
        ("cli.chsh.closed_form", edit_cli("chsh", shift_term)),
        ("cli.coherence.closed_form", edit_cli("coherence", shift_term)),
        ("cli.boolean.closed_form", edit_cli("boolean", shift_term)),
        ("cli.distributivity.closed_form", edit_cli("distributivity", shift_term)),
        ("cli.discord.apertures", edit_cli("discord", lambda d: d.pop())),
        ("discord.closed_form", edit_cli("discord", lambda d: shift_term(d[2]))),
        ("cli.pointer.pseudo_probability", edit_cli("pointer", pointer("pseudo_probability"))),
        ("cli.pointer.ratio", edit_cli("pointer", pointer("ratio"))),
        ("cli.pointer.fit", edit_cli("pointer", lambda d: pointer("fitted_slope")(d["proportionality"]))),
        ("cli.game.trajectory", edit_cli("game", lambda d: d["trajectory"][5]["scheme"].__setitem__(
            0, d["trajectory"][5]["scheme"][0] + DELTA))),
        ("cli.game.score", edit_cli("game", lambda d: d["trajectory"][7].__setitem__("score", d["trajectory"][7]["score"] + DELTA))),
    ]


CASES = {"witness_battery": witness_cases, "scheme_tables": scheme_cases, "cli_session": cli_cases}


def main() -> int:
    missed = 0
    scratch = Path(__file__).resolve().parent / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, cases in CASES.items():
            wl = WORKLOADS[name]
            for module in wl.modules:
                __import__(module)
            x = wl.draw(np.random.default_rng(2024), Path(tmp))
            out = wl.summarize(x, wl.run(x))
            wl.verify(x, out)
            for check, mutate in cases():
                bad = copy.deepcopy(out)
                mutate(bad)
                try:
                    wl.verify(x, bad)
                    caught = "nothing"
                except ref.CheckFailed as exc:
                    caught = exc.check
                ok = caught == check
                missed += not ok
                print(f"{'ok  ' if ok else 'MISS'} {name:16s} {check:42s} caught by {caught}")
    print(f"{missed} perturbation(s) not caught by their check")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
