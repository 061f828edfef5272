"""The three benchmark workloads.

Each workload has three parts:

* ``draw(rng, work)``: one op's inputs, made by the benchmark from its own
  seeded generator (plain numpy; pplab never sees the seed);
* ``run(x)``: the op itself, the only part that is timed and traced; it calls
  pplab's public API and nothing else of substance;
* ``summarize(x, raw)`` and ``verify(x, out)``: turn the op's results into
  plain data and check them against ``reference``.  Both are untimed.

Every op of a workload has the same fixed composition, so op times stay
unimodal and a median or tail stays put between runs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import pplab
import reference as ref

# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def bloch(rng: np.random.Generator, rmax: float = 0.95) -> np.ndarray:
    return unit(rng) * rmax * rng.uniform() ** (1.0 / 3.0)


def frame(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def two_qubit_state(rng: np.random.Generator) -> np.ndarray:
    """Seeded convex mixture of a full-rank random state, a Werner state and a
    product state.  Every op gets the same kind of state, full rank, with
    entanglement (and so negative verdicts) on a share of them."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = g @ g.conj().T
    full /= np.trace(full).real
    eta = rng.uniform(-1.0 / 3.0, 1.0)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    werner = eta * np.outer(psi, psi) + (1.0 - eta) * np.eye(4) / 4.0
    product = np.kron(ref.qubit_state(bloch(rng)), ref.qubit_state(bloch(rng)))
    w = rng.dirichlet(np.ones(3))
    rho = w[0] * full + w[1] * werner + w[2] * product
    rho = ref.herm(rho)
    return rho / np.trace(rho).real


def hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return ref.herm(g)


def vec(v: object) -> str:
    """Exact text form of a vector for a CLI flag."""
    return ",".join(repr(float(x)) for x in np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# witness_battery
# ---------------------------------------------------------------------------

WITNESS_NAMES = (
    "coherence", "boolean_dep", "boolean_indep", "distributivity", "chsh",
    "linear_I", "linear_II", "nonlinear_I", "nonlinear_II", "nonlinear_III", "discord",
)


def draw_witness(rng: np.random.Generator, work: Path) -> dict:
    return {
        "rho2": two_qubit_state(rng),
        "alpha": float(rng.uniform(0.3, math.pi - 0.3)),
        "a_frame": frame(rng),
        "b_frame": frame(rng),
        "chsh": [unit(rng) for _ in range(4)],
        "p": bloch(rng),
        "post": bloch(rng),
        "axes": [unit(rng) for _ in range(3)],
        "signs": [int(s) for s in rng.choice([1, -1], size=2)],
        "op": hermitian(rng),
    }


def run_witness(x: dict) -> dict:
    rho2 = pplab.DensityMatrix(x["rho2"])
    rho1 = pplab.bloch_state(x["p"])
    a1, a2, a3 = x["axes"]
    geom = pplab.make_entanglement_geometry(x["alpha"], x["a_frame"], x["b_frame"])
    A1, A2, B1, B2 = (
        pplab.ObservableSpec(sub, axis=ax, label=name)
        for sub, ax, name in zip((0, 0, 1, 1), x["chsh"], ("A1", "A2", "B1", "B2"))
    )
    out = {
        "coherence": pplab.coherence_test(rho1, a1, a2),
        "boolean_dep": pplab.boolean_state_dep_test(rho1, a1, a2),
        "boolean_indep": pplab.boolean_state_indep_test(a1, a2),
        "distributivity": pplab.distributivity_test(rho1, a1, a2, a3),
        "chsh": pplab.chsh_test(rho2, A1, A2, B1, B2),
        "linear_I": pplab.linear_ent_test(rho2, geom, "I"),
        "linear_II": pplab.linear_ent_test(rho2, geom, "II"),
        "nonlinear_I": pplab.nonlinear_ent_test(rho2, geom, "I"),
        "nonlinear_II": pplab.nonlinear_ent_test(rho2, geom, "II"),
        "nonlinear_III": pplab.nonlinear_ent_test(rho2, geom, "III"),
        "discord": pplab.discord_test(rho2, x["alpha"]),
    }
    s1, s2 = x["signs"]
    pp = pplab.unit_pp([pplab.qubit_projector(a1, s1), pplab.qubit_projector(a2, s2)])
    out["certificate"] = pplab.min_eigen_certificate(pp)
    out["weak"] = pplab.weak_value(x["op"], rho1, pplab.bloch_state(x["post"]))
    out["factorization"] = pplab.pp_weak_factorization(
        rho1, [pplab.qubit_projector(a) for a in (a1, a2, a3)]
    )
    out["geometry"] = geom
    return out


def summarize_witness(x: dict, raw: dict) -> dict:
    out = {name: raw[name].to_json_dict() for name in WITNESS_NAMES}
    value, vector = raw["certificate"]
    out["certificate"] = {"value": value, "vector": np.asarray(vector).tolist()}
    wv = raw["weak"]
    out["weak"] = {
        "value": wv.value, "overlap": wv.overlap,
        "bounds": list(wv.spectrum_bounds), "anomalous": wv.anomalous,
    }
    out["factorization"] = dict(raw["factorization"])
    geom = raw["geometry"]
    out["geometry"] = {
        "alpha": geom.alpha,
        "axes": [[list(v) for v in geom.a_axes], [list(v) for v in geom.b_axes]],
        "doublets": [
            [(list(d.n1), list(d.n2), list(d.axis)) for d in side]
            for side in (geom.a_doublets, geom.b_doublets)
        ],
    }
    return out


def verify_witness(x: dict, out: dict) -> None:
    a, b, t = ref.correlations(x["rho2"])
    p = np.asarray(x["p"])
    a1, a2, a3 = x["axes"]
    alpha = x["alpha"]
    a_axes, b_axes = list(x["a_frame"]), list(x["b_frame"])
    A1, A2, B1, B2 = x["chsh"]
    expected = {
        "coherence": ref.coherence_value(p, a1, a2),
        "boolean_dep": ref.boolean_dep_value(p, a1, a2),
        "boolean_indep": ref.boolean_indep_value(a1, a2),
        "distributivity": ref.distributivity_value(ref.qubit_state(p), a1, a2, a3),
        "chsh": ref.chsh_value(t, A1, A2, B1, B2),
        "linear_I": ref.linear_value(t, a_axes, b_axes, alpha, 2),
        "linear_II": ref.linear_value(t, a_axes, b_axes, alpha, 3),
        "nonlinear_I": ref.nonlinear_value(a, b, t, a_axes, b_axes, alpha, "I"),
        "nonlinear_II": ref.nonlinear_value(a, b, t, a_axes, b_axes, alpha, "II"),
        "nonlinear_III": ref.nonlinear_value(a, b, t, a_axes, b_axes, alpha, "III"),
        "discord": None,
    }
    for name in WITNESS_NAMES:
        ref.check_report(name, out[name], expected[name])
    ref.check_discord_report(out["discord"], a, b, t, alpha)

    s1, s2 = x["signs"]
    pp = ref.herm(ref.projector(a1, s1) @ ref.projector(a2, s2))
    cert = out["certificate"]
    ref.expect_close("certificate.min_eigenvalue", cert["value"], np.linalg.eigvalsh(pp)[0])
    v = np.asarray(cert["vector"])
    ref.expect_close("certificate.witness", float(np.real(v.conj() @ pp @ v)), cert["value"])
    ref.expect_close("certificate.witness", float(np.linalg.norm(v)), 1.0)

    rho1, rho2 = ref.qubit_state(p), ref.qubit_state(x["post"])
    overlap = float(np.real(np.trace(rho2 @ rho1)))
    value = complex(np.trace(rho2 @ x["op"] @ rho1)) / overlap
    spectrum = np.linalg.eigvalsh(x["op"])
    wv = out["weak"]
    ref.expect_close("weak_value.value", wv["value"], value)
    ref.expect_close("weak_value.overlap", wv["overlap"], overlap)
    ref.expect_close("weak_value.bounds", wv["bounds"][0], spectrum[0])
    ref.expect_close("weak_value.bounds", wv["bounds"][1], spectrum[1])
    tol = ref.VERDICT_TOL
    anomalous = bool(value.real < spectrum[0] - tol or value.real > spectrum[1] + tol or abs(value.imag) > tol)
    ref.expect("weak_value.anomalous", wv["anomalous"] == anomalous, f"anomalous={wv['anomalous']} for {value}")

    projs = [ref.projector(axis) for axis in (a1, a2, a3)]
    chain = projs[0] @ projs[1] @ projs[2]
    born = float(np.real(np.trace(rho1 @ projs[0])))
    pseudo = float(np.real(np.trace(rho1 @ chain)))
    f = out["factorization"]
    ref.expect_close("factorization.pseudo_probability", f["pseudo_probability"], pseudo)
    ref.expect_close("factorization.born_factor", f["born_factor"], born)
    ref.expect_close("factorization.weak_factor", f["weak_factor"], pseudo / born, ref.TOL / born)
    ref.expect("factorization.residual", f["identity_residual"] <= ref.TOL, f"residual {f['identity_residual']}")

    g = out["geometry"]
    ref.expect("geometry.axes", g["alpha"] == alpha and np.array_equal(g["axes"], [a_axes, b_axes]),
               "geometry does not echo the aperture and frames it was given")
    c = math.cos(alpha / 2.0)
    for side in g["doublets"]:
        for n1, n2, axis in side:
            n1, n2, axis = np.asarray(n1), np.asarray(n2), np.asarray(axis)
            ref.expect_close("geometry.doublet", float(np.linalg.norm(n1)), 1.0)
            ref.expect_close("geometry.doublet", float(np.linalg.norm(n2)), 1.0)
            ref.expect_close("geometry.doublet", float(n1 @ n2), math.cos(alpha))
            ref.expect_close("geometry.doublet", float(np.linalg.norm((n1 + n2) / (2 * c) - axis)), 0.0)


# ---------------------------------------------------------------------------
# scheme_tables
# ---------------------------------------------------------------------------

# (observables per subsystem, prescription, equality pattern)
LADDER = (
    ((2,), "symmetrized", "0=1"),
    ((3,), "symmetrized", "0=1=~2"),
    ((4,), "symmetrized", "0=~1,2=3"),
    ((5,), "symmetrized", "0=1=~4"),
    ((6,), "unit", "0=1,2=~3,4=5"),
    ((4,), "convex", "0=1=2=3"),
    ((2, 2), "symmetrized", "0=2,1=~3"),
    ((3, 3), "unit", "0=3,1=4,2=~5"),
)


def draw_scheme(rng: np.random.Generator, work: Path) -> dict:
    return {
        "p": bloch(rng),
        "rho2": two_qubit_state(rng),
        "axes": [[unit(rng) for _ in range(sum(sizes))] for sizes, _, _ in LADDER],
        "weights": rng.dirichlet(np.ones(12)),
    }


def _subsystems(sizes: tuple[int, ...]) -> list[int]:
    return [sub for sub, k in enumerate(sizes) for _ in range(k)]


def run_scheme(x: dict) -> list:
    rho1 = pplab.bloch_state(x["p"])
    rho2 = pplab.DensityMatrix(x["rho2"])
    out = []
    for (sizes, prescription, pattern), axes in zip(LADDER, x["axes"]):
        obs = [pplab.ObservableSpec(sub, axis=ax) for sub, ax in zip(_subsystems(sizes), axes)]
        weights = x["weights"] if prescription == "convex" else None
        s = pplab.build_scheme(rho1 if len(sizes) == 1 else rho2, obs, prescription, weights)
        back = pplab.scheme_from_json(json.loads(json.dumps(pplab.scheme_to_json(s))))
        out.append((
            s,
            pplab.negativity_report(s),
            [pplab.marginalize(s, i) for i in range(len(obs))],
            pplab.equality_sum(s, pattern),
            back,
        ))
    return out


def _plain_scheme(s) -> dict:
    return {
        "prescription": s.prescription,
        "weights": s.weights,
        "observables": [(o.subsystem, o.label, [float(v) for v in o.axis]) for o in s.observables],
        "entries": dict(s.entries),
    }


def summarize_scheme(x: dict, raw: list) -> list:
    return [
        {
            "entries": dict(s.entries),
            "negativity": neg,
            "marginals": [dict(m.entries) for m in margs],
            "equality_sum": eq,
            "original": _plain_scheme(s),
            "round_trip": _plain_scheme(back),
        }
        for s, neg, margs, eq, back in raw
    ]


def verify_scheme(x: dict, out: list) -> None:
    ref.expect("scheme.ladder", len(out) == len(LADDER), "one bundle per ladder table expected")
    for (sizes, prescription, pattern), axes, bundle in zip(LADDER, x["axes"], out):
        rho = ref.qubit_state(x["p"]) if len(sizes) == 1 else x["rho2"]
        subs = _subsystems(sizes)
        groups = [[ref.sigma(ax) for ax, s in zip(axes, subs) if s == g] for g in range(len(sizes))]
        weights = x["weights"] if prescription == "convex" else None
        moments = ref.scheme_moments(rho, groups, prescription, weights)
        name = f"scheme[{prescription} {'+'.join(map(str, sizes))}]"
        ref.check_scheme_bundle(name, bundle, moments, pattern)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

GAME_STEPS = 33
DISCORD_APERTURES = 5


def _write_state(path: Path, rho: np.ndarray) -> None:
    path.write_text(json.dumps({"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()}))


def draw_cli(rng: np.random.Generator, work: Path) -> dict:
    rho2 = two_qubit_state(rng)
    state_file = work / "state.json"
    _write_state(state_file, rho2)
    x = {
        "rho2": rho2,
        "pp": ([unit(rng), unit(rng)], [int(s) for s in rng.choice([1, -1], size=2)]),
        "weak": (unit(rng), bloch(rng), bloch(rng)),
        "scheme_axes": [unit(rng) for _ in range(3)],
        "chsh": (float(rng.uniform(-1.0 / 3.0, 1.0)), [unit(rng) for _ in range(4)]),
        "coherence": (bloch(rng), unit(rng), unit(rng)),
        "boolean": (unit(rng), unit(rng)),
        "distributivity": (bloch(rng), unit(rng), unit(rng), unit(rng)),
        "discord": (float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.1, 0.35))),
        "pointer": (bloch(rng), unit(rng), unit(rng), float(rng.uniform(0.5, 1.0)),
                    float(rng.uniform(0.02, 0.03))),
        "game": (bloch(rng, 1.0), unit(rng), float(rng.uniform(0.5, 2.0)),
                 float(rng.uniform(1.0, 2.0 * math.pi)), float(rng.uniform(0.0, math.pi))),
    }
    (u1, u2), (s1, s2) = x["pp"]
    n, p, q = x["weak"]
    eta, (A1, A2, B1, B2) = x["chsh"]
    cp, c1, c2 = x["coherence"]
    b1, b2 = x["boolean"]
    dp, d1, d2, d3 = x["distributivity"]
    start, step = x["discord"]
    pb, pa1, pa2, t, g = x["pointer"]
    gp, gaxis, omega, tmax, theta = x["game"]
    sign = {1: "+", -1: "-"}
    # Every value goes in one "--flag=value" word: argparse would read a
    # separate word starting with "-" (a negative component) as a flag.
    x["argv"] = {
        "pp_fixed": ["pp", "eig", "--axes=z+;x+"],
        "pp": ["pp", "eig", f"--axes={vec(u1)}:{sign[s1]};{vec(u2)}:{sign[s2]}"],
        "weak": ["weak", "value", f"--op-axis={vec(n)}", f"--pre-bloch={vec(p)}", f"--post-bloch={vec(q)}"],
        "scheme": ["scheme", "build", f"--state={state_file}",
                   "--observables=" + ";".join(f"{sub}:{vec(a)}" for sub, a in zip((0, 0, 1), x["scheme_axes"]))],
        "chsh": ["test", "chsh", f"--werner={eta!r}"]
                + [f"--{k}={vec(v)}" for k, v in zip(("A1", "A2", "B1", "B2"), (A1, A2, B1, B2))],
        "coherence": ["test", "coherence", f"--bloch={vec(cp)}", f"--a1={vec(c1)}", f"--a2={vec(c2)}"],
        "boolean": ["test", "boolean-indep", f"--a1={vec(b1)}", f"--a2={vec(b2)}"],
        "distributivity": ["test", "distributivity", f"--bloch={vec(dp)}",
                           f"--a1={vec(d1)}", f"--a2={vec(d2)}", f"--a3={vec(d3)}"],
        "discord": ["test", "discord", f"--state={state_file}",
                    f"--alpha-scan={start!r}:{start + (DISCORD_APERTURES - 1) * step!r}:{step!r}"],
        "pointer": ["pointer", "sim", f"--bloch={vec(pb)}", f"--projectors={vec(pa1)}:+;{vec(pa2)}:+",
                    "--post-bloch=0,0,0", f"--g={g!r}", f"--t={t!r}",
                    "--couplings=" + ",".join(repr(g * k / 3.0) for k in (1, 2, 3))],
        "game": ["game", "run", f"--bloch={vec(gp)}", f"--axis={vec(gaxis)}", f"--omega={omega!r}",
                 f"--t-max={tmax!r}", f"--t-steps={GAME_STEPS}", f"--theta={theta!r}"],
    }
    for name, argv in x["argv"].items():
        argv += ["--out", str(work / f"{name}.json")]
    return x


def run_cli(x: dict) -> dict:
    from pplab.cli import parse_and_dispatch

    return {name: parse_and_dispatch(argv) for name, argv in x["argv"].items()}


def summarize_cli(x: dict, raw: dict) -> dict:
    """Exit codes and the text each command wrote to its --out file."""
    out = {}
    for name, argv in x["argv"].items():
        path = Path(argv[argv.index("--out") + 1])
        out[name] = {"exit": raw[name], "text": path.read_text() if path.exists() else ""}
        if path.exists():
            path.unlink()
    return out


def verify_cli(x: dict, out: dict) -> None:
    doc = {}
    for name in x["argv"]:
        ref.expect(f"cli.{name}.exit", out[name]["exit"] == 0, f"exit code {out[name]['exit']}")
        try:
            doc[name] = ref.strict_json(out[name]["text"])
        except ValueError as exc:
            raise ref.CheckFailed(f"cli.{name}.json", str(exc)) from None

    ref.expect_close("cli.pp_fixed.min_eigenvalue", doc["pp_fixed"]["min_eigenvalue"], (1.0 - math.sqrt(2.0)) / 4.0)
    (u1, u2), (s1, s2) = x["pp"]
    k = s1 * s2 * float(u1 @ u2)
    ref.expect_close("cli.pp.min_eigenvalue", doc["pp"]["min_eigenvalue"], (1.0 + k - math.sqrt(2.0 + 2.0 * k)) / 4.0)

    n, p, q = x["weak"]
    rho1, rho2 = ref.qubit_state(p), ref.qubit_state(q)
    value = complex(np.trace(rho2 @ ref.sigma(n) @ rho1)) / float(np.real(np.trace(rho2 @ rho1)))
    ref.expect_close("cli.weak.value", complex(doc["weak"]["value_re"], doc["weak"]["value_im"]), value)

    groups = [[ref.sigma(a) for a in x["scheme_axes"][:2]], [ref.sigma(x["scheme_axes"][2])]]
    moments = ref.scheme_moments(x["rho2"], groups, "symmetrized")
    entries = {tuple(1 if ch == "+" else -1 for ch in key): v for key, v in doc["scheme"]["entries"].items()}
    ref.check_table("cli.scheme", entries, moments, [0, 1, 2])

    eta, (A1, A2, B1, B2) = x["chsh"]
    ref.check_report("cli.chsh", doc["chsh"], ref.chsh_value(-eta * np.eye(3), A1, A2, B1, B2))
    cp, c1, c2 = x["coherence"]
    ref.check_report("cli.coherence", doc["coherence"], ref.coherence_value(cp, c1, c2))
    ref.check_report("cli.boolean", doc["boolean"], ref.boolean_indep_value(*x["boolean"]))
    dp, d1, d2, d3 = x["distributivity"]
    ref.check_report("cli.distributivity", doc["distributivity"], ref.distributivity_value(ref.qubit_state(dp), d1, d2, d3))

    a, b, t = ref.correlations(x["rho2"])
    start, step = x["discord"]
    scan = doc["discord"]
    ref.expect("cli.discord.apertures", len(scan) == DISCORD_APERTURES, f"{len(scan)} reports")
    for i, rep in enumerate(scan):
        ref.expect_close("cli.discord.apertures", rep["inputs"]["alpha"], start + i * step)
        ref.check_report("cli.discord", rep, None)
        ref.check_discord_report(rep, a, b, t, rep["inputs"]["alpha"])

    # With the unbiased post-selection (post Bloch vector 0) the readout's
    # weak-coupling limit is the pseudo-probability Tr(rho Herm(p1 p2)).
    pb, pa1, pa2, _, _ = x["pointer"]
    pp = float(np.real(np.trace(ref.qubit_state(pb) @ ref.herm(ref.projector(pa1) @ ref.projector(pa2)))))
    ptr = doc["pointer"]
    ref.expect_close("cli.pointer.pseudo_probability", ptr["pseudo_probability"], pp)
    ref.expect_close("cli.pointer.ratio", ptr["ratio"], pp, ref.POINTER_TOL)
    ref.expect_close("cli.pointer.fit", ptr["proportionality"]["fitted_slope"], pp, ref.POINTER_TOL)

    gp, gaxis, omega, tmax, theta = x["game"]
    m = np.array([math.cos(theta), math.sin(theta), 0.0])
    w = np.array([-math.sin(theta), math.cos(theta), 0.0])
    traj = doc["game"]["trajectory"]
    ref.expect("cli.game.trajectory", len(traj) == GAME_STEPS, f"{len(traj)} points")
    for i, point in enumerate(traj):
        time = tmax * i / (GAME_STEPS - 1)
        ref.expect_close("cli.game.trajectory", point["time"], time)
        pt = ref.rotate(np.asarray(gp), gaxis, -omega * time)
        want = [0.25 * (1.0 + s1 * float(m @ pt) + s2 * float(w @ pt))
                for s1, s2 in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
        for got, exp in zip(point["scheme"], want):
            ref.expect_close("cli.game.trajectory", got, exp)
        ref.expect_close("cli.game.score", point["score"], 1.0 - min(want))


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    id: int  # mixed into the seed, so the workloads draw unrelated inputs
    modules: tuple[str, ...]  # imported during set-up
    draw: Callable
    run: Callable
    summarize: Callable
    verify: Callable


WORKLOADS = {
    "witness_battery": Workload(1, ("pplab",), draw_witness, run_witness, summarize_witness, verify_witness),
    "scheme_tables": Workload(2, ("pplab",), draw_scheme, run_scheme, summarize_scheme, verify_scheme),
    "cli_session": Workload(3, ("pplab", "pplab.cli"), draw_cli, run_cli, summarize_cli, verify_cli),
}
