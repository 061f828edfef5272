"""Command-line front-end: state loading, dispatch, JSON report emission.

Exit codes: 0 success, 1 invalid input, 2 numerical failure (post-selection
impossible, resource bound, non-convergence).  All angles are radians.
Reports are re-validated before emission: the statistic must be recoverable
from the serialized weak terms.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    FactorizationUndefinedError,
    InvalidInputError,
    PostSelectionImpossibleError,
    ResourceLimitError,
)
from .game import evaluate_strategy
from .geometry import (
    bloch_state,
    make_entanglement_geometry,
    pauli_vector,
    qubit_projector,
    werner_state,
)
from .operator_core import DensityMatrix, resolve_tolerance
from .pointer import PointerConfig, proportionality_check, simulate_pointers
from .pseudoprojection import convex_pp, min_eigen_certificate, symmetrized_pp, unit_pp
from .scheme import ObservableSpec, build_scheme, negativity_report, scheme_to_json
from .weak import weak_value
from .witnesses import (
    TestReport,
    boolean_state_dep_test,
    boolean_state_indep_test,
    chsh_test,
    coherence_test,
    discord_test,
    distributivity_test,
    linear_ent_test,
    nonlinear_ent_test,
    statistic_from_terms,
)

__all__ = ["parse_and_dispatch", "load_state", "main"]

REPORT_CONSISTENCY_TOL = 1e-10
# Largest --alpha-scan grid and --t-steps count; each point is a full report.
MAX_ALPHA_POINTS = 1000
MAX_T_STEPS = 10000

_NAMED_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the package's error type."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidInputError(f"{message}\n{self.format_usage()}".rstrip())


def _floats(text: str, n: int, name: str) -> list[float]:
    cleaned = text.replace("−", "-")
    try:
        parts = [float(p) for p in cleaned.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"{name} must be {n} comma-separated numbers: {exc}") from None
    if len(parts) != n:
        raise InvalidInputError(f"{name} must have {n} components, got {len(parts)}")
    return parts


def _float(text: str, name: str) -> float:
    try:
        return float(text.replace("−", "-"))
    except ValueError as exc:
        raise InvalidInputError(f"{name} must be a number: {exc}") from None


def load_state(args: argparse.Namespace) -> DensityMatrix:
    """Build the input state from exactly one of --werner/--bloch/--state."""
    sources = [s for s in ("werner", "bloch", "state") if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise InvalidInputError(
            "exactly one state source is required: --werner ETA, --bloch X,Y,Z or --state FILE"
        )
    if args.werner is not None:
        return werner_state(_float(args.werner, "--werner"))
    if args.bloch is not None:
        return bloch_state(_floats(args.bloch, 3, "--bloch"))
    return _state_from_file(args.state)


def _state_from_file(path: str) -> DensityMatrix:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read state file {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"state file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise InvalidInputError('state file must be JSON {"dim": n, "re": [[...]], "im": [[...]]}')
    dim = data["dim"]
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidInputError(
            f"state file matrices must be {dim}x{dim} to match dim, got {re.shape} and {im.shape}"
        )
    return DensityMatrix(re + 1j * im)


def _parse_projector_token(token: str) -> object:
    """'z', 'x-', 'z+' or '0,0,1' / '0,0,1:-' to a qubit projector."""
    token = token.strip()
    if not token:
        raise InvalidInputError("empty projector token")
    outcome = +1
    if "," in token:
        axis_text = token
        if ":" in token:
            axis_text, _, sign = token.rpartition(":")
            if sign not in ("+", "-"):
                raise InvalidInputError(f"projector sign must be '+' or '-', got {sign!r}")
            outcome = +1 if sign == "+" else -1
        return qubit_projector(_floats(axis_text, 3, "projector axis"), outcome)
    name = token
    if token[-1] in "+-":
        outcome = +1 if token[-1] == "+" else -1
        name = token[:-1]
    if name not in _NAMED_AXES:
        raise InvalidInputError(f"unknown projector token {token!r}; use x/y/z with optional sign")
    return qubit_projector(_NAMED_AXES[name], outcome)


def _parse_observable_token(token: str) -> ObservableSpec:
    """'SUB:x' or 'SUB:ax,ay,az' to an observable."""
    token = token.strip()
    sub_text, sep, axis_text = token.partition(":")
    if not sep:
        raise InvalidInputError(f"observable token {token!r} must look like SUBSYSTEM:AXIS")
    try:
        subsystem = int(sub_text)
    except ValueError:
        raise InvalidInputError(f"subsystem index must be an integer, got {sub_text!r}") from None
    if axis_text in _NAMED_AXES:
        return ObservableSpec(subsystem, axis=_NAMED_AXES[axis_text])
    return ObservableSpec(subsystem, axis=_floats(axis_text, 3, "observable axis"))


def _axis_arg(args: argparse.Namespace, name: str, default: tuple[float, float, float]) -> list[float]:
    raw = getattr(args, name, None)
    if raw is None:
        return list(default)
    return _floats(raw, 3, f"--{name}")


def _report_payload(report: TestReport) -> dict[str, object]:
    payload = report.to_json_dict()
    recomputed = statistic_from_terms(payload["weak_terms"], report.statistic_rule)
    if abs(recomputed - report.statistic) > REPORT_CONSISTENCY_TOL:
        raise ConvergenceError(
            f"report self-check failed: statistic {report.statistic} vs"
            f" weak-term recombination {recomputed}"
        )
    return payload


def _alpha_grid(text: str) -> list[float]:
    parts = text.replace("−", "-").split(":")
    if len(parts) != 3:
        raise InvalidInputError("--alpha-scan must be START:STOP:STEP")
    start, stop, step = (_float(p, "--alpha-scan") for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InvalidInputError("--alpha-scan START, STOP and STEP must be finite")
    if step <= 0:
        raise InvalidInputError(f"--alpha-scan step must be positive, got {step}")
    if stop < start:
        raise InvalidInputError("--alpha-scan stop must be at least start")
    # The loop below keeps floor((stop - start) / step + 1e-9) + 1 points.
    if (stop - start) / step + 1e-9 >= MAX_ALPHA_POINTS:
        raise ResourceLimitError(
            f"--alpha-scan grid exceeds the cap of {MAX_ALPHA_POINTS} apertures"
        )
    grid = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + step * 1e-9:
            break
        grid.append(value)
        k += 1
    return grid


def _alpha_values(args: argparse.Namespace, default: float) -> tuple[list[float], bool]:
    """(values, is_scan); --alpha and --alpha-scan are mutually exclusive."""
    if args.alpha is not None and args.alpha_scan is not None:
        raise InvalidInputError("give either --alpha or --alpha-scan, not both")
    if args.alpha_scan is not None:
        return _alpha_grid(args.alpha_scan), True
    if args.alpha is not None:
        return [_float(args.alpha, "--alpha")], False
    return [default], False


_ALPHA_DEFAULTS = {
    "ent-linear-1": 2.0 * math.pi / 3.0,
    "ent-linear-2": math.acos(-7.0 / 9.0),
    "ent-nl-1": math.pi / 2.0,
    "ent-nl-2": math.acos(-1.0 / 3.0),
    "ent-nl-3": math.acos(-79.0 / 81.0),
    "discord": 3.0 * math.pi / 4.0,
}


def _run_test(args: argparse.Namespace) -> object:
    name = args.test_name
    if name == "boolean-indep":
        a1 = _axis_arg(args, "a1", (0.0, 0.0, 1.0))
        a2 = _axis_arg(args, "a2", (1.0, 0.0, 0.0))
        return _report_payload(boolean_state_indep_test(a1, a2))

    state = load_state(args)
    if name == "coherence":
        a1 = _axis_arg(args, "a1", (0.0, 0.0, 1.0))
        a2 = _axis_arg(args, "a2", (1.0, 0.0, 0.0))
        return _report_payload(coherence_test(state, a1, a2))
    if name == "boolean-dep":
        a1 = _axis_arg(args, "a1", (0.0, 0.0, 1.0))
        a2 = _axis_arg(args, "a2", (1.0, 0.0, 0.0))
        return _report_payload(boolean_state_dep_test(state, a1, a2))
    if name == "distributivity":
        a1 = _axis_arg(args, "a1", (0.0, 0.0, 1.0))
        a2 = _axis_arg(args, "a2", (1.0, 0.0, 0.0))
        a3 = _axis_arg(args, "a3", (1.0, 0.0, 0.0))
        return _report_payload(distributivity_test(state, a1, a2, a3))
    if name == "chsh":
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        A1 = ObservableSpec(0, axis=_axis_arg(args, "A1", (1.0, 0.0, 0.0)), label="A1")
        A2 = ObservableSpec(0, axis=_axis_arg(args, "A2", (0.0, 1.0, 0.0)), label="A2")
        B1 = ObservableSpec(1, axis=_axis_arg(args, "B1", (inv_sqrt2, inv_sqrt2, 0.0)), label="B1")
        B2 = ObservableSpec(1, axis=_axis_arg(args, "B2", (inv_sqrt2, -inv_sqrt2, 0.0)), label="B2")
        return _report_payload(chsh_test(state, A1, A2, B1, B2))

    alphas, is_scan = _alpha_values(args, _ALPHA_DEFAULTS[name])
    reports = []
    for alpha in alphas:
        if name == "discord":
            report = discord_test(state, alpha)
        else:
            geom = make_entanglement_geometry(alpha)
            if name.startswith("ent-linear"):
                variant = "I" if name.endswith("1") else "II"
                report = linear_ent_test(state, geom, variant)
            else:
                variant = {"1": "I", "2": "II", "3": "III"}[name[-1]]
                report = nonlinear_ent_test(state, geom, variant)
        reports.append(_report_payload(report))
    return reports if is_scan else reports[0]


def _run_scheme_build(args: argparse.Namespace) -> object:
    state = load_state(args)
    default_obs = "0:z;0:x" if state.dim == 2 else "0:z;1:z"
    obs_text = args.observables if args.observables is not None else default_obs
    observables = [_parse_observable_token(t) for t in obs_text.split(";") if t.strip()]
    weights = None
    if args.weights is not None:
        weights = [_float(w, "--weights") for w in args.weights.split(",")]
    sch = build_scheme(state, observables, args.prescription, weights)
    payload = scheme_to_json(sch)
    payload["negativity"] = negativity_report(sch)
    return payload


def _run_pp_eig(args: argparse.Namespace) -> object:
    factors = [_parse_projector_token(t) for t in args.axes.split(";") if t.strip()]
    if args.prescription == "unit":
        pp = unit_pp(factors)
    elif args.prescription == "symmetrized":
        pp = symmetrized_pp(factors)
    else:
        weights = None
        if args.weights is not None:
            weights = [_float(w, "--weights") for w in args.weights.split(",")]
        pp = convex_pp(factors, weights)
    value, witness = min_eigen_certificate(pp)
    return {
        "prescription": pp.prescription,
        "factors": len(pp.factors),
        "min_eigenvalue": value,
        "witness_re": np.real(witness).tolist(),
        "witness_im": np.imag(witness).tolist(),
        "matrix_re": np.real(pp.matrix).tolist(),
        "matrix_im": np.imag(pp.matrix).tolist(),
    }


def _run_weak_value(args: argparse.Namespace) -> object:
    op_axis = _floats(args.op_axis, 3, "--op-axis")
    op = pauli_vector(op_axis)
    pre = bloch_state(_floats(args.pre_bloch, 3, "--pre-bloch"))
    post = bloch_state(_floats(args.post_bloch, 3, "--post-bloch"))
    report = weak_value(op, pre, post, operator_label="pauli-axis")
    return {
        "operator_label": report.operator_label,
        "value_re": float(np.real(report.value)),
        "value_im": float(np.imag(report.value)),
        "spectrum_bounds": [report.spectrum_bounds[0], report.spectrum_bounds[1]],
        "anomalous": report.anomalous,
        "overlap": report.overlap,
    }


def _run_pointer_sim(args: argparse.Namespace) -> object:
    state = load_state(args)
    projectors = [_parse_projector_token(t) for t in args.projectors.split(";") if t.strip()]
    post = bloch_state(_floats(args.post_bloch, 3, "--post-bloch"))
    cfg = PointerConfig(
        g=_float(args.g, "--g"),
        t=_float(args.t, "--t"),
        sigma=_float(args.sigma, "--sigma"),
        grid_points=args.grid_points,
        grid_halfwidth=_float(args.grid_halfwidth, "--grid-halfwidth"),
    )
    result = simulate_pointers(state, projectors, post, cfg)
    payload: dict[str, object] = {
        "correlation": result.correlation,
        "pseudo_probability": result.pseudo_probability,
        "ratio": result.ratio,
        "convergence_estimate": result.convergence_estimate,
    }
    if args.couplings is not None:
        couplings = [_float(g, "--couplings") for g in args.couplings.split(",")]
        payload["proportionality"] = proportionality_check(state, projectors, post, cfg, couplings)
    return payload


def _run_game(args: argparse.Namespace) -> object:
    bloch = _floats(args.bloch, 3, "--bloch")
    axis = _floats(args.axis, 3, "--axis")
    omega = _float(args.omega, "--omega")
    t_max = _float(args.t_max, "--t-max")
    steps = args.t_steps
    if steps < 1:
        raise InvalidInputError(f"--t-steps must be at least 1, got {steps}")
    if steps > MAX_T_STEPS:
        raise ResourceLimitError(f"--t-steps {steps} exceeds the cap of {MAX_T_STEPS}")
    if t_max < 0:
        raise InvalidInputError(f"--t-max must be non-negative, got {t_max}")
    theta = _float(args.theta, "--theta")
    t_grid = np.linspace(0.0, t_max, steps)
    report = evaluate_strategy(bloch, axis, omega, t_grid, theta)
    return {
        "trajectory": [
            {"time": g.time, "scheme": list(g.scheme4), "score": g.score}
            for g in report.trajectory
        ],
        "best_time": report.best_time,
        "best_score": report.best_score,
        "omega_L": omega,
        "theta": theta,
    }


def _add_state_flags(parser: _Parser) -> None:
    parser.add_argument("--werner", help="Werner mixing parameter eta in [-1/3, 1]")
    parser.add_argument("--bloch", help="qubit Bloch vector X,Y,Z")
    parser.add_argument("--state", help='JSON state file {"dim", "re", "im"}')


def _add_axis_flags(parser: _Parser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument(f"--{name}", help=f"axis {name} as a unit vector X,Y,Z")


def _output_parent() -> _Parser:
    parent = _Parser(add_help=False)
    parent.add_argument("--out", help="write the JSON report to this path instead of stdout")
    parent.add_argument("--json-indent", type=int, default=2, help="indentation of emitted JSON")
    return parent


# Built once per process: parse_args keeps no state on the parser, and the
# tree of 23 subparsers costs more to build than a whole command to parse.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="pplab", description="pseudo-probability laboratory")
    out = _output_parent()
    commands = parser.add_subparsers(dest="command", required=True)

    scheme = commands.add_parser("scheme", help="pseudo-probability schemes")
    scheme_actions = scheme.add_subparsers(dest="action", required=True)
    scheme_build = scheme_actions.add_parser("build", parents=[out], help="build a scheme for a state")
    _add_state_flags(scheme_build)
    scheme_build.add_argument("--observables", help="semicolon list of SUBSYSTEM:AXIS tokens")
    scheme_build.add_argument(
        "--prescription", choices=("unit", "symmetrized", "convex"), default="symmetrized"
    )
    scheme_build.add_argument("--weights", help="comma list of convex weights")

    pp = commands.add_parser("pp", help="pseudo-projection operators")
    pp_actions = pp.add_subparsers(dest="action", required=True)
    pp_eig = pp_actions.add_parser("eig", parents=[out], help="spectral certificate of a pseudo-projection")
    pp_eig.add_argument("--axes", required=True, help="semicolon list of projector tokens, e.g. 'z+;x+'")
    pp_eig.add_argument(
        "--prescription", choices=("unit", "symmetrized", "convex"), default="unit"
    )
    pp_eig.add_argument("--weights", help="comma list of convex weights")

    weak = commands.add_parser("weak", help="weak values")
    weak_actions = weak.add_subparsers(dest="action", required=True)
    weak_val = weak_actions.add_parser("value", parents=[out], help="weak value of a Pauli-axis observable")
    weak_val.add_argument("--op-axis", required=True, help="observable axis X,Y,Z")
    weak_val.add_argument("--pre-bloch", required=True, help="pre-selection Bloch vector X,Y,Z")
    weak_val.add_argument("--post-bloch", required=True, help="post-selection Bloch vector X,Y,Z")

    test = commands.add_parser("test", help="nonclassicality tests")
    test_actions = test.add_subparsers(dest="test_name", required=True)
    single_axis_tests = {
        "coherence": ("a1", "a2"),
        "boolean-dep": ("a1", "a2"),
        "boolean-indep": ("a1", "a2"),
        "distributivity": ("a1", "a2", "a3"),
    }
    for name, axes in single_axis_tests.items():
        t = test_actions.add_parser(name, parents=[out])
        if name != "boolean-indep":
            _add_state_flags(t)
        _add_axis_flags(t, axes)
    chsh = test_actions.add_parser("chsh", parents=[out])
    _add_state_flags(chsh)
    _add_axis_flags(chsh, ("A1", "A2", "B1", "B2"))
    for name in ("ent-linear-1", "ent-linear-2", "ent-nl-1", "ent-nl-2", "ent-nl-3", "discord"):
        t = test_actions.add_parser(name, parents=[out])
        _add_state_flags(t)
        t.add_argument("--alpha", help="doublet aperture in radians")
        t.add_argument("--alpha-scan", help="aperture grid START:STOP:STEP (radians)")

    pointer = commands.add_parser("pointer", help="Gaussian-pointer simulation")
    pointer_actions = pointer.add_subparsers(dest="action", required=True)
    pointer_sim = pointer_actions.add_parser("sim", parents=[out])
    _add_state_flags(pointer_sim)
    pointer_sim.add_argument("--projectors", default="z+;x+", help="semicolon list of projector tokens")
    pointer_sim.add_argument("--post-bloch", default="0,0,0", help="post-selection Bloch vector")
    pointer_sim.add_argument("--g", default="0.1", help="coupling constant")
    pointer_sim.add_argument("--t", default="0.5", help="interaction duration")
    pointer_sim.add_argument("--sigma", default="1.0", help="pointer width")
    pointer_sim.add_argument("--grid-points", type=int, default=64)
    pointer_sim.add_argument("--grid-halfwidth", default="7.0")
    pointer_sim.add_argument("--couplings", help="comma list of g values for a proportionality fit")

    game = commands.add_parser("game", help="pseudo-probability game")
    game_actions = game.add_subparsers(dest="action", required=True)
    game_run = game_actions.add_parser("run", parents=[out])
    game_run.add_argument("--bloch", required=True, help="initial Bloch vector X,Y,Z")
    game_run.add_argument("--axis", default="0,0,1", help="Hamiltonian axis X,Y,Z")
    game_run.add_argument("--omega", default="1.0", help="Larmor frequency (radians/time)")
    game_run.add_argument("--t-max", default=str(2.0 * math.pi), help="end of the time window")
    game_run.add_argument("--t-steps", type=int, default=129, help="number of grid times")
    game_run.add_argument("--theta", default="0.0", help="observable-pair rotation angle")

    return parser


def _dispatch(args: argparse.Namespace) -> object:
    if args.command == "scheme":
        return _run_scheme_build(args)
    if args.command == "pp":
        return _run_pp_eig(args)
    if args.command == "weak":
        return _run_weak_value(args)
    if args.command == "test":
        return _run_test(args)
    if args.command == "pointer":
        return _run_pointer_sim(args)
    if args.command == "game":
        return _run_game(args)
    raise InvalidInputError(f"unknown command {args.command!r}")


def _emit(payload: object, args: argparse.Namespace) -> None:
    indent = args.json_indent if args.json_indent and args.json_indent > 0 else None
    text = json.dumps(payload, indent=indent)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Verdict tolerance from PPLAB_TOL is validated up front so a bad
        # value fails fast with exit 1.
        resolve_tolerance()
        payload = _dispatch(args)
        _emit(payload, args)
        return 0
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        PostSelectionImpossibleError,
        ResourceLimitError,
        ConvergenceError,
        FactorizationUndefinedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())
