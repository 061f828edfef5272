"""Command-line front-end: state loading, dispatch, JSON report emission.

Exit codes: 0 success, 1 invalid input (InvalidInputError), 2 every other
PPLabError, a numerical failure (post-selection impossible, resource bound,
non-convergence).  All angles are radians.
Reports are re-validated before emission: the statistic must be recoverable
from the serialized weak terms.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ConvergenceError, InvalidInputError, PPLabError, ResourceLimitError
from .game import evaluate_strategy
from .geometry import (
    bloch_state,
    make_entanglement_geometry,
    pauli_vector,
    qubit_projector,
    werner_state,
)
from .operator_core import SPECTRAL_TOL, DensityMatrix, _complex_parts, _real_array, resolve_tolerance
from .pointer import PointerConfig, _simulate_and_fit
from .pseudoprojection import PRESCRIPTIONS, _prescription_weights, convex_pp, min_eigen_certificate, symmetrized_pp, unit_pp
from .scheme import _SIGN, ObservableSpec, build_scheme, negativity_report, scheme_to_json
from .weak import weak_value
from .witnesses import (
    _APERTURE_WINDOWS,
    TestReport,
    _discord_scan,
    boolean_state_dep_test,
    boolean_state_indep_test,
    chsh_test,
    coherence_test,
    distributivity_test,
    linear_ent_test,
    nonlinear_ent_test,
    statistic_from_terms,
)

__all__ = ["parse_and_dispatch", "load_state", "main"]

# Largest --alpha-scan grid and --t-steps count; each point is a full report.
MAX_ALPHA_POINTS = 1000
MAX_T_STEPS = 10000
# Largest --json-indent: a report's size grows linearly with it.
MAX_JSON_INDENT = 16

_NAMED_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the package's error type."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidInputError(f"{message}\n{self.format_usage()}".rstrip())


# Flag converters, run by argparse.  A malformed value raises
# ArgumentTypeError, reported as "argument --FLAG: ..." (exit 1); a value the
# library refuses raises the library's own error.
def _number(text: str) -> float:
    """A number, accepting the typographic minus."""
    try:
        return float(text.replace("−", "-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _numbers(text: str) -> list[float]:
    return [_number(p) for p in text.split(",")]


def _vector(text: str) -> list[float]:
    parts = _numbers(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r} must be 3 comma-separated numbers, got {len(parts)}")
    return parts


def load_state(args: argparse.Namespace) -> DensityMatrix:
    """Build the input state from exactly one of --werner/--bloch/--state."""
    sources = [s for s in ("werner", "bloch", "state") if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise InvalidInputError(
            "exactly one state source is required: --werner ETA, --bloch X,Y,Z or --state FILE"
        )
    if args.werner is not None:
        return werner_state(args.werner)
    if args.bloch is not None:
        return bloch_state(args.bloch)
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
    try:
        re = _real_array(data["re"])
        im = _real_array(data.get("im", np.zeros_like(re)))
    except (TypeError, ValueError):
        raise InvalidInputError(f"state file {path}: re and im must be real numeric matrices") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidInputError(
            f"state file matrices must be {dim}x{dim} to match dim, got {re.shape} and {im.shape}"
        )
    return DensityMatrix(_complex_parts(re, im))


def _projector(token: str) -> object:
    """'z', 'x-', 'z+' or '0,0,1' / '0,0,1:-' to a qubit projector."""
    if "," in token:
        axis_text, _, sign = token.rpartition(":") if ":" in token else (token, "", "+")
        if sign not in _SIGN:
            raise argparse.ArgumentTypeError(f"projector sign must be '+' or '-', got {sign!r}")
        return qubit_projector(_vector(axis_text), _SIGN[sign])
    name, sign = (token[:-1], token[-1]) if token[-1] in _SIGN else (token, "+")
    if name not in _NAMED_AXES:
        raise argparse.ArgumentTypeError(f"unknown projector token {token!r}; use x/y/z with optional sign")
    return qubit_projector(_NAMED_AXES[name], _SIGN[sign])


def _observable(token: str) -> ObservableSpec:
    """'SUB:x' or 'SUB:ax,ay,az' to an observable."""
    sub_text, sep, axis_text = token.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"observable token {token!r} must look like SUBSYSTEM:AXIS")
    try:
        subsystem = int(sub_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"subsystem index must be an integer, got {sub_text!r}") from None
    return ObservableSpec(subsystem, axis=_NAMED_AXES.get(axis_text) or _vector(axis_text))


def _projectors(text: str) -> list[object]:
    return [_projector(t.strip()) for t in text.split(";") if t.strip()]


def _observables(text: str) -> list[ObservableSpec]:
    return [_observable(t.strip()) for t in text.split(";") if t.strip()]


def _report_payload(report: TestReport) -> dict[str, object]:
    payload = report.to_json_dict()
    recomputed = statistic_from_terms(payload["weak_terms"], report.statistic_rule)
    if abs(recomputed - report.statistic) > SPECTRAL_TOL:
        raise ConvergenceError(
            f"report self-check failed: statistic {report.statistic} vs"
            f" weak-term recombination {recomputed}"
        )
    return payload


def _alpha_grid(text: str) -> list[float]:
    """START:STOP:STEP to the apertures START + k STEP up to STOP."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r} must be START:STOP:STEP")
    start, stop, step = map(_number, parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InvalidInputError("--alpha-scan START, STOP and STEP must be finite")
    if step <= 0:
        raise InvalidInputError(f"--alpha-scan step must be positive, got {step}")
    if stop < start:
        raise InvalidInputError("--alpha-scan stop must be at least start")
    # Tested before flooring: a subnormal step makes the ratio inf.
    ratio = (stop - start) / step + 1e-9
    if ratio >= MAX_ALPHA_POINTS:
        raise ResourceLimitError(
            f"--alpha-scan grid exceeds the cap of {MAX_ALPHA_POINTS} apertures"
        )
    return [start + k * step for k in range(math.floor(ratio) + 1)]


def _chsh_on_axes(state: DensityMatrix, a1: object, a2: object, b1: object, b2: object) -> TestReport:
    """chsh_test with A1, A2 on qubit 0 and B1, B2 on qubit 1."""
    return chsh_test(
        state,
        ObservableSpec(0, axis=a1, label="A1"),
        ObservableSpec(0, axis=a2, label="A2"),
        ObservableSpec(1, axis=b1, label="B1"),
        ObservableSpec(1, axis=b2, label="B2"),
    )


def _on_geometry(test: Callable[..., TestReport], variant: str) -> Callable[[DensityMatrix, list[float]], list[TestReport]]:
    """A scan of `test` with one geometry per aperture."""
    return lambda state, alphas: [test(state, make_entanglement_geometry(alpha), variant) for alpha in alphas]


_X, _Y, _Z = _NAMED_AXES["x"], _NAMED_AXES["y"], _NAMED_AXES["z"]
_DIAGONAL = 1.0 / math.sqrt(2.0)
# Test name -> (witness, its axis flags with their defaults).  Every witness
# takes the state first, except boolean-indep, which reads none.  The
# defaults are tuples: the cached parser shares them across calls.
_AXIS_TESTS: dict[str, tuple[Callable[..., TestReport], dict[str, tuple[float, float, float]]]] = {
    "coherence": (coherence_test, {"a1": _Z, "a2": _X}),
    "boolean-dep": (boolean_state_dep_test, {"a1": _Z, "a2": _X}),
    "boolean-indep": (boolean_state_indep_test, {"a1": _Z, "a2": _X}),
    "distributivity": (distributivity_test, {"a1": _Z, "a2": _X, "a3": _X}),
    "chsh": (
        _chsh_on_axes,
        {"A1": _X, "A2": _Y, "B1": (_DIAGONAL, _DIAGONAL, 0.0), "B2": (_DIAGONAL, -_DIAGONAL, 0.0)},
    ),
}
# Test name -> (scan of (state, apertures) to one report per aperture, default
# aperture).  The default is the top of the test's validity window; discord has
# no window.
_APERTURE_TESTS: dict[str, tuple[Callable[[DensityMatrix, list[float]], list[TestReport]], float]] = {
    "ent-linear-1": (_on_geometry(linear_ent_test, "I"), _APERTURE_WINDOWS["linear-entanglement-I"]),
    "ent-linear-2": (_on_geometry(linear_ent_test, "II"), _APERTURE_WINDOWS["linear-entanglement-II"]),
    "ent-nl-1": (_on_geometry(nonlinear_ent_test, "I"), _APERTURE_WINDOWS["nonlinear-entanglement-I"]),
    "ent-nl-2": (_on_geometry(nonlinear_ent_test, "II"), _APERTURE_WINDOWS["nonlinear-entanglement-II"]),
    "ent-nl-3": (_on_geometry(nonlinear_ent_test, "III"), _APERTURE_WINDOWS["nonlinear-entanglement-III"]),
    "discord": (_discord_scan, 3.0 * math.pi / 4.0),
}


def _run_axis_test(witness: Callable[..., TestReport], flags: tuple[str, ...], stateful: bool, args: argparse.Namespace) -> object:
    state = (load_state(args),) if stateful else ()
    return _report_payload(witness(*state, *(getattr(args, f) for f in flags)))


def _run_aperture_test(scan: Callable[[DensityMatrix, list[float]], list[TestReport]], args: argparse.Namespace) -> object:
    state = load_state(args)
    if args.alpha_scan is None:
        return _report_payload(scan(state, [args.alpha])[0])
    return [_report_payload(report) for report in scan(state, args.alpha_scan)]


# --observables when not given: two on one qubit, or one on each of two.
_QUBIT_OBSERVABLES = (ObservableSpec(0, axis=_Z), ObservableSpec(0, axis=_X))
_PAIR_OBSERVABLES = (ObservableSpec(0, axis=_Z), ObservableSpec(1, axis=_Z))


def _run_scheme_build(args: argparse.Namespace) -> object:
    state = load_state(args)
    observables = args.observables
    if observables is None:
        observables = _QUBIT_OBSERVABLES if state.dim == 2 else _PAIR_OBSERVABLES
    sch = build_scheme(state, observables, args.prescription, args.weights)
    payload = scheme_to_json(sch)
    payload["negativity"] = negativity_report(sch)
    return payload


def _run_pp_eig(args: argparse.Namespace) -> object:
    weights = _prescription_weights(args.prescription, [len(args.axes)], args.weights)
    build = {"unit": unit_pp, "symmetrized": symmetrized_pp, "convex": lambda axes: convex_pp(axes, weights)}
    pp = build[args.prescription](args.axes)
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
    op = pauli_vector(args.op_axis)
    pre, post = bloch_state(args.pre_bloch), bloch_state(args.post_bloch)
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
    post = bloch_state(args.post_bloch)
    cfg = PointerConfig(args.g, args.t, args.sigma)
    result, fit = _simulate_and_fit(state, args.projectors, post, cfg, args.couplings)
    payload = dataclasses.asdict(result)
    if fit is not None:
        payload["proportionality"] = fit
    return payload


def _run_game(args: argparse.Namespace) -> object:
    steps = args.t_steps
    if steps < 1:
        raise InvalidInputError(f"--t-steps must be at least 1, got {steps}")
    if steps > MAX_T_STEPS:
        raise ResourceLimitError(f"--t-steps {steps} exceeds the cap of {MAX_T_STEPS}")
    if args.t_max < 0:
        raise InvalidInputError(f"--t-max must be non-negative, got {args.t_max}")
    if not math.isfinite(args.t_max):
        raise InvalidInputError(f"--t-max must be finite, got {args.t_max}")
    t_grid = np.linspace(0.0, args.t_max, steps)
    report = evaluate_strategy(args.bloch, args.axis, args.omega, t_grid, args.theta)
    return {
        "trajectory": [
            {"time": g.time, "scheme": list(g.scheme4), "score": g.score}
            for g in report.trajectory
        ],
        "best_time": report.best_time,
        "best_score": report.best_score,
        "omega_L": args.omega,
        "theta": args.theta,
    }


def _add_state_flags(parser: _Parser) -> None:
    parser.add_argument("--werner", type=_number, help="Werner mixing parameter eta in [-1/3, 1]")
    parser.add_argument("--bloch", type=_vector, help="qubit Bloch vector X,Y,Z")
    parser.add_argument("--state", help='JSON state file {"dim", "re", "im"}')


def _add_axis_flags(parser: _Parser, axes: dict[str, tuple[float, float, float]]) -> None:
    for name, default in axes.items():
        parser.add_argument(f"--{name}", type=_vector, default=default, help=f"axis {name} as a unit vector X,Y,Z")


def _output_parent() -> _Parser:
    parent = _Parser(add_help=False)
    parent.add_argument("--out", help="write the JSON report to this path instead of stdout")
    parent.add_argument("--json-indent", type=int, default=2, help="indentation of emitted JSON")
    return parent


# Each command's help and the dest its sub-parsers set.
_COMMANDS = {
    "scheme": ("pseudo-probability schemes", "action"),
    "pp": ("pseudo-projection operators", "action"),
    "weak": ("weak values", "action"),
    "test": ("nonclassicality tests", "test_name"),
    "pointer": ("Gaussian-pointer simulation", "action"),
    "game": ("pseudo-probability game", "action"),
}


# Built once per process: parse_args keeps no state on the parser, and the
# tree of 23 subparsers costs more to build than a whole command to parse.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="pplab", description="pseudo-probability laboratory")
    out = _output_parent()
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {
        command: commands.add_parser(command, help=text).add_subparsers(dest=dest, required=True)
        for command, (text, dest) in _COMMANDS.items()
    }
    parser.leaves = {}  # (command, action) -> the leaf parser and the dests the tree sets above it

    def leaf(command: str, action: str, run: Callable[[argparse.Namespace], object], help: str | None = None) -> _Parser:
        # A choice given help=None is still listed in its command's help, so pass help only when there is some.
        sub = actions[command].add_parser(action, parents=[out], **({} if help is None else {"help": help}))
        sub.set_defaults(run=run)
        parser.leaves[command, action] = (sub, {"command": command, _COMMANDS[command][1]: action})
        return sub

    scheme_build = leaf("scheme", "build", _run_scheme_build, "build a scheme for a state")
    _add_state_flags(scheme_build)
    scheme_build.add_argument("--observables", type=_observables, help="semicolon list of SUBSYSTEM:AXIS tokens")
    scheme_build.add_argument(
        "--prescription", choices=PRESCRIPTIONS, default="symmetrized"
    )
    scheme_build.add_argument("--weights", type=_numbers, help="comma list of convex weights")

    pp_eig = leaf("pp", "eig", _run_pp_eig, "spectral certificate of a pseudo-projection")
    pp_eig.add_argument("--axes", type=_projectors, required=True, help="semicolon list of projector tokens, e.g. 'z+;x+'")
    pp_eig.add_argument(
        "--prescription", choices=PRESCRIPTIONS, default="unit"
    )
    pp_eig.add_argument("--weights", type=_numbers, help="comma list of convex weights")

    weak_val = leaf("weak", "value", _run_weak_value, "weak value of a Pauli-axis observable")
    weak_val.add_argument("--op-axis", type=_vector, required=True, help="observable axis X,Y,Z")
    weak_val.add_argument("--pre-bloch", type=_vector, required=True, help="pre-selection Bloch vector X,Y,Z")
    weak_val.add_argument("--post-bloch", type=_vector, required=True, help="post-selection Bloch vector X,Y,Z")

    for name, (witness, axes) in _AXIS_TESTS.items():
        stateful = name != "boolean-indep"
        t = leaf("test", name, functools.partial(_run_axis_test, witness, tuple(axes), stateful))
        if stateful:
            _add_state_flags(t)
        _add_axis_flags(t, axes)
    for name, (scan, default) in _APERTURE_TESTS.items():
        t = leaf("test", name, functools.partial(_run_aperture_test, scan))
        _add_state_flags(t)
        aperture = t.add_mutually_exclusive_group()
        aperture.add_argument("--alpha", type=_number, default=default, help="doublet aperture in radians")
        aperture.add_argument("--alpha-scan", type=_alpha_grid, help="aperture grid START:STOP:STEP (radians)")

    pointer_sim = leaf("pointer", "sim", _run_pointer_sim)
    _add_state_flags(pointer_sim)
    pointer_sim.add_argument("--projectors", type=_projectors, default="z+;x+", help="semicolon list of projector tokens")
    pointer_sim.add_argument("--post-bloch", type=_vector, default="0,0,0", help="post-selection Bloch vector")
    pointer_sim.add_argument("--g", type=_number, default="0.1", help="coupling constant")
    pointer_sim.add_argument("--t", type=_number, default="0.5", help="interaction duration")
    pointer_sim.add_argument("--sigma", type=_number, default="1.0", help="pointer width")
    pointer_sim.add_argument("--couplings", type=_numbers, help="comma list of g values for a proportionality fit")

    game_run = leaf("game", "run", _run_game)
    game_run.add_argument("--bloch", type=_vector, required=True, help="initial Bloch vector X,Y,Z")
    game_run.add_argument("--axis", type=_vector, default="0,0,1", help="Hamiltonian axis X,Y,Z")
    game_run.add_argument("--omega", type=_number, default="1.0", help="Larmor frequency (radians/time)")
    game_run.add_argument("--t-max", type=_number, default=str(2.0 * math.pi), help="end of the time window")
    game_run.add_argument("--t-steps", type=int, default=129, help="number of grid times")
    game_run.add_argument("--theta", type=_number, default="0.0", help="observable-pair rotation angle")

    return parser


# The pieces json.dumps writes a scalar with: encode_basestring_ascii for a
# string, float.__repr__ and int.__repr__ for numbers, and JavaScript's names
# for a non-finite float.
_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# JSON text of a scalar by its exact type.
_SCALAR_TEXT: dict[type, Callable[[object], str]] = {
    str: _encode_str,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps_indented(payload: object, indent: int) -> str:
    """json.dumps(payload, indent=indent) for indent > 0, with the same bytes and errors.

    One recursive function spells the exact types reports hold: dicts with str keys,
    lists, tuples, str, float, int, bool and None.  Any other value (a numpy scalar, a
    subclass, a key that is not a string) raises TypeError, and the whole payload goes
    to json.dumps instead.  The payloads hold no reference cycle, so none is looked for.
    """
    step = " " * indent
    spelling = _SCALAR_TEXT.get

    def text(x: Any, newline: str) -> str:
        kind = type(x)
        spell = spelling(kind)
        if spell is not None:
            return spell(x)
        inner = newline + step
        if kind is dict:  # _encode_str raises TypeError on a key that is not a string
            items = [f"{_encode_str(k)}: {text(v, inner)}" for k, v in x.items()]
            ends = "{}"
        elif kind is list or kind is tuple:
            items = [text(v, inner) for v in x]
            ends = "[]"
        else:
            raise TypeError(f"{kind.__name__} is not a report type")
        return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends

    try:
        return text(payload, "\n")
    except TypeError:
        return json.dumps(payload, indent=indent)


def _emit(payload: object, args: argparse.Namespace) -> None:
    indent = args.json_indent
    text = _dumps_indented(payload, indent) if indent > 0 else json.dumps(payload)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write --out {args.out}: {exc}") from None
    else:
        sys.stdout.write(text + "\n")


def _parse(argv: list[str]) -> argparse.Namespace:
    """The tree's namespace for argv, parsed by the leaf parser its first two words name.

    The tree itself parses any argv that names no leaf or leaves words unparsed, so every
    refusal keeps the tree's text: "unrecognized arguments" comes with the root usage.
    """
    leaf = _build_parser().leaves.get(tuple(argv[:2]))
    if leaf is not None:
        parser, dests = leaf
        args, unparsed = parser.parse_known_args(argv[2:], argparse.Namespace(**dests))
        if not unparsed:
            return args
    return _build_parser().parse_args(argv)


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.json_indent > MAX_JSON_INDENT:
            raise ResourceLimitError(f"--json-indent {args.json_indent} exceeds the cap of {MAX_JSON_INDENT}")
        # Verdict tolerance from PPLAB_TOL is validated up front so a bad
        # value fails fast with exit 1.
        resolve_tolerance()
        payload = args.run(args)
        _emit(payload, args)
        return 0
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    except PPLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvalidInputError) else 2


def main() -> None:
    sys.exit(parse_and_dispatch())
