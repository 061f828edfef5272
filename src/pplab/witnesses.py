"""Nonclassicality tests built on pseudo-probability schemes and weak values.

Every test reports the same structure: the pseudo-probabilities it used, a
weak-measurement decomposition of each one (Born factor times real weak
value), a scalar statistic, and a verdict against a tolerance.  Statistics
are reproducible from the serialized weak terms:

    sum rule:        statistic = sum(coefficient * pseudo_probability)
    max-group rule:  statistic = max over groups of the per-group sums

Each test also carries an independently derived Pauli-algebra closed form in
`extras`, so the constructive route is cross-checkable term by term.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    IDENTITY_2, PAULI_X, PAULI_Z, EntanglementGeometry, _aperture, _doublets, _norm, _pauli_coordinates, _sigmas,
    mub_partner, unit_vector,
)
from .operator_core import (
    Array, DensityMatrix, STRUCTURAL_TOL, _expectations, _finite, _integer, _kron, _outcome_projectors, _require_state,
    _sequence, resolve_tolerance,
)
from .pseudoprojection import _convex_weights, _nested, _ordered_moments, _ordered_products, _ordering_array, _ordering_sum
from .scheme import _MARK, ObservableSpec, _moments, _outcome_strings, _scheme_rows
from .weak import _Terms, _born_weak, _compile_terms

__all__ = [
    "WeakTerm",
    "TestReport",
    "statistic_from_terms",
    "coherence_test",
    "boolean_state_dep_test",
    "boolean_state_indep_test",
    "distributivity_test",
    "chsh_test",
    "linear_ent_test",
    "nonlinear_ent_test",
    "discord_test",
]

RULE_SUM = "sum"
RULE_MAX_GROUP = "max_group_sum"
VERDICT_NEGATIVE = "negative"
VERDICT_MAGNITUDE = "magnitude"
_NO_STATE = object()  # the state `_qubit_axes` gets from a single-qubit test that reads none

# Upper ends of the aperture windows (0, hi] inside which separable states
# keep each entanglement statistic non-negative, by report name.
_APERTURE_WINDOWS = {
    "linear-entanglement-I": 2.0 * math.pi / 3.0,
    "linear-entanglement-II": math.acos(-7.0 / 9.0),
    "nonlinear-entanglement-I": math.pi / 2.0,
    "nonlinear-entanglement-II": math.acos(-1.0 / 3.0),
    "nonlinear-entanglement-III": math.acos(-79.0 / 81.0),
}


@dataclass(frozen=True)
class WeakTerm:
    """One pseudo-probability with its weak-measurement reading.

    weak_value is None when the Born factor vanishes; the pseudo-probability
    is then an exact zero.  Composite terms (products of two
    pseudo-probabilities) multiply both factors' Born and weak parts.
    """

    label: str
    born_factor: float
    weak_value: float | None
    pseudo_probability: float
    coefficient: float = 1.0
    group: int = 0


@dataclass(frozen=True)
class TestReport:
    name: str
    inputs: dict[str, object]
    pseudo_probabilities: dict[str, float]
    weak_terms: tuple[WeakTerm, ...]
    statistic: float
    threshold: float
    verdict: bool
    alpha_valid_range: tuple[float, float]
    statistic_rule: str = RULE_SUM
    verdict_rule: str = VERDICT_NEGATIVE
    warnings: tuple[str, ...] = ()
    extras: dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "pseudo_probabilities": self.pseudo_probabilities,
            "weak_terms": [
                {
                    "label": t.label,
                    "coefficient": t.coefficient,
                    "born_factor": t.born_factor,
                    "weak_value": t.weak_value,
                    "pseudo_probability": t.pseudo_probability,
                    "group": t.group,
                }
                for t in self.weak_terms
            ],
            "statistic": self.statistic,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "alpha_valid_range": list(self.alpha_valid_range),
            "statistic_rule": self.statistic_rule,
            "verdict_rule": self.verdict_rule,
            "warnings": list(self.warnings),
            "extras": self.extras,
        }


def statistic_from_terms(terms: object, rule: str) -> float:
    """Recombine weak terms into the statistic; works on WeakTerm or dicts."""
    def fields(t: object) -> tuple[float, float, int]:
        if isinstance(t, WeakTerm):
            return t.coefficient, t.pseudo_probability, t.group
        c, p = (_finite(t[key], key) for key in ("coefficient", "pseudo_probability"))  # type: ignore[index]
        return c, p, _integer(t.get("group", 0), "group")  # type: ignore[union-attr]

    triples = _sequence(terms, "terms", "weak terms", fields)
    if not isinstance(rule, str) or rule not in (RULE_SUM, RULE_MAX_GROUP):
        raise InvalidInputError(f"unknown statistic rule {rule!r}")
    if rule == RULE_SUM:
        return float(sum(c * p for c, p, _ in triples))
    if not triples:
        raise InvalidInputError("terms must not be empty under the max_group_sum rule")
    sums: dict[int, float] = {}
    for c, p, g in triples:
        sums[g] = sums.get(g, 0.0) + c * p
    return float(max(sums.values()))


def _verdict(statistic: float, rule: str) -> tuple[float, bool]:
    """Threshold and verdict under VERDICT_NEGATIVE, else VERDICT_MAGNITUDE."""
    tol = resolve_tolerance()
    if rule == VERDICT_NEGATIVE:
        return -tol, statistic < -tol
    return tol, abs(statistic) > tol


def _report(
    name: str,
    inputs: dict[str, object],
    pseudo_probabilities: dict[str, float],
    weak_terms: list[WeakTerm] | tuple[WeakTerm, ...],
    statistic: float,
    extras: dict[str, object],
    *,
    statistic_rule: str = RULE_SUM,
    verdict_rule: str = VERDICT_NEGATIVE,
    alpha_valid_range: tuple[float, float] = (0.0, math.pi),
    warnings: list[str] | tuple[str, ...] = (),
) -> TestReport:
    """A TestReport whose threshold and verdict follow from `verdict_rule`."""
    threshold, verdict = _verdict(statistic, verdict_rule)
    return TestReport(
        name, inputs, pseudo_probabilities, tuple(weak_terms), statistic, threshold, verdict,
        alpha_valid_range, statistic_rule, verdict_rule, tuple(warnings), extras,
    )


def _pauli_table(state: DensityMatrix) -> Array:
    """The Pauli table of a qubit or two-qubit `state` (see `geometry._pauli_coordinates`),
    computed on first use and kept on the state, read-only."""
    table = state._derived.get("table")
    if table is None:
        table = _pauli_coordinates(state.matrix)
        table.flags.writeable = False
        state._derived["table"] = table
    return table


def _state_digest(state: DensityMatrix) -> dict[str, object]:
    """The report's digest of `state`: its dimension, its purity and, for a qubit, its Bloch
    vector.  The values are computed once per state; each call hands out a fresh dict and list."""
    if "digest" not in state._derived:
        bloch = _pauli_table(state)[1:].tolist() if state.dim == 2 else None
        state._derived["digest"] = (_expectations(state.matrix, state.matrix), bloch)
    purity, bloch = state._derived["digest"]
    digest: dict[str, object] = {"dim": state.dim, "purity": purity}
    if bloch is not None:
        digest["bloch"] = list(bloch)
    return digest


def _require_dim(state: DensityMatrix, dim: int, test: str) -> None:
    if _require_state(state).dim != dim:
        raise InvalidInputError(f"{test} needs a {dim}x{dim} state, got {state.dim}x{state.dim}")


def _qubit_axes(state: object, test: str, axes: dict[str, object]) -> tuple[list[Array], Array, dict[str, object]]:
    """Checks a single-qubit test's state (_NO_STATE for a test that reads none), then each named axis: the
    unit axes, the projector stack of their sigma . n indexed [axis, (+, -)] and the report's inputs."""
    if state is not _NO_STATE:
        _require_dim(state, 2, test)
    vs = [unit_vector(v, name) for name, v in axes.items()]
    inputs: dict[str, object] = {} if state is _NO_STATE else {"state": _state_digest(state)}
    inputs.update((name, v.tolist()) for name, v in zip(axes, vs))
    return vs, _outcome_projectors(_sigmas(vs)), inputs


def _entanglement_axes(state: DensityMatrix, geom: object, variant: object, test: str, variants: tuple[str, ...]) -> int:
    """Checks a two-qubit entanglement test's inputs; the number of frame axes its variant uses."""
    _require_dim(state, 4, test)
    if not isinstance(geom, EntanglementGeometry):
        raise InvalidInputError(f"geom must be an EntanglementGeometry, got {type(geom).__name__}")
    if not isinstance(variant, str) or variant not in variants:
        raise InvalidInputError(f"variant must be {', '.join(map(repr, variants[:-1]))} or {variants[-1]!r}, got {variant!r}")
    return 2 if variant == "I" else 3


def _embed(op: Array, side: int) -> Array:
    """A qubit operator, or each of a stack, on side 0 (the outer factor) or side 1 of two qubits."""
    return _kron(op, IDENTITY_2) if side == 0 else _kron(IDENTITY_2, op)


def _pp_terms(state: DensityMatrix, terms: _Terms) -> tuple[WeakTerm, ...]:
    """The weak term of each row of compiled terms (see `weak._compile_terms`): the Born
    factor of its lead times the real weak value of its rest post-selected on lead/rank.
    A vanishing Born factor makes the pseudo-probability an exact zero.

    A state keeps its evaluation of the last compiled terms it met, replaced as one tuple
    (the terms and their weak terms), so the tests that read one stack, as the entanglement
    variants read their geometry's, contract it once."""
    last = state._derived.get("terms")
    if last is None or last[0] is not terms:
        born, weak = _born_weak(terms, state.matrix)
        last = state._derived["terms"] = (terms, tuple(
            WeakTerm(label, b, w, 0.0 if w is None else b * w, c, g)
            for label, b, w, c, g in zip(terms.labels, born, weak, terms.coefficients, terms.groups)
        ))
    return last[1]


# A two-qubit test reads blocks of compiled terms, each with two terms per frame
# axis (or discord branch), outcomes + then -, axis after axis.  Each block's
# entry gives (leads, rests or None for plain Born terms, lead rank, label), the stacks read from a
# projector stack P whose rows per axis are a, b1, b2, a1, a2 and the b axis (b1, b2 and a1, a2
# are the b- and a-side doublets).  In a label, {t} is the axis tag, {s} the outcome and {f} the
# opposite outcome (see `_tagged`); `_ENTRY_NAMES` names the entries of the blocks read as entries.
_BLOCKS = {
    "equality": (lambda P: _kron(P[:, 0], P[:, 2]), lambda P: _embed(P[:, 1], 1), 1, "{t}a{s}b2{s} | b1{s}"),
    "barred": (lambda P: _kron(P[:, 0, ::-1], P[:, 2]), lambda P: _embed(P[:, 1], 1), 1, "{t}~a{f}b2{s} | b1{s}"),
    "a-pairs": (lambda P: _embed(P[:, 3], 0), lambda P: _embed(P[:, 4], 0), 2, "{t}a1{s}a2{s}"),
    "b-pairs": (lambda P: _embed(P[:, 1], 1), lambda P: _embed(P[:, 2], 1), 2, "{t}b1{s}b2{s}"),
    "a": (lambda P: _embed(P[:, 0], 0), None, 1, "{t}a{s}"),
    "b": (lambda P: _embed(P[:, 5], 1), None, 1, "{t}b{s}"),
}
_ENTRY_NAMES = {"equality": "{t}a{s}b1{s}b2{s}", "barred": "{t}~a{f}b1{s}b2{s}"}


def _tagged(template: str, i: int, o: int) -> str:
    """`template` at axis i, tagged [i+1], and outcome index o of a projector stack."""
    return template.format(t=f"[{i + 1}]", s=_MARK[o], f=_MARK[1 - o])


@functools.cache
def _block_terms(blocks: tuple[str, ...], groups: tuple[int, ...]) -> tuple[tuple, ...]:
    """The ranks, has-rest mask, labels, coefficients and groups of `blocks` compiled over
    len(groups) axes, as `_compile_blocks` passes them to `_compile_terms`."""
    return tuple(zip(*(
        (rank, rest is not None, _tagged(label, i, o), 1.0, group)
        for _, rest, rank, label in map(_BLOCKS.get, blocks) for i, group in enumerate(groups) for o in (0, 1)
    )))


def _compile_blocks(P: Array, blocks: tuple[str, ...], groups: tuple[int, ...]) -> _Terms:
    """The terms of `blocks`, block after block, over the axes of the projector
    stack P; axis i is tagged [i+1] and its terms are in groups[i].  A P with a
    leading axis stacks one such stack per aperture: the terms of each are
    compiled in that order, aperture after aperture, in one call."""
    k = math.prod(P.shape[:-5])
    flat = P.reshape(-1, *P.shape[-4:])
    eye = np.broadcast_to(np.eye(4), (k, 2 * len(groups), 4, 4))
    leads = np.concatenate([_BLOCKS[b][0](flat).reshape(k, -1, 4, 4) for b in blocks], axis=1)
    rests = np.concatenate([eye if _BLOCKS[b][1] is None else _BLOCKS[b][1](flat).reshape(k, -1, 4, 4) for b in blocks], axis=1)
    ranks, has_rest, *named = (x * k for x in _block_terms(blocks, groups))
    return _compile_terms(leads.reshape(-1, 4, 4), ranks, rests.reshape(-1, 4, 4), has_rest, *named)


def _compile_geometry(geom: EntanglementGeometry) -> _Terms:
    """Every block of terms at the three frame axes of `geom`, compiled as one stack
    from one projector stack; each entanglement test reads its blocks of it."""
    axes = [[a, b.n1, b.n2, d.n1, d.n2, bx] for a, bx, d, b in zip(geom.a_axes, geom.b_axes, geom.a_doublets, geom.b_doublets)]
    P = _outcome_projectors(_sigmas(np.reshape(axes, (18, 3)))).reshape(3, 6, 2, 2, 2)
    return _compile_blocks(P, tuple(_BLOCKS), (0, 0, 0))


def _product_term(t1: WeakTerm, t2: WeakTerm, coefficient: float, label: str) -> WeakTerm:
    """Composite term `label`, "(l1)*(l2)", for the product of two pseudo-probabilities, in t1's group."""
    born = t1.born_factor * t2.born_factor
    if t1.weak_value is None or t2.weak_value is None:
        return WeakTerm(label, born, None, 0.0, coefficient, t1.group)
    weak = t1.weak_value * t2.weak_value
    return WeakTerm(label, born, weak, t1.pseudo_probability * t2.pseudo_probability, coefficient, t1.group)


def _axis_angle(a1: Array, a2: Array) -> float:
    return float(np.arccos(np.clip(a1 @ a2, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# single-qubit tests
# ---------------------------------------------------------------------------

def coherence_test(state: DensityMatrix, a1: object, a2: object) -> TestReport:
    """Joint pseudo-probability of (+,+) outcomes along two qubit axes.

    A negative value certifies coherence relative to the bisector of the two
    axes: diagonal states reach zero only in the aligned limit.
    """
    (v1, v2), P, inputs = _qubit_axes(state, "coherence_test", {"a1": a1, "a2": a2})
    # The moments read sigma . n itself: P+ - P- differs from it in the last bit.
    rows =_scheme_rows(state.matrix[None], [_ordered_moments(_sigmas([v1, v2]), "unit")], [[0, 1]])[0]
    entries = dict(zip(_outcome_strings(2), rows.tolist()))

    terms = _pp_terms(state, _compile_terms(P[0, :1], (1,), P[1, :1], (True,), ("a1+ | a2+",), (1.0,), (0,)))

    # Independent route: (1/4)(1 + a1.a2 + p.(a1 + a2)) from the Pauli algebra.
    bloch = _pauli_table(state)[1:]
    closed = 0.25 * (1.0 + float(v1 @ v2) + float(bloch @ (v1 + v2)))

    return _report(
        "coherence",
        inputs,
        entries,
        terms,
        entries["++"],
        {"pauli_closed_form": closed, "axis_angle": _axis_angle(v1, v2)},
    )


def boolean_state_dep_test(state: DensityMatrix, a1: object, a2: object) -> TestReport:
    """Pseudo-probability of the classically empty event a1 AND a2 AND (not a1).

    The statistic is the nested-conjunction expectation; any nonzero value
    breaks Boolean logic.  The flat ordered-product variant evaluates to
    exactly twice the nested value and is reported alongside.
    """
    (v1, v2), P, inputs = _qubit_axes(state, "boolean_state_dep_test", {"a1": a1, "a2": a2})
    p1, p2, p1bar = P[0, 0], P[1, 0], P[0, 1]

    statistic = _expectations(state.matrix, _nested([p1, p2, p1bar]))
    flat_value = _expectations(state.matrix, _ordering_sum([p1, p2, p1bar], [(0, 1, 2)], [1.0]))

    # Nested conjunction splits into two ordered products with weight 1/2.
    terms = _pp_terms(state, _compile_terms(
        np.stack([p1, p1]), (1, 1), np.stack([p2 @ p1bar, p1bar @ p2]), (True, True),
        ("a1+ | a2+ a1-", "a1+ | a1- a2+"), (0.5, 0.5), (0, 0)))

    k = float(v1 @ v2)
    bloch = _pauli_table(state)[1:]
    closed = 0.125 * float(bloch @ (v2 - k * v1))

    return _report(
        "boolean-state-dependent",
        inputs,
        {"nested_conjunction": statistic, "flat_unit": flat_value},
        terms,
        statistic,
        {"pauli_closed_form": closed, "flat_to_nested_ratio": 2.0, "axis_angle": _axis_angle(v1, v2)},
        verdict_rule=VERDICT_MAGNITUDE,
    )


_CANONICAL_QUBITS = (
    ("maximally-mixed", np.eye(2, dtype=complex) / 2),
    ("x-pure", 0.5 * (IDENTITY_2 + PAULI_X)),
    ("z-pure", 0.5 * (IDENTITY_2 + PAULI_Z)),
)
_MAXIMALLY_MIXED = DensityMatrix(_CANONICAL_QUBITS[0][1])
# The labels of the weak terms of boolean_state_indep_test and of chsh_test.
_ORDERING_LABELS = tuple("ordering " + "".join(map(str, order)) for order in _ordering_array(4).tolist())
_CHSH_LABELS = tuple(f"A{a + 1}{_MARK[o]}B1{_MARK[o]} | B2{_MARK[o ^ a]}" for a in (0, 1) for o in (0, 1))


def boolean_state_indep_test(a1: object, a2: object) -> TestReport:
    """Fully symmetrized pseudo-projection of the event a1, a2, not-a1, not-a2.

    The operator is a multiple of the identity, so its expectation is the
    same in every state: (k^2 - 1)/24 with k = a1.a2.  The report evaluates
    three canonical states to exhibit the independence and carries the
    commonly quoted closed form (1/8)(k^2 - 1/3), which matches the
    constructive value only at k = 0; the constructive value is
    authoritative.
    """
    (v1, v2), P, inputs = _qubit_axes(_NO_STATE, "boolean_state_indep_test", {"a1": a1, "a2": a2})
    mats = P.transpose(1, 0, 2, 3).reshape(4, 2, 2)  # P[0, 0], P[1, 0], P[0, 1], P[1, 1]
    orders = _ordering_array(4)
    pp = _ordering_sum(mats, orders, _convex_weights(4, None))
    values = {name: _expectations(rho, pp) for name, rho in _CANONICAL_QUBITS}
    statistic = values["maximally-mixed"]
    spread = max(values.values()) - min(values.values())

    # Weak decomposition against the maximally mixed state, one term per
    # distinct ordering of the four factors.
    terms = _pp_terms(_MAXIMALLY_MIXED, _compile_terms(
        mats[orders[:, 0]], (1,) * 12, _ordered_products(mats, orders[:, 1:]), (True,) * 12,
        _ORDERING_LABELS, (1.0 / 12.0,) * 12, (0,) * 12,
    ))

    k = float(v1 @ v2)
    constructive_closed = (k * k - 1.0) / 24.0
    quoted = 0.125 * (k * k - 1.0 / 3.0)
    extras: dict[str, object] = {
        "pauli_closed_form": constructive_closed,
        "quoted_closed_form": quoted,
        "state_independence_spread": spread,
        "per_state_values": values,
        "axis_angle": _axis_angle(v1, v2),
    }
    if abs(quoted - constructive_closed) > STRUCTURAL_TOL:
        extras["quoted_form_note"] = (
            "the quoted closed form (1/8)(k^2 - 1/3) differs from the "
            "constructive value (k^2 - 1)/24 for non-orthogonal axes; the "
            "constructive value is authoritative"
        )

    return _report(
        "boolean-state-independent",
        inputs,
        values,
        terms,
        statistic,
        extras,
        verdict_rule=VERDICT_MAGNITUDE,
    )


def distributivity_test(state: DensityMatrix, a1: object, a2: object, a3: object) -> TestReport:
    """Gap between a chained conjunction and its distributively factored form.

    Compares the merged ordered product for (a2, a1, a3) against the
    conjunction of pi_a1 with the joint (a2, a3) pseudo-projection; classical
    logic makes these equal, and the gap operator is traceless for every
    axis choice, so uniform mixtures never flag.
    """
    (v1, v2, v3), P, inputs = _qubit_axes(state, "distributivity_test", {"a1": a1, "a2": a2, "a3": a3})
    p1, p2, p3 = P[:, 0]

    chained = _ordering_sum([p2, p1, p3], [(0, 1, 2)], [1.0])
    factored = _nested([p1, _ordering_sum([p2, p3], [(0, 1)], [1.0])])
    gap = chained - factored
    statistic, chained_value, factored_value = _expectations(state.matrix, [gap, chained, factored]).tolist()

    # Independent route: (1/8) p.[(a1.a3) a2 + (a1.a2) a3 - 2 (a2.a3) a1] from the Pauli algebra.
    bloch = _pauli_table(state)[1:]
    closed = 0.125 * float(bloch @ (float(v1 @ v3) * v2 + float(v1 @ v2) * v3 - 2.0 * float(v2 @ v3) * v1))

    terms = _pp_terms(state, _compile_terms(
        np.stack([p2, p1, p1]), (1, 1, 1), np.stack([p1 @ p3, p2 @ p3, p3 @ p2]), (True,) * 3,
        ("a2+ | a1+ a3+", "a1+ | a2+ a3+", "a1+ | a3+ a2+"), (1.0, -0.5, -0.5), (0, 0, 0)))

    return _report(
        "distributivity",
        inputs,
        {"chained_conjunction": chained_value, "factored_composite": factored_value, "gap": statistic},
        terms,
        statistic,
        {"pauli_closed_form": closed, "gap_trace": float(np.real(np.trace(gap)))},
        verdict_rule=VERDICT_MAGNITUDE,
    )


# ---------------------------------------------------------------------------
# two-qubit tests
# ---------------------------------------------------------------------------

def chsh_test(
    state: DensityMatrix,
    A1: ObservableSpec,
    A2: ObservableSpec,
    B1: ObservableSpec,
    B2: ObservableSpec,
) -> TestReport:
    """Pseudo-probability form of the CHSH test.

    statistic = P(A1 = B1 = B2) + P(A2 = B1 = not-B2); local realism keeps it
    non-negative, and it goes negative exactly when |CHSH| > 2 for this
    observable ordering.
    """
    _require_dim(state, 4, "chsh_test")
    for name, o, sub in (("A1", A1, 0), ("A2", A2, 0), ("B1", B1, 1), ("B2", B2, 1)):
        if not isinstance(o, ObservableSpec):
            raise InvalidInputError(f"{name} must be an ObservableSpec, got {type(o).__name__}")
        if o.subsystem != sub:
            raise InvalidInputError(f"{name} must live on subsystem {sub}, got {o.subsystem}")
        if o.dim != 2:
            raise InvalidInputError(f"{name} must be a qubit observable")

    b = _moments([B1, B2], "unit")
    # The tables of (A1, B1, B2) and (A2, B1, B2), in `_outcomes` order: +++, ++-, --+ and --- are rows 0, 1, 6 and 7.
    t1, t2 = (_scheme_rows(state.matrix[None], [_moments([a], "unit"), b], [[0], [1, 2]])[0].tolist() for a in (A1, A2))
    entries = {"A1+B1+B2+": t1[0], "A1-B1-B2-": t1[7], "A2+B1+B2-": t2[1], "A2-B1-B2+": t2[6]}
    P = _outcome_projectors([o.matrix for o in (A1, A2, B1, B2)])
    # Rows 0-3 of P are A1, A2, B1, B2; the terms run a, o over (A1, A2) x (+, -), and A2's take B2's opposite outcome.
    leads, rests = _kron(P[:2], P[2]).reshape(4, 4, 4), _embed(P[3, [0, 1, 1, 0]], 1)
    terms = _pp_terms(state, _compile_terms(leads, (1,) * 4, rests, (True,) * 4, _CHSH_LABELS, (1.0,) * 4, (0,) * 4))

    # Independent route: statistic = (2 + <A1(B1+B2)> + <A2(B1-B2)>)/4.  Each
    # observable is sigma.n, with n its axis or, for a matrix, n = Tr(sigma A)/2: Hermitian,
    # squaring to I and not +-I (_moments above refuses +-I) makes A traceless with |n| = 1.
    T = _pauli_table(state)[1:, 1:]
    n1, n2, m1, m2 = (_pauli_coordinates(o.matrix)[1:] / 2.0 if o.axis is None else o.axis for o in (A1, A2, B1, B2))
    plus, minus = float(n1 @ T @ (m1 + m2)), float(n2 @ T @ (m1 - m2))
    chsh_value = plus + minus
    closed = 0.25 * (2.0 + plus + minus)

    return _report(
        "chsh",
        {"state": _state_digest(state), "A1": A1.label, "A2": A2.label, "B1": B1.label, "B2": B2.label},
        entries,
        terms,
        sum(entries.values()),
        {"pauli_closed_form": closed, "chsh_value": chsh_value},
    )


class _Witness(NamedTuple):
    """A two-qubit test as data, per frame axis (or discord branch): the blocks read
    as entries, the blocks whose terms are summed, the products summed as
    ((block, outcome), (block, outcome), coefficient), and the axis's Pauli closed
    form f(c, C, A, B), with c = cos(alpha/2), C = a.T.b, A = r.a and B = s.b for
    the state's local Bloch vectors r, s and correlation tensor T."""

    entries: tuple[str, ...]
    summed: tuple[str, ...]
    products: tuple[tuple[tuple[str, int], tuple[str, int], float], ...]
    closed: Callable[[float, float, float, float], float]


_LINEAR = _Witness(("equality",), ("equality",), (), lambda c, C, A, B: 0.5 * c * (c + C))
_BILINEAR = _Witness(
    ("equality", "barred"), (), tuple((("equality", o), ("barred", p), 1.0) for o in (0, 1) for p in (0, 1)),
    lambda c, C, A, B: (c * c / 4.0) * (c * c - C * C),
)
# Nonlinear III pairs opposed outcomes: a single outcome with a doublet conjunction.
_OPPOSED = (
    (("a", 0), ("a-pairs", 1), 0.5), (("a", 1), ("a-pairs", 0), 0.5),
    (("b", 0), ("b-pairs", 1), 0.5), (("b", 1), ("b-pairs", 0), 0.5),
    (("a", 0), ("b-pairs", 1), 0.5), (("a", 1), ("b-pairs", 0), 0.5),
    (("a-pairs", 1), ("b", 0), 0.5), (("a-pairs", 0), ("b", 1), 0.5),
)
_WITNESSES = {
    "linear-entanglement-I": _LINEAR,
    "linear-entanglement-II": _LINEAR,
    "nonlinear-entanglement-I": _BILINEAR,
    "nonlinear-entanglement-II": _BILINEAR,
    "nonlinear-entanglement-III": _Witness(
        ("equality",), ("equality",), _OPPOSED, lambda c, C, A, B: 0.5 * c * (3.0 * c + C - 0.5 * (A + B) ** 2)
    ),
    "discord": _Witness(
        ("equality",), ("equality",), tuple((x, y, 1.0) for x, y, _ in _OPPOSED[4:6]),
        lambda c, C, A, B: 0.5 * c * (2.0 * c + C - A * B),
    ),
}


@functools.cache
def _blocks(w: _Witness) -> tuple[str, ...]:
    """The blocks `w` reads, in compile order."""
    read = {*w.entries, *w.summed, *(block for pair in w.products for block, _ in pair[:2])}
    return tuple(block for block in _BLOCKS if block in read)


@functools.cache
def _rows(w: _Witness, blocks: tuple[str, ...], n: int, n_axes: int) -> dict[tuple[str, int, int], int]:
    """The row of each term `w` reads at its first `n_axes` axes, keyed (block, axis,
    outcome), in terms holding `blocks` compiled over n axes."""
    return {(b, i, o): 2 * n * blocks.index(b) + 2 * i + o for b in _blocks(w) for i in range(n_axes) for o in (0, 1)}


@functools.cache
def _names(w: _Witness, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of the entries `w` reads at axis i, and the labels "(l1)*(l2)" of its products there."""
    label = lambda block, o: _tagged(_BLOCKS[block][3], i, o)  # noqa: E731
    entries = tuple(_tagged(_ENTRY_NAMES[block], i, o) for block in w.entries for o in (0, 1))
    return entries, tuple(f"({label(x, o)})*({label(y, p)})" for (x, o), (y, p), _ in w.products)


def _evaluate(
    w: _Witness, state: DensityMatrix, table: Array, terms: _Terms, blocks: tuple[str, ...],
    axes: list[tuple[Array, Array]], alphas: list[float],
) -> list[tuple[dict[str, float], list[list[WeakTerm]], list[float]]]:
    """For each aperture of `alphas`: the entries, the weak terms of each axis and each
    axis's closed form of the test `w` on `state`, whose Pauli table is `table`, at `axes`,
    pairs (a, b) of an a axis and a b-doublet axis.  `terms` hold `blocks` compiled over
    these axes or more once per aperture, aperture after aperture; one contraction reads them all."""
    size = len(terms.labels) // len(alphas)
    rows = _rows(w, blocks, size // (2 * len(blocks)), len(axes))
    weak_terms = _pp_terms(state, terms)
    r, s, T = table[1:, 0], table[0, 1:], table[1:, 1:]
    parts = [(float(a @ T @ b), float(r @ a), float(s @ b)) for a, b in axes]
    results = []
    for k, alpha in enumerate(alphas):
        t = {key: weak_terms[k * size + row] for key, row in rows.items()}
        c = math.cos(alpha / 2.0)
        entries: dict[str, float] = {}
        per_axis = []
        for i in range(len(axes)):
            names, labels = _names(w, i)
            entries.update(zip(names, (t[block, i, o].pseudo_probability for block in w.entries for o in (0, 1))))
            per_axis.append([t[block, i, o] for block in w.summed for o in (0, 1)] + [
                _product_term(t[x, i, o], t[y, i, p], k, label) for ((x, o), (y, p), k), label in zip(w.products, labels)
            ])
        results.append((entries, per_axis, [w.closed(c, *part) for part in parts]))
    return results


def _entanglement_report(
    name: str, state: DensityMatrix, geom: EntanglementGeometry, n_axes: int, notes: dict[str, object] | None = None,
) -> TestReport:
    """Report of the entanglement test `name` at the first `n_axes` frame axes of `geom`,
    warned outside its aperture window.  A geometry compiles its terms on first use and keeps them."""
    if geom._terms is None:
        object.__setattr__(geom, "_terms", _compile_geometry(geom))
    axes = list(zip(geom.a_axes[:n_axes], geom.b_axes))
    [(entries, per_axis, closed)] = _evaluate(
        _WITNESSES[name], state, _pauli_table(state), geom._terms, tuple(_BLOCKS), axes, [geom.alpha],  # type: ignore[arg-type]
    )
    terms = [t for axis_terms in per_axis for t in axis_terms]
    window = (0.0, _APERTURE_WINDOWS[name])
    warnings: tuple[str, ...] = ()
    if not (window[0] < geom.alpha <= window[1] + STRUCTURAL_TOL):
        warnings = (
            f"alpha {geom.alpha:.6f} outside the validity window ({window[0]:.6f}, {window[1]:.6f}];"
            " separable states may also flag",
        )
    inputs = {
        "state": _state_digest(state),
        "alpha": geom.alpha,
        "a_axes": [a.tolist() for a in geom.a_axes[:n_axes]],
        "b_axes": [b.tolist() for b in geom.b_axes[:n_axes]],
    }
    extras = {"pauli_closed_form": sum(closed), "aperture_cos_half": math.cos(geom.alpha / 2.0), **(notes or {})}
    statistic = float(sum(t.coefficient * t.pseudo_probability for t in terms))
    return _report(name, inputs, entries, terms, statistic, extras, alpha_valid_range=window, warnings=warnings)


def linear_ent_test(state: DensityMatrix, geom: EntanglementGeometry, variant: str = "I") -> TestReport:
    """Linear entanglement inequalities from equality pseudo-probabilities.

    Variant I sums P(a_i = b1 = b2) over the first two frame axes, variant II
    over all three.  Separable states keep the sum non-negative inside the
    aperture validity window; a negative value witnesses entanglement.
    """
    n_axes = _entanglement_axes(state, geom, variant, "linear_ent_test", ("I", "II"))
    notes = None if variant == "I" else {
        "werner_entry_closed_form": "(1/12)(1/3 - eta) at alpha = arccos(-7/9)",
        "quoted_form_note": (
            "the commonly quoted per-entry magnitude (1/8)(1/2 - eta) belongs to "
            "the two-axis variant; the constructive three-axis value "
            "(1/12)(1/3 - eta) is authoritative"
        ),
    }
    return _entanglement_report(f"linear-entanglement-{variant}", state, geom, n_axes, notes)


def nonlinear_ent_test(state: DensityMatrix, geom: EntanglementGeometry, variant: str = "I") -> TestReport:
    """Nonlinear (bilinear) entanglement inequalities.

    Variants I and II sum P(a_i = b1 = b2) * P(not-a_i = b1 = b2) over two or
    three axes.  Variant III augments each equality pseudo-probability with
    eight half-weighted products of single-outcome probabilities and same-side
    doublet conjunctions; its classical floor is again zero.
    """
    n_axes = _entanglement_axes(state, geom, variant, "nonlinear_ent_test", ("I", "II", "III"))
    return _entanglement_report(f"nonlinear-entanglement-{variant}", state, geom, n_axes)


def _discord_scan(state: DensityMatrix, alphas: Iterable[object]) -> list[TestReport]:
    """`discord_test`'s report at each aperture of `alphas`, each with objects of its own.

    The state and every aperture are checked first.  The branch axes are read once from the
    state's Pauli table; every aperture's doublets and outcome projectors
    are one stack, compiled in one call and read from one contraction."""
    _require_dim(state, 4, "discord_test")
    alphas = [_aperture(alpha) for alpha in alphas]

    table = _pauli_table(state)
    r = table[1:, 0]
    norm = _norm(r)
    degenerate = norm < 1e-8
    a1_axis = np.array([0.0, 0.0, 1.0]) if degenerate else r / norm
    a2_axis = mub_partner(a1_axis)

    # Both sides measure along each branch axis: rows of P per aperture and branch are
    # the axis, then its doublet n1, n2 (a, b1, b2 of `_BLOCKS`).
    axes = np.stack([a1_axis, a2_axis])
    vectors = np.empty((len(alphas), 2, 3, 3))
    vectors[:, :, 0] = axes
    vectors[:, :, 1], vectors[:, :, 2] = _doublets(axes, np.array(alphas)[:, None, None])
    P = _outcome_projectors(_sigmas(vectors.reshape(-1, 3))).reshape(len(alphas), 2, 3, 2, 2, 2)
    w = _WITNESSES["discord"]
    blocks = _blocks(w)
    results = _evaluate(w, state, table, _compile_blocks(P, blocks, (1, 2)), blocks, [(x, x) for x in axes], alphas)

    warnings = ["reduced state is maximally mixed; branch axis fixed to z"] if degenerate else []
    reports = []
    for alpha, (entries, branches, closed) in zip(alphas, results):
        # Branch g holds the terms of group g, in order: the max-group statistic is the larger branch sum.
        sums = [float(sum(t.coefficient * t.pseudo_probability for t in b)) for b in branches]
        reports.append(_report(
            "discord",
            {"state": _state_digest(state), "alpha": alpha, "branch_axes": [a1_axis.tolist(), a2_axis.tolist()]},
            {**entries, **{f"branch_{g}": x for g, x in enumerate(sums, start=1)}},
            [t for branch in branches for t in branch],
            max(sums),
            {**{f"branch_{g}_closed_form": x for g, x in enumerate(closed, start=1)}, "degenerate_marginal": degenerate},
            statistic_rule=RULE_MAX_GROUP,
            warnings=warnings,
        ))
    return reports


def discord_test(state: DensityMatrix, alpha: float) -> TestReport:
    """Discord witness from two mutually unbiased measurement branches.

    The first branch aligns with the reduced state's Bloch direction, the
    second with a mutually unbiased partner.  Each branch statistic combines
    an equality pseudo-probability with two factored correction products;
    zero-discord states keep at least one branch non-negative at every
    aperture, so both branches negative witnesses discord.
    """
    return _discord_scan(state, [alpha])[0]
