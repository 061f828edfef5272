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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    IDENTITY_2,
    Doublet,
    EntanglementGeometry,
    make_doublet,
    mub_partner,
    pauli_vector,
    qubit_projector,
    unit_vector,
)
from .operator_core import (
    Array,
    DensityMatrix,
    Projector,
    _kron,
    partial_trace,
    resolve_tolerance,
)
from .pseudoprojection import conjunction_pp, distinct_orderings, symmetrized_pp, unit_pp
from .scheme import ObservableSpec, build_scheme, equality_sum
from .weak import real_weak_product

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

# Born factors at or below this are exact zeros of the PSD state, and the
# corresponding pseudo-probability vanishes with them.
BORN_FLOOR = 1e-12

RULE_SUM = "sum"
RULE_MAX_GROUP = "max_group_sum"
VERDICT_NEGATIVE = "negative"
VERDICT_MAGNITUDE = "magnitude"


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
        return float(t["coefficient"]), float(t["pseudo_probability"]), int(t.get("group", 0))  # type: ignore[index,union-attr]

    triples = [fields(t) for t in terms]  # type: ignore[union-attr]
    if rule == RULE_SUM:
        return float(sum(c * p for c, p, _ in triples))
    if rule == RULE_MAX_GROUP:
        sums: dict[int, float] = {}
        for c, p, g in triples:
            sums[g] = sums.get(g, 0.0) + c * p
        return float(max(sums.values()))
    raise InvalidInputError(f"unknown statistic rule {rule!r}")


def _verdict(statistic: float, rule: str) -> tuple[float, bool]:
    tol = resolve_tolerance()
    if rule == VERDICT_NEGATIVE:
        return -tol, statistic < -tol
    if rule == VERDICT_MAGNITUDE:
        return tol, abs(statistic) > tol
    raise InvalidInputError(f"unknown verdict rule {rule!r}")


def _state_digest(state: DensityMatrix) -> dict[str, object]:
    digest: dict[str, object] = {
        "dim": state.dim,
        "purity": float(np.real(np.trace(state.matrix @ state.matrix))),
    }
    if state.dim == 2:
        digest["bloch"] = [
            float(np.real(np.trace(state.matrix @ p)))
            for p in (pauli_vector([1, 0, 0]), pauli_vector([0, 1, 0]), pauli_vector([0, 0, 1]))
        ]
    return digest


def _require_dim(state: DensityMatrix, dim: int, test: str) -> None:
    if state.dim != dim:
        raise InvalidInputError(f"{test} needs a {dim}x{dim} state, got {state.dim}x{state.dim}")


def _pp_term(
    state: DensityMatrix,
    lead: Array,
    lead_rank: int,
    rest: Array,
    label: str,
    coefficient: float = 1.0,
    group: int = 0,
) -> WeakTerm:
    """Weak term for <(1/2)(lead rest + h.c.)>: Born factor of `lead` times
    the real weak value of `rest` post-selected on lead/rank."""
    born = float(np.real(np.trace(state.matrix @ lead)))
    if born <= BORN_FLOOR:
        return WeakTerm(label, born, None, 0.0, coefficient, group)
    post = DensityMatrix(lead / lead_rank)
    weak = real_weak_product([rest], state, post)
    return WeakTerm(label, born, weak, born * weak, coefficient, group)


def _product_term(label: str, t1: WeakTerm, t2: WeakTerm, coefficient: float, group: int = 0) -> WeakTerm:
    """Composite term for a product of two pseudo-probabilities."""
    born = t1.born_factor * t2.born_factor
    if t1.weak_value is None or t2.weak_value is None:
        return WeakTerm(label, born, None, 0.0, coefficient, group)
    weak = t1.weak_value * t2.weak_value
    return WeakTerm(label, born, weak, t1.pseudo_probability * t2.pseudo_probability, coefficient, group)


def _born_only_term(state: DensityMatrix, op: Array, label: str) -> WeakTerm:
    """Plain projector probability, weak part trivially 1."""
    born = float(np.real(np.trace(state.matrix @ op)))
    return WeakTerm(label, born, 1.0, born, 1.0, 0)


def _axis_angle(a1: Array, a2: Array) -> float:
    return float(np.arccos(np.clip(a1 @ a2, -1.0, 1.0)))


def _two_qubit_correlations(state: DensityMatrix, a_axis: Array, b_axis: Array) -> tuple[float, float, float]:
    """(C, A, B) = <sa x sb>, <sa x I>, <I x sb>."""
    sa = pauli_vector(a_axis)
    sb = pauli_vector(b_axis)
    c = float(np.real(np.trace(state.matrix @ _kron(sa, sb))))
    a = float(np.real(np.trace(state.matrix @ _kron(sa, IDENTITY_2))))
    b = float(np.real(np.trace(state.matrix @ _kron(IDENTITY_2, sb))))
    return c, a, b


# ---------------------------------------------------------------------------
# single-qubit tests
# ---------------------------------------------------------------------------

def coherence_test(state: DensityMatrix, a1: object, a2: object) -> TestReport:
    """Joint pseudo-probability of (+,+) outcomes along two qubit axes.

    A negative value certifies coherence relative to the bisector of the two
    axes: diagonal states reach zero only in the aligned limit.
    """
    _require_dim(state, 2, "coherence_test")
    v1 = unit_vector(a1, "a1")
    v2 = unit_vector(a2, "a2")
    obs = [ObservableSpec(0, axis=v1, label="a1"), ObservableSpec(0, axis=v2, label="a2")]
    sch = build_scheme(state, obs, "unit")
    statistic = sch.entry((+1, +1))

    p1 = qubit_projector(v1, +1)
    p2 = qubit_projector(v2, +1)
    terms = (_pp_term(state, p1.matrix, 1, p2.matrix, "a1+ | a2+"),)

    # Independent route: (1/4)(1 + a1.a2 + p.(a1 + a2)) from the Pauli algebra.
    bloch = np.array(_state_digest(state)["bloch"])
    closed = 0.25 * (1.0 + float(v1 @ v2) + float(bloch @ (v1 + v2)))

    threshold, verdict = _verdict(statistic, VERDICT_NEGATIVE)
    return TestReport(
        name="coherence",
        inputs={"state": _state_digest(state), "a1": v1.tolist(), "a2": v2.tolist()},
        pseudo_probabilities={
            "".join(("+" if s > 0 else "-") for s in k): v for k, v in sch.entries.items()
        },
        weak_terms=terms,
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_NEGATIVE,
        extras={
            "pauli_closed_form": closed,
            "axis_angle": _axis_angle(v1, v2),
        },
    )


def boolean_state_dep_test(state: DensityMatrix, a1: object, a2: object) -> TestReport:
    """Pseudo-probability of the classically empty event a1 AND a2 AND (not a1).

    The statistic is the nested-conjunction expectation; any nonzero value
    breaks Boolean logic.  The flat ordered-product variant evaluates to
    exactly twice the nested value and is reported alongside.
    """
    _require_dim(state, 2, "boolean_state_dep_test")
    v1 = unit_vector(a1, "a1")
    v2 = unit_vector(a2, "a2")
    p1 = qubit_projector(v1, +1)
    p2 = qubit_projector(v2, +1)
    p1bar = qubit_projector(v1, -1)

    nested = conjunction_pp([p1, p2, p1bar])
    flat = unit_pp([p1, p2, p1bar])
    statistic = float(np.real(np.trace(state.matrix @ nested.matrix)))
    flat_value = float(np.real(np.trace(state.matrix @ flat.matrix)))

    # Nested conjunction splits into two ordered products with weight 1/2.
    terms = (
        _pp_term(state, p1.matrix, 1, p2.matrix @ p1bar.matrix, "a1+ | a2+ a1-", 0.5),
        _pp_term(state, p1.matrix, 1, p1bar.matrix @ p2.matrix, "a1+ | a1- a2+", 0.5),
    )

    k = float(v1 @ v2)
    bloch = np.array(_state_digest(state)["bloch"])
    closed = 0.125 * float(bloch @ (v2 - k * v1))

    threshold, verdict = _verdict(statistic, VERDICT_MAGNITUDE)
    return TestReport(
        name="boolean-state-dependent",
        inputs={"state": _state_digest(state), "a1": v1.tolist(), "a2": v2.tolist()},
        pseudo_probabilities={"nested_conjunction": statistic, "flat_unit": flat_value},
        weak_terms=terms,
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_MAGNITUDE,
        extras={
            "pauli_closed_form": closed,
            "flat_to_nested_ratio": 2.0,
            "axis_angle": _axis_angle(v1, v2),
        },
    )


_CANONICAL_QUBITS = (
    ("maximally-mixed", np.eye(2, dtype=complex) / 2),
    ("x-pure", 0.5 * (IDENTITY_2 + pauli_vector([1, 0, 0]))),
    ("z-pure", 0.5 * (IDENTITY_2 + pauli_vector([0, 0, 1]))),
)


def boolean_state_indep_test(a1: object, a2: object) -> TestReport:
    """Fully symmetrized pseudo-projection of the event a1, a2, not-a1, not-a2.

    The operator is a multiple of the identity, so its expectation is the
    same in every state: (k^2 - 1)/24 with k = a1.a2.  The report evaluates
    three canonical states to exhibit the independence and carries the
    commonly quoted closed form (1/8)(k^2 - 1/3), which matches the
    constructive value only at k = 0; the constructive value is
    authoritative.
    """
    v1 = unit_vector(a1, "a1")
    v2 = unit_vector(a2, "a2")
    ps = [
        qubit_projector(v1, +1),
        qubit_projector(v2, +1),
        qubit_projector(v1, -1),
        qubit_projector(v2, -1),
    ]
    pp = symmetrized_pp(ps)
    values = {
        name: float(np.real(np.trace(rho @ pp.matrix) / np.trace(rho)))
        for name, rho in _CANONICAL_QUBITS
    }
    statistic = values["maximally-mixed"]
    spread = max(values.values()) - min(values.values())

    # Weak decomposition against the maximally mixed state, one term per
    # distinct ordering of the four factors.
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    mats = [p.matrix for p in ps]
    terms = []
    for order in distinct_orderings(4):
        rest = mats[order[1]]
        for i in order[2:]:
            rest = rest @ mats[i]
        label = "ordering " + "".join(str(i) for i in order)
        terms.append(_pp_term(mixed, mats[order[0]], 1, rest, label, 1.0 / 12.0))

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
    if abs(quoted - constructive_closed) > 1e-12:
        extras["quoted_form_note"] = (
            "the quoted closed form (1/8)(k^2 - 1/3) differs from the "
            "constructive value (k^2 - 1)/24 for non-orthogonal axes; the "
            "constructive value is authoritative"
        )

    threshold, verdict = _verdict(statistic, VERDICT_MAGNITUDE)
    return TestReport(
        name="boolean-state-independent",
        inputs={"a1": v1.tolist(), "a2": v2.tolist()},
        pseudo_probabilities=values,
        weak_terms=tuple(terms),
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_MAGNITUDE,
        extras=extras,
    )


def distributivity_test(state: DensityMatrix, a1: object, a2: object, a3: object) -> TestReport:
    """Gap between a chained conjunction and its distributively factored form.

    Compares the merged ordered product for (a2, a1, a3) against the
    conjunction of pi_a1 with the joint (a2, a3) pseudo-projection; classical
    logic makes these equal, and the gap operator is traceless for every
    axis choice, so uniform mixtures never flag.
    """
    _require_dim(state, 2, "distributivity_test")
    v1 = unit_vector(a1, "a1")
    v2 = unit_vector(a2, "a2")
    v3 = unit_vector(a3, "a3")
    p1 = qubit_projector(v1, +1)
    p2 = qubit_projector(v2, +1)
    p3 = qubit_projector(v3, +1)

    chained = unit_pp([p2, p1, p3])
    factored = conjunction_pp([p1, unit_pp([p2, p3])])
    gap = chained.matrix - factored.matrix
    statistic = float(np.real(np.trace(state.matrix @ gap)))
    chained_value = float(np.real(np.trace(state.matrix @ chained.matrix)))
    factored_value = float(np.real(np.trace(state.matrix @ factored.matrix)))

    terms = (
        _pp_term(state, p2.matrix, 1, p1.matrix @ p3.matrix, "a2+ | a1+ a3+", 1.0),
        _pp_term(state, p1.matrix, 1, p2.matrix @ p3.matrix, "a1+ | a2+ a3+", -0.5),
        _pp_term(state, p1.matrix, 1, p3.matrix @ p2.matrix, "a1+ | a3+ a2+", -0.5),
    )

    threshold, verdict = _verdict(statistic, VERDICT_MAGNITUDE)
    return TestReport(
        name="distributivity",
        inputs={
            "state": _state_digest(state),
            "a1": v1.tolist(),
            "a2": v2.tolist(),
            "a3": v3.tolist(),
        },
        pseudo_probabilities={
            "chained_conjunction": chained_value,
            "factored_composite": factored_value,
            "gap": statistic,
        },
        weak_terms=terms,
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_MAGNITUDE,
        extras={"gap_trace": float(np.real(np.trace(gap)))},
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
        if o.subsystem != sub:
            raise InvalidInputError(f"{name} must live on subsystem {sub}, got {o.subsystem}")
        if o.dim != 2:
            raise InvalidInputError(f"{name} must be a qubit observable")

    sch1 = build_scheme(state, [A1, B1, B2], "unit")
    sch2 = build_scheme(state, [A2, B1, B2], "unit")
    p_first = equality_sum(sch1, "0=1=2")
    p_second = equality_sum(sch2, "0=1=~2")
    statistic = p_first + p_second

    def proj(o: ObservableSpec, s: int) -> Array:
        return o.projector(s).matrix

    entries = {
        "A1+B1+B2+": sch1.entry((+1, +1, +1)),
        "A1-B1-B2-": sch1.entry((-1, -1, -1)),
        "A2+B1+B2-": sch2.entry((+1, +1, -1)),
        "A2-B1-B2+": sch2.entry((-1, -1, +1)),
    }
    terms = (
        _pp_term(state, _kron(proj(A1, +1), proj(B1, +1)), 1, _kron(IDENTITY_2, proj(B2, +1)), "A1+B1+ | B2+"),
        _pp_term(state, _kron(proj(A1, -1), proj(B1, -1)), 1, _kron(IDENTITY_2, proj(B2, -1)), "A1-B1- | B2-"),
        _pp_term(state, _kron(proj(A2, +1), proj(B1, +1)), 1, _kron(IDENTITY_2, proj(B2, -1)), "A2+B1+ | B2-"),
        _pp_term(state, _kron(proj(A2, -1), proj(B1, -1)), 1, _kron(IDENTITY_2, proj(B2, +1)), "A2-B1- | B2+"),
    )

    # Independent route: statistic = (2 + <A1(B1+B2)> + <A2(B1-B2)>)/4.
    def corr(a: ObservableSpec, b: Array) -> float:
        return float(np.real(np.trace(state.matrix @ _kron(a.matrix, b))))

    chsh_value = (
        corr(A1, B1.matrix) + corr(A1, B2.matrix) + corr(A2, B1.matrix) - corr(A2, B2.matrix)
    )
    closed = 0.25 * (2.0 + corr(A1, B1.matrix + B2.matrix) + corr(A2, B1.matrix - B2.matrix))

    threshold, verdict = _verdict(statistic, VERDICT_NEGATIVE)
    return TestReport(
        name="chsh",
        inputs={
            "state": _state_digest(state),
            "A1": A1.label,
            "A2": A2.label,
            "B1": B1.label,
            "B2": B2.label,
        },
        pseudo_probabilities=entries,
        weak_terms=terms,
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_NEGATIVE,
        extras={
            "pauli_closed_form": closed,
            "chsh_value": chsh_value,
        },
    )


def _b_pair_projectors(doublet: Doublet, s: int) -> tuple[Projector, Projector]:
    return qubit_projector(doublet.n1, s), qubit_projector(doublet.n2, s)


def _equality_entry_terms(
    state: DensityMatrix,
    a_axis: Array,
    doublet: Doublet,
    tag: str,
    bar: bool,
    group: int = 0,
) -> tuple[list[WeakTerm], dict[str, float]]:
    """Entries of P(a = b1 = b2) (or the barred variant) with weak readings."""
    terms: list[WeakTerm] = []
    entries: dict[str, float] = {}
    for s in (+1, -1):
        sa = -s if bar else s
        pa = qubit_projector(a_axis, sa)
        pb1, pb2 = _b_pair_projectors(doublet, s)
        mark = "+" if s > 0 else "-"
        amark = "+" if sa > 0 else "-"
        label = f"{tag}a{amark}b1{mark}b2{mark}"
        term = _pp_term(
            state,
            _kron(pa.matrix, pb2.matrix),
            1,
            _kron(IDENTITY_2, pb1.matrix),
            f"{tag}a{amark}b2{mark} | b1{mark}",
            group=group,
        )
        terms.append(term)
        entries[label] = term.pseudo_probability
    return terms, entries


def _linear_range(variant: str) -> tuple[float, float]:
    return (0.0, 2.0 * math.pi / 3.0) if variant == "I" else (0.0, math.acos(-7.0 / 9.0))


def linear_ent_test(state: DensityMatrix, geom: EntanglementGeometry, variant: str = "I") -> TestReport:
    """Linear entanglement inequalities from equality pseudo-probabilities.

    Variant I sums P(a_i = b1 = b2) over the first two frame axes, variant II
    over all three.  Separable states keep the sum non-negative inside the
    aperture validity window; a negative value witnesses entanglement.
    """
    _require_dim(state, 4, "linear_ent_test")
    if variant not in ("I", "II"):
        raise InvalidInputError(f"variant must be 'I' or 'II', got {variant!r}")
    n_axes = 2 if variant == "I" else 3

    all_terms: list[WeakTerm] = []
    entries: dict[str, float] = {}
    closed = 0.0
    c = math.cos(geom.alpha / 2.0)
    for i in range(n_axes):
        a_axis = geom.a_axes[i]
        doublet = geom.b_doublets[i]
        terms, ent = _equality_entry_terms(state, a_axis, doublet, f"[{i + 1}]", bar=False)
        all_terms.extend(terms)
        entries.update(ent)
        C, _, _ = _two_qubit_correlations(state, a_axis, doublet.axis)
        closed += 0.5 * c * (c + C)
    statistic = float(sum(t.coefficient * t.pseudo_probability for t in all_terms))

    lo, hi = _linear_range(variant)
    warnings: tuple[str, ...] = ()
    if not (lo < geom.alpha <= hi + 1e-12):
        warnings = (
            f"alpha {geom.alpha:.6f} outside the validity window ({lo:.6f}, {hi:.6f}];"
            " separable states may also flag",
        )

    extras: dict[str, object] = {"pauli_closed_form": closed, "aperture_cos_half": c}
    if variant == "II":
        extras["werner_entry_closed_form"] = "(1/12)(1/3 - eta) at alpha = arccos(-7/9)"
        extras["quoted_form_note"] = (
            "the commonly quoted per-entry magnitude (1/8)(1/2 - eta) belongs to "
            "the two-axis variant; the constructive three-axis value "
            "(1/12)(1/3 - eta) is authoritative"
        )

    threshold, verdict = _verdict(statistic, VERDICT_NEGATIVE)
    return TestReport(
        name=f"linear-entanglement-{variant}",
        inputs={
            "state": _state_digest(state),
            "alpha": geom.alpha,
            "a_axes": [a.tolist() for a in geom.a_axes[:n_axes]],
            "b_axes": [b.tolist() for b in geom.b_axes[:n_axes]],
        },
        pseudo_probabilities=entries,
        weak_terms=tuple(all_terms),
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(lo, hi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_NEGATIVE,
        warnings=warnings,
        extras=extras,
    )


def _nonlinear_range(variant: str) -> tuple[float, float]:
    if variant == "I":
        return (0.0, math.pi / 2.0)
    if variant == "II":
        return (0.0, math.acos(-1.0 / 3.0))
    return (0.0, math.acos(-79.0 / 81.0))


def _side_pair_term(
    state: DensityMatrix,
    doublet: Doublet,
    side: int,
    s: int,
    label: str,
) -> WeakTerm:
    """Doublet-conjunction pseudo-probability on one side, outcomes (s, s)."""
    d1 = qubit_projector(doublet.n1, s).matrix
    d2 = qubit_projector(doublet.n2, s).matrix
    if side == 0:
        lead = _kron(d1, IDENTITY_2)
        rest = _kron(d2, IDENTITY_2)
    else:
        lead = _kron(IDENTITY_2, d1)
        rest = _kron(IDENTITY_2, d2)
    return _pp_term(state, lead, 2, rest, label)


def nonlinear_ent_test(state: DensityMatrix, geom: EntanglementGeometry, variant: str = "I") -> TestReport:
    """Nonlinear (bilinear) entanglement inequalities.

    Variants I and II sum P(a_i = b1 = b2) * P(not-a_i = b1 = b2) over two or
    three axes.  Variant III augments each equality pseudo-probability with
    eight half-weighted products of single-outcome probabilities and same-side
    doublet conjunctions; its classical floor is again zero.
    """
    _require_dim(state, 4, "nonlinear_ent_test")
    if variant not in ("I", "II", "III"):
        raise InvalidInputError(f"variant must be 'I', 'II' or 'III', got {variant!r}")
    n_axes = 2 if variant == "I" else 3
    c = math.cos(geom.alpha / 2.0)

    all_terms: list[WeakTerm] = []
    entries: dict[str, float] = {}
    closed = 0.0

    for i in range(n_axes):
        a_axis = geom.a_axes[i]
        a_doublet = geom.a_doublets[i]
        b_doublet = geom.b_doublets[i]
        tag = f"[{i + 1}]"
        C, A, B = _two_qubit_correlations(state, a_axis, b_doublet.axis)

        plain_terms, plain_entries = _equality_entry_terms(state, a_axis, b_doublet, tag, bar=False)
        entries.update(plain_entries)

        if variant in ("I", "II"):
            bar_terms, bar_entries = _equality_entry_terms(state, a_axis, b_doublet, tag + "~", bar=True)
            entries.update(bar_entries)
            for t1 in plain_terms:
                for t2 in bar_terms:
                    all_terms.append(_product_term(f"({t1.label})*({t2.label})", t1, t2, 1.0))
            closed += (c * c / 4.0) * (c * c - C * C)
        else:
            all_terms.extend(plain_terms)
            pa_plus = _born_only_term(state, _kron(qubit_projector(a_axis, +1).matrix, IDENTITY_2), f"{tag}a+")
            pa_minus = _born_only_term(state, _kron(qubit_projector(a_axis, -1).matrix, IDENTITY_2), f"{tag}a-")
            pb_plus = _born_only_term(state, _kron(IDENTITY_2, qubit_projector(b_doublet.axis, +1).matrix), f"{tag}b+")
            pb_minus = _born_only_term(state, _kron(IDENTITY_2, qubit_projector(b_doublet.axis, -1).matrix), f"{tag}b-")
            a_pair_mm = _side_pair_term(state, a_doublet, 0, -1, f"{tag}a1-a2-")
            a_pair_pp = _side_pair_term(state, a_doublet, 0, +1, f"{tag}a1+a2+")
            b_pair_mm = _side_pair_term(state, b_doublet, 1, -1, f"{tag}b1-b2-")
            b_pair_pp = _side_pair_term(state, b_doublet, 1, +1, f"{tag}b1+b2+")
            products = [
                (pa_plus, a_pair_mm),
                (pa_minus, a_pair_pp),
                (pb_plus, b_pair_mm),
                (pb_minus, b_pair_pp),
                (pa_plus, b_pair_mm),
                (pa_minus, b_pair_pp),
                (a_pair_mm, pb_plus),
                (a_pair_pp, pb_minus),
            ]
            for t1, t2 in products:
                all_terms.append(_product_term(f"({t1.label})*({t2.label})", t1, t2, 0.5))
            closed += 0.5 * c * (3.0 * c + C - 0.5 * (A + B) ** 2)

    statistic = statistic_from_terms(all_terms, RULE_SUM)
    lo, hi = _nonlinear_range(variant)
    warnings: tuple[str, ...] = ()
    if not (lo < geom.alpha <= hi + 1e-12):
        warnings = (
            f"alpha {geom.alpha:.6f} outside the validity window ({lo:.6f}, {hi:.6f}];"
            " separable states may also flag",
        )

    threshold, verdict = _verdict(statistic, VERDICT_NEGATIVE)
    return TestReport(
        name=f"nonlinear-entanglement-{variant}",
        inputs={
            "state": _state_digest(state),
            "alpha": geom.alpha,
            "a_axes": [a.tolist() for a in geom.a_axes[:n_axes]],
            "b_axes": [b.tolist() for b in geom.b_axes[:n_axes]],
        },
        pseudo_probabilities=entries,
        weak_terms=tuple(all_terms),
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(lo, hi),
        statistic_rule=RULE_SUM,
        verdict_rule=VERDICT_NEGATIVE,
        warnings=warnings,
        extras={"pauli_closed_form": closed, "aperture_cos_half": c},
    )


def discord_test(state: DensityMatrix, alpha: float) -> TestReport:
    """Discord witness from two mutually unbiased measurement branches.

    The first branch aligns with the reduced state's Bloch direction, the
    second with a mutually unbiased partner.  Each branch statistic combines
    an equality pseudo-probability with two factored correction products;
    zero-discord states keep at least one branch non-negative at every
    aperture, so both branches negative witnesses discord.
    """
    _require_dim(state, 4, "discord_test")
    if not (0.0 < alpha < math.pi):
        raise InvalidInputError(f"alpha must lie in (0, pi), got {alpha}")

    reduced = partial_trace(state.matrix, (2, 2), 0)
    r = np.array([float(np.real(np.trace(reduced @ pauli_vector(ax)))) for ax in ([1, 0, 0], [0, 1, 0], [0, 0, 1])])
    degenerate = bool(np.linalg.norm(r) < 1e-8)
    a1_axis = np.array([0.0, 0.0, 1.0]) if degenerate else r / np.linalg.norm(r)
    a2_axis = mub_partner(a1_axis)

    warnings: list[str] = []
    if degenerate:
        warnings.append("reduced state is maximally mixed; branch axis fixed to z")

    all_terms: list[WeakTerm] = []
    entries: dict[str, float] = {}
    branch_values: dict[str, float] = {}
    closed: dict[str, float] = {}
    c = math.cos(alpha / 2.0)

    for group, axis in ((1, a1_axis), (2, a2_axis)):
        doublet = make_doublet(axis, alpha)
        tag = f"[{group}]"
        eq_terms, eq_entries = _equality_entry_terms(state, axis, doublet, tag, bar=False, group=group)
        all_terms.extend(eq_terms)
        entries.update(eq_entries)
        pa_plus = _born_only_term(state, _kron(qubit_projector(axis, +1).matrix, IDENTITY_2), f"{tag}a+")
        pa_minus = _born_only_term(state, _kron(qubit_projector(axis, -1).matrix, IDENTITY_2), f"{tag}a-")
        b_pair_mm = _side_pair_term(state, doublet, 1, -1, f"{tag}b1-b2-")
        b_pair_pp = _side_pair_term(state, doublet, 1, +1, f"{tag}b1+b2+")
        all_terms.append(_product_term(f"({pa_plus.label})*({b_pair_mm.label})", pa_plus, b_pair_mm, 1.0, group))
        all_terms.append(_product_term(f"({pa_minus.label})*({b_pair_pp.label})", pa_minus, b_pair_pp, 1.0, group))

        branch = sum(t.coefficient * t.pseudo_probability for t in all_terms if t.group == group)
        branch_values[f"branch_{group}"] = float(branch)
        C, A, B = _two_qubit_correlations(state, axis, axis)
        closed[f"branch_{group}_closed_form"] = 0.5 * c * (2.0 * c + C - A * B)

    statistic = statistic_from_terms(all_terms, RULE_MAX_GROUP)
    threshold, verdict = _verdict(statistic, VERDICT_NEGATIVE)
    return TestReport(
        name="discord",
        inputs={
            "state": _state_digest(state),
            "alpha": alpha,
            "branch_axes": [a1_axis.tolist(), a2_axis.tolist()],
        },
        pseudo_probabilities={**entries, **branch_values},
        weak_terms=tuple(all_terms),
        statistic=statistic,
        threshold=threshold,
        verdict=verdict,
        alpha_valid_range=(0.0, math.pi),
        statistic_rule=RULE_MAX_GROUP,
        verdict_rule=VERDICT_NEGATIVE,
        warnings=tuple(warnings),
        extras={**closed, "degenerate_marginal": degenerate},
    )
