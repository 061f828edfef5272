"""Witness terms compiled as stacks give the bits of the per-spec code.

The code between the two rules below is a verbatim copy of the per-spec
`pseudoprojection._ordered_product` and `_ordering_sum`, `weak._compile_terms`,
`witnesses._BLOCKS`, `_tagged`, `_compile_blocks`, `_product_term`, `_evaluate`
and `boolean_state_indep_test`, which built one ordered product and one compile
spec at a time and evaluated one aperture at a time (`_compile_blocks` and
`_evaluate` only add a loop over a leading aperture axis around that code).
Each test computes reports with the library, then again with these oracles
patched in (the library's stacked `_compile_terms` calls replayed
one spec at a time through the oracle compile), and compares every number by
`float.hex` and every other value exactly.  The inputs are seeded states and
axes, and states whose rank-2 leads fall below the overlap floor.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix, ObservableSpec, Projector, bloch_state, chsh_test, coherence_test, boolean_state_dep_test,
    convex_pp, discord_test, distributivity_test, linear_ent_test, make_doublet, make_entanglement_geometry,
    nonlinear_ent_test, pp_weak_factorization, qubit_projector, real_weak_product, symmetrized_pp, unit_pp, werner_state,
)
from pplab import pseudoprojection, weak, witnesses
from pplab.geometry import _pauli_coordinates
from pplab.operator_core import STRUCTURAL_TOL, _expectations, _kron
from pplab.pseudoprojection import _convex_weights, _herm, distinct_orderings
from pplab.scheme import _MARK
from pplab.weak import OVERLAP_FLOOR, _Terms
from pplab.witnesses import (
    _CANONICAL_QUBITS, _ENTRY_NAMES, _MAXIMALLY_MIXED, _NO_STATE, VERDICT_MAGNITUDE, WeakTerm, _axis_angle, _embed,
    _pp_terms, _qubit_axes, _report, _rows,
)

from support import ginibre_density, haar_projector, random_unit_vector

# ---------------------------------------------------------------------------
# oracles: the per-spec code


def _ordered_product(mats: tuple[Array, ...], order: tuple[int, ...]) -> Array:
    prod = mats[order[0]].copy()
    for i in order[1:]:
        prod = prod @ mats[i]
    return prod


def _ordering_sum(mats: Sequence[Array], orders: object, weights: object) -> Array:
    """sum_k w_k Herm(P_k), P_k the product of the square `mats` in orders[k]:
    every prescription below, one ordered product at a time."""
    acc = np.zeros_like(mats[0])
    for wi, order in zip(weights, orders):  # type: ignore[call-overload]
        acc = acc + wi * _herm(_ordered_product(mats, order))
    return acc


def _compile_terms(specs: list[tuple]) -> _Terms:
    """Compile (lead, rank, rest, label, coefficient, group) specs, each for
    <(1/2)(lead rest + h.c.)>, into the stack `_born_weak` contracts with a
    state.  A rest of None marks a plain Born term: its weak part is exactly 1.
    Each lead/rank must be a state, as for the projectors the library builds; it is not checked here."""
    leads, ranks, rests, labels, coefficients, groups = zip(*specs)
    leads = np.array(leads)
    ranks = np.array(ranks, dtype=float)
    weak = np.array([r is not None for r in rests])
    eye = np.eye(leads.shape[-1])
    products = leads @ np.array([eye if r is None else r for r in rests])
    return _Terms(labels, coefficients, groups, weak, ranks * OVERLAP_FLOOR, np.concatenate([leads, products]))


_BLOCKS = {
    "equality": lambda P: (_kron(P[:, 0], P[:, 2]), 1, _embed(P[:, 1], 1), "{t}a{s}b2{s} | b1{s}"),
    "barred": lambda P: (_kron(P[:, 0, ::-1], P[:, 2]), 1, _embed(P[:, 1], 1), "{t}~a{f}b2{s} | b1{s}"),
    "a-pairs": lambda P: (_embed(P[:, 3], 0), 2, _embed(P[:, 4], 0), "{t}a1{s}a2{s}"),
    "b-pairs": lambda P: (_embed(P[:, 1], 1), 2, _embed(P[:, 2], 1), "{t}b1{s}b2{s}"),
    "a": lambda P: (_embed(P[:, 0], 0), 1, None, "{t}a{s}"),
    "b": lambda P: (_embed(P[:, 5], 1), 1, None, "{t}b{s}"),
}


def _tagged(template: str, i: int, o: int) -> str:
    """`template` at axis i, tagged [i+1], and outcome index o of a projector stack."""
    return template.format(t=f"[{i + 1}]", s=_MARK[o], f=_MARK[1 - o])


def _compile_blocks(P: Array, blocks: Sequence[str], groups: Sequence[int]) -> _Terms:
    """The terms of `blocks`, block after block, over the axes of the projector
    stack P; axis i is tagged [i+1] and its terms are in groups[i].  A P with a
    leading axis holds one such stack per aperture, compiled aperture after aperture."""
    specs = []
    for stack in P.reshape(-1, *P.shape[-5:]):
        for block in blocks:
            leads, rank, rests, label = _BLOCKS[block](stack)
            specs += [
                (leads[i, o], rank, None if rests is None else rests[i, o], _tagged(label, i, o), 1.0, group)
                for i, group in enumerate(groups) for o in (0, 1)
            ]
    return _compile_terms(specs)


def _product_term(t1: WeakTerm, t2: WeakTerm, coefficient: float) -> WeakTerm:
    """Composite term "(l1)*(l2)" for the product of two pseudo-probabilities, in t1's group."""
    label = f"({t1.label})*({t2.label})"
    born = t1.born_factor * t2.born_factor
    if t1.weak_value is None or t2.weak_value is None:
        return WeakTerm(label, born, None, 0.0, coefficient, t1.group)
    weak = t1.weak_value * t2.weak_value
    return WeakTerm(label, born, weak, t1.pseudo_probability * t2.pseudo_probability, coefficient, t1.group)


def _aperture_terms(terms: _Terms, k: int, size: int) -> _Terms:
    """The `size` terms of aperture k, of terms compiled aperture after aperture."""
    n, pick = len(terms.labels), slice(k * size, (k + 1) * size)
    ops = np.concatenate([terms.ops[:n][pick], terms.ops[n:][pick]])
    return _Terms(terms.labels[pick], terms.coefficients[pick], terms.groups[pick], terms.weak[pick], terms.floors[pick], ops)


def _evaluate(
    w: _Witness, state: DensityMatrix, table: Array, terms: _Terms, blocks: tuple[str, ...],
    axes: list[tuple[Array, Array]], alphas: list[float],
) -> list[tuple[dict[str, float], list[list[WeakTerm]], list[float]]]:
    """`_evaluate_one` at each aperture of `alphas` in turn, on that aperture's own terms;
    each computes the Pauli table of `state` itself, so `table` is not read."""
    size = len(terms.labels) // len(alphas)
    return [_evaluate_one(w, state, _aperture_terms(terms, k, size), blocks, axes, alpha) for k, alpha in enumerate(alphas)]


def _evaluate_one(
    w: _Witness, state: DensityMatrix, terms: _Terms, blocks: tuple[str, ...], axes: list[tuple[Array, Array]], alpha: float,
) -> tuple[dict[str, float], list[list[WeakTerm]], list[float]]:
    """The entries, the weak terms of each axis and each axis's closed form of the
    test `w` on `state`, at `axes`, pairs (a, b) of an a axis and a b-doublet axis;
    `terms` hold `blocks` compiled over these axes or more."""
    rows = _rows(w, blocks, len(terms.labels) // (2 * len(blocks)), len(axes))
    weak_terms = _pp_terms(state, terms)
    t = {key: weak_terms[row] for key, row in rows.items()}
    table = _pauli_coordinates(state.matrix)
    r, s, T = table[1:, 0], table[0, 1:], table[1:, 1:]
    c = math.cos(alpha / 2.0)
    entries: dict[str, float] = {}
    per_axis, closed = [], []
    for i, (a, b) in enumerate(axes):
        entries.update(
            (_tagged(_ENTRY_NAMES[block], i, o), t[block, i, o].pseudo_probability) for block in w.entries for o in (0, 1)
        )
        per_axis.append([t[block, i, o] for block in w.summed for o in (0, 1)]
                        + [_product_term(t[x, i, o], t[y, i, p], k) for (x, o), (y, p), k in w.products])
        closed.append(w.closed(c, float(a @ T @ b), float(r @ a), float(s @ b)))
    return entries, per_axis, closed


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
    mats = (P[0, 0], P[1, 0], P[0, 1], P[1, 1])
    orders = distinct_orderings(4)
    pp = _ordering_sum(mats, orders, _convex_weights(4, None))
    values = {name: _expectations(rho, pp) for name, rho in _CANONICAL_QUBITS}
    statistic = values["maximally-mixed"]
    spread = max(values.values()) - min(values.values())

    # Weak decomposition against the maximally mixed state, one term per
    # distinct ordering of the four factors.
    terms = _pp_terms(_MAXIMALLY_MIXED, _compile_terms([
        (mats[order[0]], 1, _ordered_product(mats, order[1:]), "ordering " + "".join(map(str, order)), 1.0 / 12.0, 0)
        for order in orders
    ]))

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


# ---------------------------------------------------------------------------


def _per_spec(leads, ranks, rests, has_rest, labels, coefficients, groups):
    """A stacked `_compile_terms` call replayed one spec at a time through the oracle compile."""
    return _compile_terms([
        (lead, rank, rest if h else None, label, c, g)
        for lead, rank, rest, h, label, c, g in zip(leads, ranks, rests, has_rest, labels, coefficients, groups)
    ])


def _hexed(x):
    """`x` with every float (and each part of every complex, array entries included) as float.hex."""
    if isinstance(x, (np.ndarray, np.generic)):
        return _hexed(x.tolist())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x


def _flat(result):
    """Every number of a report, a pseudo-projection or a factorization dict."""
    if isinstance(result, witnesses.TestReport):
        return _hexed(result.to_json_dict())
    if isinstance(result, pseudoprojection.PseudoProjection):
        return _hexed([result.matrix, result.prescription, result.weights])
    return _hexed(result)


def _oracles(monkeypatch):
    monkeypatch.setattr(witnesses, "_compile_blocks", _compile_blocks)
    monkeypatch.setattr(witnesses, "_evaluate", _evaluate)
    monkeypatch.setattr(witnesses, "boolean_state_indep_test", boolean_state_indep_test)
    for module in (pseudoprojection, weak, witnesses):
        monkeypatch.setattr(module, "_ordering_sum", _ordering_sum)
    for module in (weak, witnesses):
        monkeypatch.setattr(module, "_compile_terms", _per_spec)
    monkeypatch.setattr(weak, "_ordered_products", lambda mats, orders: np.array([_ordered_product(mats, o) for o in orders]))


def _same_bits(monkeypatch, calls):
    """Each call of `calls` gives the same numbers with the library as with the oracles."""
    library = [_flat(call()) for call in calls]
    with monkeypatch.context() as m:
        _oracles(m)
        oracle = [_flat(call()) for call in calls]
    for got, want in zip(library, oracle):
        assert got == want


def _born_just_above_floor(doublet, side, other):
    near = bloch_state(-doublet.n1 * (1 - 3e-12)).matrix
    return DensityMatrix(np.kron(near, other) if side == 0 else np.kron(other, near))


def _two_qubit_calls(rho, alpha, a_frame=None, b_frame=None):
    """Every two-qubit report on `rho`; each call builds its own geometry, whose compiled terms it keeps."""
    geom = lambda: make_entanglement_geometry(alpha, a_frame, b_frame)  # noqa: E731
    return [
        *(lambda v=v: linear_ent_test(rho, geom(), v) for v in ("I", "II")),
        *(lambda v=v: nonlinear_ent_test(rho, geom(), v) for v in ("I", "II", "III")),
        lambda: discord_test(rho, alpha),
    ]


def test_two_qubit_reports_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(23)
    calls = []
    for _ in range(3):
        frames = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2)]
        alpha = float(rng.uniform(0.3, math.pi - 0.3))
        calls += _two_qubit_calls(ginibre_density(rng, 4), alpha, *frames)
        specs = [ObservableSpec(sub, axis=random_unit_vector(rng)) for sub in (0, 0, 1, 1)]
        calls.append(lambda rho=ginibre_density(rng, 4), specs=specs: chsh_test(rho, *specs))
    calls += _two_qubit_calls(werner_state(0.9), 2.0)
    calls.append(lambda: discord_test(DensityMatrix(np.kron(qubit_projector([1, 0, 0]).matrix, np.eye(2) / 2)), 1.3))
    _same_bits(monkeypatch, calls)


def test_rank_two_leads_below_the_overlap_floor_keep_their_bits(monkeypatch):
    geom = make_entanglement_geometry(math.pi / 2)
    rho = _born_just_above_floor(geom.a_doublets[0], 0, np.eye(2) / 2)
    doublet = make_doublet([0.0, 0.0, 1.0], math.pi / 2)
    rho_discord = _born_just_above_floor(doublet, 1, bloch_state([0.0, 0.0, 0.5]).matrix)
    _same_bits(monkeypatch, [*_two_qubit_calls(rho, math.pi / 2), lambda: discord_test(rho_discord, math.pi / 2)])
    assert [t.label for t in discord_test(rho_discord, math.pi / 2).weak_terms if t.weak_value is None] == [
        "([1]a-)*([1]b1+b2+)"
    ]


def test_single_qubit_reports_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(29)
    calls = []
    for _ in range(4):
        rho = ginibre_density(rng, 2)
        a1, a2, a3 = (random_unit_vector(rng) for _ in range(3))
        calls += [
            lambda rho=rho, a1=a1, a2=a2: coherence_test(rho, a1, a2),
            lambda rho=rho, a1=a1, a2=a2: boolean_state_dep_test(rho, a1, a2),
            lambda a1=a1, a2=a2: witnesses.boolean_state_indep_test(a1, a2),
            lambda rho=rho, a=(a1, a2, a3): distributivity_test(rho, *a),
        ]
    calls.append(lambda: witnesses.boolean_state_indep_test([0, 0, 1], [1, 0, 0]))
    _same_bits(monkeypatch, calls)


def test_chsh_labels_follow_the_observables_and_outcomes():
    specs = [ObservableSpec(sub, axis=axis) for sub, axis in zip((0, 0, 1, 1), ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]))]
    report = chsh_test(werner_state(1.0), *specs)
    assert [t.label for t in report.weak_terms] == [
        f"A{a + 1}{_MARK[o]}B1{_MARK[o]} | B2{_MARK[o ^ a]}" for a in (0, 1) for o in (0, 1)
    ]


def test_pseudo_projections_and_factorizations_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(31)
    calls = []
    for n in (2, 3, 4):
        qubits = [qubit_projector(random_unit_vector(rng), int(rng.choice([1, -1]))) for _ in range(n)]
        weights = rng.dirichlet(np.ones(math.factorial(n) // 2))
        calls += [
            lambda fs=qubits: unit_pp(fs),
            lambda fs=qubits: symmetrized_pp(fs),
            lambda fs=qubits, w=weights: convex_pp(fs, w),
            lambda fs=qubits, rho=ginibre_density(rng, 2): pp_weak_factorization(rho, fs),
        ]
    # 360 orderings of 16 x 16 factors run in two batches; 1 x 1 factors sum 60 equal terms.
    wide = [haar_projector(rng, 16, 1 + k % 3) for k in range(6)]
    calls += [lambda: symmetrized_pp(wide), lambda: symmetrized_pp([Projector(np.eye(1))] * 5)]
    rho, post, factors = ginibre_density(rng, 4), ginibre_density(rng, 4), [haar_projector(rng, 4, 2) for _ in range(3)]
    calls += [lambda: pp_weak_factorization(rho, factors), lambda: real_weak_product(factors, rho, post)]
    _same_bits(monkeypatch, calls)


@pytest.mark.parametrize("n", [2, 6])
def test_the_oracles_are_what_the_library_replaced(n):
    """Sanity check of the comparison: the oracle ordering sum builds the library's matrix at all."""
    rng = np.random.default_rng(n)
    fs = [haar_projector(rng, 3) for _ in range(n)]
    mats = [f.matrix for f in fs]
    assert np.allclose(_ordering_sum(mats, distinct_orderings(n), _convex_weights(n, None)), symmetrized_pp(fs).matrix)
