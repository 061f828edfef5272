"""Entanglement geometries are immutable and compile their witness terms once.

A geometry keeps read-only copies of its axes, so the terms it compiles on
first use cannot go stale; every entanglement variant then reads its rows of
that one compiled stack, with the same reports as a freshly built geometry.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import (
    DensityMatrix,
    EntanglementGeometry,
    ObservableSpec,
    bloch_state,
    boolean_state_dep_test,
    boolean_state_indep_test,
    chsh_test,
    coherence_test,
    discord_test,
    distributivity_test,
    linear_ent_test,
    make_doublet,
    make_entanglement_geometry,
    nonlinear_ent_test,
)
from pplab import witnesses
from support import ginibre_density, random_unit_vector

VARIANTS = [
    (linear_ent_test, "I"),
    (linear_ent_test, "II"),
    (nonlinear_ent_test, "I"),
    (nonlinear_ent_test, "II"),
    (nonlinear_ent_test, "III"),
]


def _frame(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def _assert_close(x, y, path=()):
    if isinstance(x, dict):
        assert list(x) == list(y), path
        for k in x:
            _assert_close(x[k], y[k], path + (k,))
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (u, v) in enumerate(zip(x, y)):
            _assert_close(u, v, path + (i,))
    elif isinstance(x, float) and isinstance(y, float):
        assert abs(x - y) <= 1e-12, (path, x, y)
    else:
        assert x == y, (path, x, y)


def _hexed(x):
    """`x` with every float as float.hex."""
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x.hex() if isinstance(x, float) else x


def test_geometry_keeps_read_only_copies_of_its_frames():
    f = np.eye(3)
    geom = make_entanglement_geometry(1.0, f, f)
    f[0] = [0.0, 1.0, 0.0]
    report = linear_ent_test(ginibre_density(np.random.default_rng(5), 4), geom, "I")
    assert report.inputs["a_axes"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert report.inputs["b_axes"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    vectors = [*geom.a_axes, *geom.b_axes]
    for d in (*geom.a_doublets, *geom.b_doublets):
        vectors += [d.n1, d.n2, d.axis]
    assert not any(v.flags.writeable for v in vectors)
    with pytest.raises(ValueError):
        geom.a_axes[0][0] = 0.0


def test_doublets_and_direct_geometries_copy_their_vectors():
    axis = np.array([0.0, 0.0, 1.0])
    doublet = make_doublet(axis, 1.0)
    axis[:] = [1.0, 0.0, 0.0]
    assert doublet.axis.tolist() == [0.0, 0.0, 1.0]

    built = make_entanglement_geometry(1.0)
    axes = [np.array(v) for v in built.a_axes]
    geom = EntanglementGeometry(built.alpha, axes, axes, list(built.a_doublets), list(built.b_doublets))
    axes[0][:] = [0.0, 1.0, 0.0]
    assert geom.a_axes[0].tolist() == [1.0, 0.0, 0.0]
    assert isinstance(geom.a_doublets, tuple) and not geom.b_axes[0].flags.writeable


@pytest.mark.parametrize("seed", range(4))
def test_variants_in_any_order_match_a_fresh_geometry_per_call(seed):
    rng = np.random.default_rng(900 + seed)
    alpha = float(rng.uniform(0.3, math.pi - 0.3))
    a_frame, b_frame = _frame(rng), _frame(rng)
    shared = make_entanglement_geometry(alpha, a_frame, b_frame)
    order = [VARIANTS[i] for i in rng.permutation(len(VARIANTS))]
    if seed == 0:
        order = VARIANTS[::-1]  # nonlinear III first, linear I last
    states = []
    for _ in range(2):
        state = ginibre_density(rng, 4)
        states.append(state)
        for test, variant in order:
            fresh = test(state, make_entanglement_geometry(alpha, a_frame, b_frame), variant)
            _assert_close(test(state, shared, variant).to_json_dict(), fresh.to_json_dict())
    # Two states alternating on the shared geometry, each keeping its own evaluation of its
    # terms, give the reports of a fresh state on a fresh geometry, bit for bit.
    for test, variant in order:
        for state in states:
            fresh = test(DensityMatrix(state.matrix), make_entanglement_geometry(alpha, a_frame, b_frame), variant)
            assert _hexed(test(state, shared, variant).to_json_dict()) == _hexed(fresh.to_json_dict())


def test_a_geometry_compiles_once(monkeypatch):
    calls = []
    compile_geometry = witnesses._compile_geometry

    def counting(geom):
        calls.append(geom)
        return compile_geometry(geom)

    monkeypatch.setattr(witnesses, "_compile_geometry", counting)
    rng = np.random.default_rng(31)
    geom = make_entanglement_geometry(1.2, _frame(rng), _frame(rng))
    for _ in range(3):
        state = ginibre_density(rng, 4)
        for test, variant in VARIANTS:
            test(state, geom, variant)
    assert calls == [geom]
    other = make_entanglement_geometry(1.2)
    linear_ent_test(ginibre_density(rng, 4), other, "II")
    assert calls == [geom, other]


def test_weak_term_counts_of_one_battery_point():
    rng = np.random.default_rng(47)
    rho2, rho1 = ginibre_density(rng, 4), bloch_state([0.3, -0.2, 0.5])
    a1, a2, a3 = (random_unit_vector(rng) for _ in range(3))
    geom = make_entanglement_geometry(1.1, _frame(rng), _frame(rng))
    chsh = [ObservableSpec(sub, axis=random_unit_vector(rng)) for sub in (0, 0, 1, 1)]
    reports = {
        "coherence": coherence_test(rho1, a1, a2),
        "boolean_dep": boolean_state_dep_test(rho1, a1, a2),
        "boolean_indep": boolean_state_indep_test(a1, a2),
        "distributivity": distributivity_test(rho1, a1, a2, a3),
        "chsh": chsh_test(rho2, *chsh),
        **{f"{test.__name__}/{v}": test(rho2, geom, v) for test, v in VARIANTS},
        "discord": discord_test(rho2, 1.1),
    }
    counts = {name: len(r.weak_terms) for name, r in reports.items()}
    assert counts == {
        "coherence": 1, "boolean_dep": 2, "boolean_indep": 12, "distributivity": 3, "chsh": 4,
        "linear_ent_test/I": 4, "linear_ent_test/II": 6,
        "nonlinear_ent_test/I": 8, "nonlinear_ent_test/II": 12, "nonlinear_ent_test/III": 30,
        "discord": 8,
    }
    assert len(reports) == 11 and sum(counts.values()) == 90


def _doublet_by_loop(axis: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One axis at a time: cross with z unless nearly parallel to it, then with x."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(axis, ref)
    u = u / np.linalg.norm(u)
    return math.cos(alpha / 2) * axis + math.sin(alpha / 2) * u, math.cos(alpha / 2) * axis - math.sin(alpha / 2) * u


@pytest.mark.parametrize("seed", range(3))
def test_vectorized_doublets_match_the_per_axis_construction(seed):
    rng = np.random.default_rng(60 + seed)
    alpha = float(rng.uniform(0.1, math.pi - 0.1))
    # A frame with one axis within the cutoff of z exercises both references.
    a_frame = _frame(rng) if seed else np.eye(3)
    geom = make_entanglement_geometry(alpha, a_frame, _frame(rng))
    for axis, doublet in zip((*geom.a_axes, *geom.b_axes), (*geom.a_doublets, *geom.b_doublets)):
        n1, n2 = _doublet_by_loop(axis, alpha)
        np.testing.assert_allclose(doublet.n1, n1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(doublet.n2, n2, rtol=0, atol=1e-15)
        single = make_doublet(axis, alpha)
        np.testing.assert_allclose(single.n1, n1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(single.n2, n2, rtol=0, atol=1e-15)
