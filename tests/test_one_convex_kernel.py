"""Weighted convex subset moments against the prefix-stack kernel they replace.

`_ordered_moments(mats, "convex", w)` builds each subset's moment as the convex
mixture over that subset's own orderings, weighted by what the full weights
induce on it, with the batched `_ordering_sum` that `convex_pp` also runs, so
`convex_pp` is no independent check of it.  `_prefix_stack_moments` below is a
verbatim copy of the earlier convex branch, which summed over the orderings of
all k operators through one prefix stack of 2^k products per ordering; it is
the oracle for k = 2...6.  At k = 7 and 8 that branch takes seconds, and a
per-ordering Python loop checks the full set and two seeded subsets instead.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from pplab.pseudoprojection import _CONVEX_CHUNK_ENTRIES, _herm, _ordered_moments, _ordering_array, _ordering_sum, distinct_orderings

from support import haar_projector


def _prefix_stack_moments(mats, weights):
    """The convex branch of `_ordered_moments` before the batched kernel, verbatim."""
    a = np.asarray(mats, dtype=complex)
    k, d = a.shape[0], a.shape[-1]
    out = np.empty((1 << k, d, d), dtype=complex)
    out[0] = np.eye(d)
    w = np.asarray(weights)
    orders = _ordering_array(k)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    out[:] = 0.0
    chunk = max(1, _CONVEX_CHUNK_ENTRIES // (d * d << k))
    for lo in range(0, len(orders), chunk):
        block = orders[lo : lo + chunk]
        # Prefix stack per ordering: slot bit p stands for operator block[:, p].
        prefix = np.empty((len(block), 1 << k, d, d), dtype=complex)
        prefix[:, 0] = np.eye(d)
        for p in range(k):
            prefix[:, 1 << p : 2 << p] = prefix[:, : 1 << p] @ a[block[:, p]][:, None]
        slots = (1 << np.argsort(block, axis=1)) @ bits.T
        by_subset = prefix[np.arange(len(block))[:, None], slots]
        out += np.einsum("s,s...->...", w[lo : lo + chunk], by_subset)
    return _herm(out)


def _per_ordering_moments(mats, weights, masks):
    """For each of `masks`, sum_order w_order Herm(product of its operators in that ordering of all k), one
    ordering at a time."""
    ops, acc = list(mats), np.zeros((len(masks), *mats[0].shape), dtype=complex)
    for w, order in zip(weights, distinct_orderings(len(ops))):
        for j, mask in enumerate(masks):
            acc[j] += w * functools.reduce(np.matmul, [ops[i] for i in order if mask >> i & 1])
    return _herm(acc)


def _observables(rng, k, d):
    """k dichotomic observables 2P - I, each P a Haar-random projector of rank d/2."""
    return np.array([2.0 * haar_projector(rng, d, d // 2).matrix - np.eye(d) for _ in range(k)])


def _weight_vectors(rng, k):
    m = math.factorial(k) // 2
    one_hot = np.zeros(m)
    one_hot[rng.integers(m)] = 1.0
    return {"dirichlet": rng.dirichlet(np.ones(m)), "one-hot": one_hot, "uniform": np.full(m, 1.0 / m)}


@pytest.mark.parametrize("k, d", [(k, d) for k in range(2, 7) for d in (2, 4, 8)] + [(6, 16)])
def test_convex_subset_moments_match_the_prefix_stack(k, d):
    if d == 16:  # the size-6 and size-5 levels each span two chunks of the ordering sum
        assert len(_ordering_array(6)) * d * d > _CONVEX_CHUNK_ENTRIES
        assert 6 * len(_ordering_array(5)) * d * d > _CONVEX_CHUNK_ENTRIES
    rng = np.random.default_rng(1000 * k + d)
    mats = _observables(rng, k, d)
    for name, w in _weight_vectors(rng, k).items():
        got, want = _ordered_moments(mats, "convex", w), _prefix_stack_moments(mats, w)
        assert got.shape == want.shape == (1 << k, d, d)
        assert np.abs(got - want).max() <= 1e-12, name


@pytest.mark.parametrize("k", [7, 8])
def test_convex_moments_of_seven_and_eight_match_the_per_ordering_sum(k):
    rng = np.random.default_rng(k)
    mats = _observables(rng, k, 2)
    w = rng.dirichlet(np.ones(math.factorial(k) // 2))
    moments = _ordered_moments(mats, "convex", w)
    subsets = [sum(1 << int(i) for i in rng.choice(k, size=size, replace=False)) for size in (3, k - 2)]
    masks = [(1 << k) - 1, *subsets]
    assert np.abs(moments[masks] - _per_ordering_moments(mats, w, masks)).max() <= 1e-12


@pytest.mark.parametrize("r, d, n", [(2, 2, 5), (3, 4, 4), (5, 16, 6)])
def test_a_batched_ordering_sum_gives_each_entry_the_bits_of_its_own_call(r, d, n):
    """(5, 16, 6) runs in two chunks as a batch and in one alone."""
    rng = np.random.default_rng(r * d)
    mats = rng.normal(size=(n, r, d, d)) + 1j * rng.normal(size=(n, r, d, d))
    orders = _ordering_array(r)
    weights = rng.dirichlet(np.ones(len(orders)), size=n)
    batched = _ordering_sum(mats, orders, weights)
    assert batched.shape == (n, d, d)
    for entry, m, w in zip(batched, mats, weights):
        alone = _ordering_sum(m, orders, w)
        assert [x.hex() for x in entry.view(float).ravel()] == [x.hex() for x in alone.view(float).ravel()]
