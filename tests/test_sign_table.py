"""A scheme table is read through one cached +-1 sign table.

`_walsh_hadamard` multiplies each row by the Sylvester table `_hadamard(2^n)`,
one vector-matrix product per row, so a row's bits do not depend on the stack
it is in.  `_joint_moments` contracts one subsystem at a time with the 2-D
product `np.tensordot` would make.  The butterfly and the tensordot loop they
replaced are kept here as independent oracles.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from pplab import ObservableSpec, build_scheme
from pplab.scheme import _hadamard, _joint_moments, _walsh_hadamard
from support import ginibre_density, random_unit_vector

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def butterfly(v: np.ndarray) -> np.ndarray:
    """The fast Walsh-Hadamard transform of each row, n levels of sums and differences."""
    rows, size = v.shape
    h = 1
    while h < size:
        pairs = v.reshape(-1, 2, h)
        v = np.concatenate((pairs[:, :1] + pairs[:, 1:], pairs[:, :1] - pairs[:, 1:]), axis=1)
        h *= 2
    return v.reshape(rows, size)


def tensordot_moments(rhos: np.ndarray, dims: list[int], stacks: list[np.ndarray]) -> np.ndarray:
    """`_joint_moments` as np.tensordot computes it, one subsystem at a time."""
    g = len(dims)
    interleave = [0, *(1 + axis for sub in range(g) for axis in (g + sub, sub))]
    t = rhos.reshape([len(rhos)] + dims + dims).transpose(interleave).reshape([len(rhos)] + [d * d for d in dims])
    for stack in stacks:
        t = np.tensordot(t, stack.reshape(len(stack), -1), axes=([1], [1]))
    return t.real


@pytest.mark.parametrize("n, rows", itertools.product(range(1, 9), (1, 3, 129)))
def test_sign_table_product_agrees_with_the_butterfly(n, rows):
    v = np.random.default_rng([n, rows]).normal(size=(rows, 2**n))
    table = _walsh_hadamard(v)
    assert table.shape == v.shape
    # Each output sums 2^n terms of size at most max|v|: n roundings of that sum bound the gap.
    bound = 2 * n * np.finfo(float).eps * 2**n * np.abs(v).max()
    assert np.abs(table - butterfly(v)).max() <= bound


@pytest.mark.parametrize("n, rows", itertools.product(range(1, 9), (3, 129)))
def test_stacked_sign_table_product_equals_row_by_row(n, rows):
    v = np.random.default_rng([n, rows, 1]).normal(size=(rows, 2**n))
    one_by_one = np.concatenate([_walsh_hadamard(row[None]) for row in v])
    assert _walsh_hadamard(v).tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("n", range(0, 9))
def test_sign_table_is_cached_read_only_and_sylvester(n):
    table = _hadamard(2**n)
    assert _hadamard(2**n) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    sylvester = np.ones((1, 1))
    for _ in range(n):
        sylvester = np.kron(sylvester, [[1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(table, sylvester)


@pytest.mark.parametrize("layout, count", itertools.product([(1,), (2, 1), (1, 2), (2, 2), (3, 1), (4, 4)], (1, 7)))
def test_joint_moments_have_the_bits_of_tensordot(layout, count):
    rng = np.random.default_rng([len(layout), *layout, count])
    dims = [2] * len(layout)
    size = 2 ** len(layout)
    rhos = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
    stacks = [rng.normal(size=(2**k, 2, 2)) + 1j * rng.normal(size=(2**k, 2, 2)) for k in layout]
    moments = _joint_moments(rhos, dims, stacks)
    oracle = tensordot_moments(rhos, dims, stacks)
    assert moments.shape == oracle.shape == (count, *(2**k for k in layout))
    assert moments.tobytes() == oracle.tobytes()


def _reference_entries(rho: np.ndarray, axes: list[np.ndarray], layout: tuple[int, ...], prescription: str) -> list[float]:
    """Each entry from its definition in plain numpy: per subsystem, the Hermitian part of the ascending product
    of the outcome projectors (unit) or the average over every ordering of them (symmetrized), tensored and
    traced with the state."""
    sigmas = [np.tensordot(a, PAULIS, axes=1) for a in axes]
    entries = []
    for outcome in itertools.product((+1, -1), repeat=len(axes)):
        projectors = [(np.eye(2) + s * m) / 2 for s, m in zip(outcome, sigmas)]
        joint, start = np.eye(1), 0
        for k in layout:
            group = projectors[start : start + k]
            start += k
            orders = [range(k)] if prescription == "unit" else list(itertools.permutations(range(k)))
            factor = sum(functools.reduce(np.matmul, [group[i] for i in order]) for order in orders)
            factor = factor / len(orders)
            joint = np.kron(joint, (factor + factor.conj().T) / 2)
        entries.append(float(np.trace(rho @ joint).real))
    return entries


@pytest.mark.parametrize("layout, prescription", [((8,), "unit"), ((4, 4), "unit"), ((4, 4), "symmetrized")])
def test_eight_observable_tables_match_the_definition(layout, prescription):
    rng = np.random.default_rng([8, *layout])
    rho = ginibre_density(rng, 2 ** len(layout))
    axes = [random_unit_vector(rng) for _ in range(sum(layout))]
    subsystems = [sub for sub, k in enumerate(layout) for _ in range(k)]
    scheme = build_scheme(rho, [ObservableSpec(sub, axis=a) for sub, a in zip(subsystems, axes)], prescription)
    reference = _reference_entries(rho.matrix, axes, layout, prescription)
    assert len(scheme.entries) == 256
    assert np.abs(np.subtract(list(scheme.entries.values()), reference)).max() <= 1e-12
