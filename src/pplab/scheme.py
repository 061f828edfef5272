"""Joint pseudo-probability schemes over dichotomic observables.

A scheme is the full table of pseudo-probabilities for all 2^N joint
outcomes of N dichotomic observables spread over subsystems.  Observables
sharing a subsystem enter through a pseudo-projection; different subsystems
tensor together.  Entries always sum to 1, and dropping any observable
marginalizes exactly onto the scheme of the remaining ones, with single
surviving observables reducing to Born probabilities.

Construction.  A pseudo-projection is multilinear in its projectors
(I + s_i A_i)/2, so the whole table is the Walsh-Hadamard transform of 2^N
ordered moments,

    entry(s) = 2^-N sum_T (prod_{i in T} s_i) m_T,   m_T = Re Tr(rho M_T),

with M_T the tensor product over subsystems of each group's moment of the
observables in T (`pseudoprojection._ordered_moments`: Hermitized ascending
product for unit, average over orderings for symmetrized, weighted
Hermitized orderings for convex).  This is the Hermitized-product quasiprobability of Margenau and
Hill (Prog. Theor. Phys. 26, 722, 1961).  Cost per call, for a group of k
observables: 2^k matrix products for unit, k 2^(k-1) for symmetrized and
2^k for each of the k!/2 orderings for convex.  Then one contraction with the
state per subsystem and an N 2^N transform.  Each observable's two outcome
projectors are validated once per call.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import pauli_vector
from .operator_core import (
    Array,
    DensityMatrix,
    Projector,
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    _close,
    as_complex_matrix,
    require_square,
    resolve_tolerance,
)
from .pseudoprojection import _convex_weights, _ordered_moments, distinct_orderings

__all__ = [
    "ObservableSpec",
    "Scheme",
    "build_scheme",
    "marginalize",
    "negativity_report",
    "equality_sum",
    "scheme_to_json",
    "scheme_from_json",
    "outcomes_to_string",
    "string_to_outcomes",
]

MAX_OBSERVABLES = 8
PRESCRIPTIONS = ("unit", "symmetrized", "convex")
_UNEQUAL_GROUPS = "convex weights require all multi-observable groups to share one size"

# Accept the typographic minus on parse; always emit ASCII.
_MINUS_CHARS = "-−"


@dataclass(frozen=True)
class ObservableSpec:
    """One dichotomic observable attached to a subsystem.

    Provide either a Bloch `axis` (qubit observable sigma.axis) or a general
    Hermitian `matrix` squaring to the identity.
    """

    subsystem: int
    axis: Array | None = None
    matrix: Array | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.subsystem < 0:
            raise InvalidInputError(f"subsystem index must be >= 0, got {self.subsystem}")
        if (self.axis is None) == (self.matrix is None):
            raise InvalidInputError("provide exactly one of axis or matrix")
        if self.axis is not None:
            m = pauli_vector(self.axis)
            object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        else:
            m = require_square(as_complex_matrix(self.matrix, "matrix"), "matrix")
            if not _close(m, m.conj().T, STRUCTURAL_TOL):
                raise InvalidInputError("observable must be Hermitian")
            if not _close(m @ m, np.eye(m.shape[0]), SPECTRAL_TOL):
                raise InvalidInputError("observable must be dichotomic (square to identity)")
        object.__setattr__(self, "matrix", m)
        if not self.label:
            object.__setattr__(self, "label", f"s{self.subsystem}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]  # type: ignore[union-attr]

    def projector(self, outcome: int) -> Projector:
        if outcome not in (+1, -1):
            raise InvalidInputError(f"outcome must be +1 or -1, got {outcome!r}")
        d = self.dim
        return Projector(0.5 * (np.eye(d, dtype=complex) + outcome * self.matrix))


def outcomes_to_string(outcomes: tuple[int, ...]) -> str:
    return "".join("+" if s > 0 else "-" for s in outcomes)


def string_to_outcomes(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for ch in text:
        if ch == "+":
            out.append(+1)
        elif ch in _MINUS_CHARS:
            out.append(-1)
        else:
            raise InvalidInputError(f"bad outcome character {ch!r} in {text!r}")
    return tuple(out)


@dataclass(frozen=True)
class Scheme:
    """Pseudo-probability table over all joint outcomes."""

    observables: tuple[ObservableSpec, ...]
    entries: dict[tuple[int, ...], float]
    prescription: str
    weights: tuple[float, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        n = len(self.observables)
        if not (1 <= n <= MAX_OBSERVABLES):
            raise InvalidInputError(f"need 1..{MAX_OBSERVABLES} observables, got {n}")
        if len(self.entries) != 2**n:
            raise InvalidInputError(
                f"expected {2**n} entries for {n} observables, got {len(self.entries)}"
            )
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-10:
            raise InvalidInputError(f"entries must sum to 1, got {total!r}")

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    def entry(self, outcomes: tuple[int, ...] | str) -> float:
        key = string_to_outcomes(outcomes) if isinstance(outcomes, str) else tuple(outcomes)
        if key not in self.entries:
            raise InvalidInputError(f"no entry for outcomes {outcomes!r}")
        return self.entries[key]


def _subsystem_layout(observables: tuple[ObservableSpec, ...]) -> tuple[list[list[int]], list[int]]:
    """Observable positions per subsystem and subsystem dimensions."""
    count = max(o.subsystem for o in observables) + 1
    groups: list[list[int]] = [[] for _ in range(count)]
    dims = [0] * count
    for pos, obs in enumerate(observables):
        groups[obs.subsystem].append(pos)
        if dims[obs.subsystem] == 0:
            dims[obs.subsystem] = obs.dim
        elif dims[obs.subsystem] != obs.dim:
            raise InvalidInputError(
                f"subsystem {obs.subsystem} has observables of differing dimension"
            )
    for sub, g in enumerate(groups):
        if not g:
            raise InvalidInputError(f"subsystem {sub} has no observables")
    return groups, dims


@functools.lru_cache(maxsize=None)
def _outcomes(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((+1, -1), repeat=n))


def _joint_moments(rho: Array, dims: list[int], stacks: list[Array]) -> Array:
    """Re Tr(rho (M_0[t_0] x M_1[t_1] x ...)) for every index tuple, as an
    array with one axis per subsystem."""
    g = len(dims)
    # Tr(rho X) = sum_ab rho[a, b] X[b, a]: pair each subsystem's (b, a)
    # indices of rho so that one contraction per subsystem does the trace.
    interleave = [axis for sub in range(g) for axis in (g + sub, sub)]
    t = rho.reshape(dims + dims).transpose(interleave).reshape([d * d for d in dims])
    for stack in stacks:
        t = np.tensordot(t, stack.reshape(len(stack), -1), axes=([0], [1]))
    return t.real


def _walsh_hadamard(v: Array) -> Array:
    """Unnormalized fast Walsh-Hadamard transform of a length-2^n vector."""
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        v = np.concatenate((pairs[:, :1] + pairs[:, 1:], pairs[:, :1] - pairs[:, 1:]), axis=1)
        h *= 2
    return v.reshape(-1)


def build_scheme(
    state: DensityMatrix,
    observables: list[ObservableSpec] | tuple[ObservableSpec, ...],
    prescription: str = "symmetrized",
    weights: object | None = None,
) -> Scheme:
    """Evaluate every joint pseudo-probability of `observables` in `state`.

    Observables on one subsystem combine through the chosen prescription;
    subsystems tensor in index order with subsystem 0 outermost.  `weights`
    applies only to the convex prescription and must match the ordering count
    of every multi-observable group.
    """
    obs = tuple(observables)
    if not (1 <= len(obs) <= MAX_OBSERVABLES):
        raise InvalidInputError(f"need 1..{MAX_OBSERVABLES} observables, got {len(obs)}")
    if prescription not in PRESCRIPTIONS:
        raise InvalidInputError(f"unknown prescription {prescription!r}")
    if weights is not None and prescription != "convex":
        raise InvalidInputError("weights are only meaningful for the convex prescription")
    groups, dims = _subsystem_layout(obs)
    if int(np.prod(dims)) != state.dim:
        raise InvalidInputError(
            f"subsystem dimensions {dims} do not compose to state dimension {state.dim}"
        )
    if weights is not None:
        sizes = {len(g) for g in groups if len(g) >= 2}
        if len(sizes) > 1:
            raise InvalidInputError(_UNEQUAL_GROUPS)

    # The moments use the observable matrices; their outcome projectors still
    # have to pass Projector's checks (rank >= 1 rejects A = +-I).
    for o in obs:
        o.projector(+1)
        o.projector(-1)
    stacks = [_ordered_moments([obs[p].matrix for p in g], prescription, weights) for g in groups]
    moments = _joint_moments(state.matrix, dims, stacks)
    # Axes of `moments` run group by group, high bit first within a group;
    # reorder them to observable order before the transform.
    axis_of = [p for positions in groups for p in reversed(positions)]
    moments = moments.reshape((2,) * len(obs)).transpose(np.argsort(axis_of))
    values = _walsh_hadamard(moments.reshape(-1)) / 2 ** len(obs)
    entries = dict(zip(_outcomes(len(obs)), values.tolist()))
    w = None if weights is None else tuple(float(x) for x in np.asarray(weights, dtype=float))
    return Scheme(observables=obs, entries=entries, prescription=prescription, weights=w)


def marginalize(s: Scheme, drop_index: int) -> Scheme:
    """Sum out one observable; exact for every prescription.

    Summing the two outcomes of a factor replaces it by the identity inside
    every ordering product, so the marginal table equals the scheme of the
    remaining observables.
    """
    n = s.n_observables
    if not (0 <= drop_index < n):
        raise InvalidInputError(f"drop_index {drop_index} out of range for {n} observables")
    if n == 1:
        raise InvalidInputError("cannot marginalize the last remaining observable")
    kept = tuple(o for i, o in enumerate(s.observables) if i != drop_index)
    entries: dict[tuple[int, ...], float] = {}
    for outcome in itertools.product((+1, -1), repeat=n - 1):
        total = 0.0
        for dropped in (+1, -1):
            full = outcome[:drop_index] + (dropped,) + outcome[drop_index:]
            total += s.entries[full]
        entries[outcome] = total
    weights = _marginal_weights(s, drop_index)
    return Scheme(observables=kept, entries=entries, prescription=s.prescription, weights=weights)


def _marginal_weights(s: Scheme, drop_index: int) -> tuple[float, ...] | None:
    """Convex weights of the scheme left after dropping one observable.

    An ordering of the dropped observable's group restricts to an ordering of
    the rest; the weights of orderings whose restrictions agree up to
    reversal add up; a group cut down to one observable needs none.  Other
    groups keep the parent's weights, so a marginal that needs both kinds has
    no single weight vector.
    """
    if s.weights is None:
        return None
    sub = s.observables[drop_index].subsystem
    sizes = Counter(o.subsystem for o in s.observables)
    k = sizes[sub]
    other_multi = any(size >= 2 for t, size in sizes.items() if t != sub)
    if k == 1 or (k == 2 and other_multi):
        return s.weights
    if k == 2:
        return None
    if other_multi:
        raise InvalidInputError(_UNEQUAL_GROUPS)
    j = sum(o.subsystem == sub for o in s.observables[:drop_index])
    induced: dict[tuple[int, ...], float] = {}
    for w, order in zip(_convex_weights(k, s.weights), distinct_orderings(k)):
        rest = tuple(i - (i > j) for i in order if i != j)
        key = min(rest, rest[::-1])
        induced[key] = induced.get(key, 0.0) + float(w)
    return tuple(induced.get(order, 0.0) for order in distinct_orderings(k - 1))


def negativity_report(s: Scheme) -> dict[str, object]:
    """Negative entries, the minimum entry, and the nonclassicality verdict."""
    tol = resolve_tolerance()
    negative = sorted(
        ((outcomes_to_string(k), v) for k, v in s.entries.items() if v < -tol),
        key=lambda kv: kv[1],
    )
    min_key = min(s.entries, key=s.entries.get)  # type: ignore[arg-type]
    return {
        "negative_entries": negative,
        "min_entry": (outcomes_to_string(min_key), s.entries[min_key]),
        "nonclassical": bool(negative),
        "tolerance": tol,
    }


def _parse_pattern(pattern: str, n: int) -> list[list[tuple[int, int]]]:
    """Groups of (index, sign); sign -1 marks a '~' negated slot."""
    if not isinstance(pattern, str) or not pattern.strip():
        raise InvalidInputError("pattern must be a non-empty string")
    groups: list[list[tuple[int, int]]] = []
    for chunk in pattern.split(","):
        tokens = [t.strip() for t in chunk.split("=")]
        if any(not t for t in tokens):
            raise InvalidInputError(f"malformed pattern chunk {chunk!r}")
        group: list[tuple[int, int]] = []
        for tok in tokens:
            sign = +1
            if tok.startswith("~"):
                sign = -1
                tok = tok[1:]
            if not tok.isdigit():
                raise InvalidInputError(f"malformed pattern token {tok!r}")
            idx = int(tok)
            if idx >= n:
                raise InvalidInputError(f"pattern index {idx} out of range for {n} observables")
            group.append((idx, sign))
        groups.append(group)
    return groups


def equality_sum(s: Scheme, pattern: str) -> float:
    """Sum of entries whose outcomes satisfy an equality pattern.

    Pattern mini-language: comma-separated groups, each "i=j=~k"; a '~'
    negates that observable's outcome before comparison, and singleton groups
    impose no constraint.  "0=1=2" sums the two fully-correlated entries;
    "~0=1=2" the anti-correlated ones.
    """
    groups = _parse_pattern(pattern, s.n_observables)
    total = 0.0
    for outcome, value in s.entries.items():
        ok = True
        for group in groups:
            signed = {outcome[idx] * sign for idx, sign in group}
            if len(signed) > 1:
                ok = False
                break
        if ok:
            total += value
    return total


def scheme_to_json(s: Scheme) -> dict[str, object]:
    """JSON-ready dict; outcome keys use ASCII '+'/'-'."""
    obs_out: list[dict[str, object]] = []
    for o in s.observables:
        d: dict[str, object] = {"subsystem": o.subsystem, "label": o.label}
        if o.axis is not None:
            d["axis"] = [float(x) for x in o.axis]
        else:
            d["matrix"] = {
                "re": np.real(o.matrix).tolist(),
                "im": np.imag(o.matrix).tolist(),
            }
        obs_out.append(d)
    payload: dict[str, object] = {
        "observables": obs_out,
        "prescription": s.prescription,
        "entries": {outcomes_to_string(k): v for k, v in s.entries.items()},
    }
    if s.weights is not None:
        payload["weights"] = list(s.weights)
    return payload


def scheme_from_json(data: dict[str, object]) -> Scheme:
    """Inverse of scheme_to_json; tolerates the typographic minus sign."""
    try:
        obs_in = data["observables"]
        prescription = data["prescription"]
        entries_in = data["entries"]
    except (KeyError, TypeError):
        raise InvalidInputError("scheme JSON needs observables, prescription, entries")
    observables = []
    for d in obs_in:  # type: ignore[union-attr]
        if "axis" in d:
            observables.append(
                ObservableSpec(subsystem=int(d["subsystem"]), axis=np.asarray(d["axis"], dtype=float), label=str(d.get("label", "")))
            )
        else:
            m = np.asarray(d["matrix"]["re"], dtype=float) + 1j * np.asarray(d["matrix"]["im"], dtype=float)
            observables.append(
                ObservableSpec(subsystem=int(d["subsystem"]), matrix=m, label=str(d.get("label", "")))
            )
    entries = {string_to_outcomes(k): float(v) for k, v in entries_in.items()}  # type: ignore[union-attr]
    weights = data.get("weights")
    w = None if weights is None else tuple(float(x) for x in weights)  # type: ignore[union-attr]
    return Scheme(
        observables=tuple(observables),
        entries=entries,
        prescription=str(prescription),
        weights=w,
    )
