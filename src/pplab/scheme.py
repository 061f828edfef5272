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
for uniform convex, and 2^k for each of the k!/2 orderings for weighted
convex.  Then one contraction per subsystem with a stack of states (one here, a
trajectory in `game`) and an N 2^N transform.  Outcome projectors are checked once,
when an ObservableSpec takes a matrix; a call only refuses A = +-I, by its trace.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import _sigmas, unit_vector
from .operator_core import (
    Array,
    DensityMatrix,
    Projector,
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    _check_projector,
    _close,
    _complex_parts,
    _finite,
    _integer,
    _outcome_projectors,
    _real,
    _require_state,
    _sequence,
    _sign,
    as_complex_matrix,
    require_square,
    resolve_tolerance,
)
from .pseudoprojection import MAX_OBSERVABLES, PRESCRIPTIONS, _ordered_moments, _prescription_weights, distinct_orderings

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

# Outcome signs in `_outcomes` order: index 0 is +1, index 1 is -1.  Parsing
# also accepts the typographic minus; output is always ASCII.
_MARK = "+-"
_SIGN = {_MARK[0]: +1, _MARK[1]: -1, "−": -1}


@dataclass(frozen=True)
class ObservableSpec:
    """One dichotomic observable attached to a subsystem.

    Provide either a Bloch `axis` (qubit observable sigma.axis), kept as a read-only
    copy, or a Hermitian `matrix` squaring to I, whose outcome projectors are checked here.
    """

    subsystem: int
    axis: Array | None = None
    matrix: Array | None = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystem", _integer(self.subsystem, "subsystem"))
        if self.subsystem < 0:
            raise InvalidInputError(f"subsystem index must be >= 0, got {self.subsystem}")
        if (self.axis is None) == (self.matrix is None):
            raise InvalidInputError("provide exactly one of axis or matrix")
        if self.axis is not None:
            axis = unit_vector(self.axis, "axis").copy()
            axis.flags.writeable = False
            m = _sigmas(axis)[0]
            object.__setattr__(self, "axis", axis)
        else:
            m = require_square(as_complex_matrix(self.matrix, "matrix"), "matrix")
            if not _close(m, m.conj().T, STRUCTURAL_TOL):
                raise InvalidInputError("observable must be Hermitian")
            # A Hermitian A with A^2 = I has every |A_ij| <= 1: refuse larger ones before squaring.
            if (np.abs(m) > 1 + SPECTRAL_TOL).any() or not _close(m @ m, np.eye(m.shape[0]), SPECTRAL_TOL):
                raise InvalidInputError("observable must be dichotomic (square to identity)")
            if abs(m.trace().real) <= len(m) - 1:  # A = +-I skips this; build_scheme refuses it
                _check_projector(_outcome_projectors(m[None]))
        object.__setattr__(self, "matrix", m)
        if not (self.label is None or isinstance(self.label, str)):
            raise InvalidInputError(f"label must be a string, got {self.label!r}")
        if not self.label:
            object.__setattr__(self, "label", f"s{self.subsystem}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]  # type: ignore[union-attr]

    def projector(self, outcome: int) -> Projector:
        d = self.dim
        return Projector(0.5 * (np.eye(d, dtype=complex) + _sign(outcome) * self.matrix))


def outcomes_to_string(outcomes: tuple[int, ...]) -> str:
    return "".join(_MARK[not s > 0] for s in outcomes)


def string_to_outcomes(text: str) -> tuple[int, ...]:
    try:
        return tuple(_SIGN[ch] for ch in text)
    except KeyError as bad:
        raise InvalidInputError(f"bad outcome character {bad.args[0]!r} in {text!r}") from None


def _observables(observables: object) -> tuple[ObservableSpec, ...]:
    """`observables` as a tuple of 1 to MAX_OBSERVABLES ObservableSpec."""
    obs = tuple(_sequence(observables, "observables", "ObservableSpec"))
    if not all(isinstance(o, ObservableSpec) for o in obs):
        raise InvalidInputError("observables must be an ordered collection of ObservableSpec")
    if not (1 <= len(obs) <= MAX_OBSERVABLES):
        raise InvalidInputError(f"need 1..{MAX_OBSERVABLES} observables, got {len(obs)}")
    return obs


@dataclass(frozen=True)
class Scheme:
    """Pseudo-probability table over all joint outcomes, kept as its own copy of `entries` in `_outcomes` order.
    Readers go by position while that order holds, and by lookup once a caller re-keys or reorders the dict."""

    observables: tuple[ObservableSpec, ...]
    entries: dict[tuple[int, ...], float]
    prescription: str
    weights: tuple[float, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        obs = _observables(self.observables)
        object.__setattr__(self, "observables", obs)
        n = len(obs)
        if not isinstance(self.entries, Mapping):
            raise InvalidInputError(
                f"entries must map outcome tuples to real numbers, got {type(self.entries).__name__}"
            )
        if len(self.entries) != 2**n:
            raise InvalidInputError(
                f"expected {2**n} entries for {n} observables, got {len(self.entries)}"
            )
        try:
            entries = self.entries.copy() if _in_order(self.entries, n) else {k: self.entries[k] for k in _outcomes(n)}
        except KeyError:
            raise InvalidInputError(f"entries must be keyed by the {2**n} +1/-1 outcome tuples of length {n}") from None
        object.__setattr__(self, "entries", entries)
        try:
            finite = all(map(math.isfinite, entries.values()))
        except TypeError:
            raise InvalidInputError("entries must map outcome tuples to real numbers") from None
        if not finite:
            raise InvalidInputError("entries are not finite")
        total = sum(entries.values())
        if abs(total - 1.0) > SPECTRAL_TOL:
            raise InvalidInputError(f"entries must sum to 1, got {total!r}")
        sizes = () if self.weights is None else Counter(o.subsystem for o in obs).values()
        object.__setattr__(self, "weights", _prescription_weights(self.prescription, sizes, self.weights))

    @property
    def n_observables(self) -> int:
        return len(self.observables)

    def entry(self, outcomes: tuple[int, ...] | str) -> float:
        if isinstance(outcomes, str):
            key = string_to_outcomes(outcomes)
        else:
            key = tuple(_sequence(outcomes, "outcomes", "+1/-1 outcomes"))
        try:
            return self.entries[key]
        except KeyError:
            raise InvalidInputError(f"no entry for outcomes {outcomes!r}") from None
        except TypeError:
            raise InvalidInputError(f"outcomes must be +1/-1 values, got {outcomes!r}") from None


def _require_scheme(s: object) -> Scheme:
    """`s` if it is a Scheme; anything else raises "s must be a Scheme"."""
    if not isinstance(s, Scheme):
        raise InvalidInputError(f"s must be a Scheme, got {type(s).__name__}")
    return s


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


@functools.lru_cache(maxsize=None)
def _outcome_strings(n: int) -> tuple[str, ...]:
    return tuple(map(outcomes_to_string, _outcomes(n)))


@functools.lru_cache(maxsize=None)
def _outcome_signs(n: int) -> Array:
    """`_outcomes(n)` as a read-only (2^n, n) float array."""
    signs = np.array(_outcomes(n), dtype=float)
    signs.flags.writeable = False
    return signs


def _in_order(entries: object, n: int) -> bool:
    """Whether `entries` is a dict keyed by the very tuples of `_outcomes(n)`, in order, to be read by position."""
    return type(entries) is dict and len(entries) == 2**n and all(map(operator.is_, entries, _outcomes(n)))


def _joint_moments(rhos: Array, dims: list[int], stacks: list[Array]) -> Array:
    """Re Tr(rho (M_0[t_0] x M_1[t_1] x ...)) for each state rho of the stack `rhos` and every
    index tuple, as an array with the stack axis and then one axis per subsystem."""
    g = len(dims)
    # Tr(rho X) = sum_ab rho[a, b] X[b, a]: pair each subsystem's (b, a)
    # indices of rho so that one contraction per subsystem does the trace.
    interleave = [0, *(1 + axis for sub in range(g) for axis in (g + sub, sub))]
    t = rhos.reshape([len(rhos)] + dims + dims).transpose(interleave).reshape([len(rhos)] + [d * d for d in dims])
    for stack in stacks:
        t = np.tensordot(t, stack.reshape(len(stack), -1), axes=([1], [1]))
    return t.real


def _walsh_hadamard(v: Array) -> Array:
    """Unnormalized fast Walsh-Hadamard transform of each row of a (T, 2^n) array."""
    rows, size = v.shape
    h = 1
    while h < size:
        pairs = v.reshape(-1, 2, h)  # blocks of 2h never straddle two rows
        v = np.concatenate((pairs[:, :1] + pairs[:, 1:], pairs[:, :1] - pairs[:, 1:]), axis=1)
        h *= 2
    return v.reshape(rows, size)


def _scheme_rows(rhos: Array, stacks: list[Array], groups: list[list[int]]) -> Array:
    """Entries, in `_outcomes` order, of one scheme in each state of the (T, D, D) stack `rhos`, as a (T, 2^n)
    array; subsystem i holds the observables at positions groups[i], with `_ordered_moments` stacks[i]."""
    moments = _joint_moments(rhos, [len(stack[0]) for stack in stacks], stacks)
    # Axes of `moments` run group by group, high bit first within a group: reorder them to observable order.
    axis_of = [p for positions in groups for p in reversed(positions)]
    order = sorted(range(len(axis_of)), key=axis_of.__getitem__)  # argsort, cheaper in Python for n <= 8
    moments = moments.reshape((len(rhos),) + (2,) * len(order)).transpose([0] + [1 + a for a in order])
    return _walsh_hadamard(moments.reshape(len(rhos), -1)) / 2 ** len(order)


def _moments(obs: list[ObservableSpec], prescription: str, weights: tuple[float, ...] | None = None) -> Array:
    """`_ordered_moments` of the matrices of the observables `obs` of one subsystem.  ObservableSpec
    checked the outcome projectors of every A but +-I, the A with |Tr A| > d - 1: refuse those here."""
    if any(abs(o.matrix.trace().real) > o.dim - 1 for o in obs):
        raise InvalidInputError("projector invariant violated: rank >= 1")
    return _ordered_moments([o.matrix for o in obs], prescription, weights)


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
    obs = _observables(observables)
    groups, dims = _subsystem_layout(obs)
    weights = _prescription_weights(prescription, map(len, groups), weights)
    if math.prod(dims) != _require_state(state).dim:
        raise InvalidInputError(
            f"subsystem dimensions {dims} do not compose to state dimension {state.dim}"
        )

    stacks = [_moments([obs[p] for p in g], prescription, weights) for g in groups]
    values = _scheme_rows(state.matrix[None], stacks, groups)[0]
    entries = dict(zip(_outcomes(len(obs)), values.tolist()))
    return Scheme(observables=obs, entries=entries, prescription=prescription, weights=weights)


def marginalize(s: Scheme, drop_index: int) -> Scheme:
    """Sum out one observable; exact for every prescription.

    Summing the two outcomes of a factor replaces it by the identity inside
    every ordering product, so the marginal table equals the scheme of the
    remaining observables.
    """
    n = _require_scheme(s).n_observables
    drop_index = _integer(drop_index, "drop_index")
    if not (0 <= drop_index < n):
        raise InvalidInputError(f"drop_index {drop_index} out of range for {n} observables")
    if n == 1:
        raise InvalidInputError("cannot marginalize the last remaining observable")
    kept = tuple(o for i, o in enumerate(s.observables) if i != drop_index)
    # In `_outcomes` order, flipping the dropped outcome from +1 to -1 moves an
    # entry `step` places on.  A table a caller reordered is read by key.
    try:
        v = list(s.entries.values()) if _in_order(s.entries, n) else [s.entries[k] for k in _outcomes(n)]
    except KeyError:
        raise InvalidInputError(f"entries must be keyed by the {2**n} +1/-1 outcome tuples of length {n}") from None
    step = 1 << (n - 1 - drop_index)
    entries = dict(zip(_outcomes(n - 1), [v[i] + v[i + step] for i in range(len(v)) if not i & step]))
    weights = _marginal_weights(s, drop_index)
    return Scheme(observables=kept, entries=entries, prescription=s.prescription, weights=weights)


def _marginal_weights(s: Scheme, drop_index: int) -> tuple[float, ...] | None:
    """Convex weights of the scheme left after dropping one observable.

    An ordering of the dropped observable's group restricts to an ordering of
    the rest; the weights of orderings whose restrictions agree up to
    reversal add up; a group cut down to one observable needs none.  Other
    groups keep the parent's weights, so a marginal that needs both kinds has
    no single weight vector, and `Scheme` refuses its unequal groups.
    """
    if s.weights is None:
        return None
    sub = s.observables[drop_index].subsystem
    sizes = Counter(o.subsystem for o in s.observables)
    k = sizes[sub]
    other_multi = any(size >= 2 for t, size in sizes.items() if t != sub)
    if k == 1 or other_multi:
        return s.weights
    if k == 2:
        return None
    j = sum(o.subsystem == sub for o in s.observables[:drop_index])
    induced: dict[tuple[int, ...], float] = {}
    for w, order in zip(s.weights, distinct_orderings(k)):
        rest = tuple(i - (i > j) for i in order if i != j)
        key = min(rest, rest[::-1])
        induced[key] = induced.get(key, 0.0) + w
    return tuple(induced.get(order, 0.0) for order in distinct_orderings(k - 1))


def negativity_report(s: Scheme) -> dict[str, object]:
    """Negative entries, the minimum entry, and the nonclassicality verdict."""
    table, spell = _require_scheme(s).entries, outcomes_to_string
    if _in_order(table, s.n_observables):
        table, spell = dict(zip(_outcome_strings(s.n_observables), table.values())), str
    tol = resolve_tolerance()
    negative = sorted(((spell(k), v) for k, v in table.items() if v < -tol), key=lambda kv: kv[1])
    min_key = min(table, key=table.get)  # type: ignore[arg-type]
    return {
        "negative_entries": negative,
        "min_entry": (spell(min_key), table[min_key]),
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
            if not (tok.isascii() and tok.isdigit()):
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
    n = _require_scheme(s).n_observables
    groups = _parse_pattern(pattern, n)
    if _in_order(s.entries, n):
        # A group holds where its signed outcomes, each +1 or -1, sum to plus or minus its size.
        members = np.zeros((n, len(groups)))
        for g, group in enumerate(groups):
            for idx, sign in group:
                members[idx, g] += sign
        keep = (np.abs(_outcome_signs(n) @ members) == [len(g) for g in groups]).all(axis=1)
        picked = itertools.compress(s.entries.values(), keep.tolist())
    else:
        picked = (v for k, v in s.entries.items() if all(len({k[idx] * sign for idx, sign in g}) == 1 for g in groups))
    total = 0.0
    for value in picked:  # left to right, as the entries are listed
        total += value
    return total


def scheme_to_json(s: Scheme) -> dict[str, object]:
    """JSON-ready dict; outcome keys use ASCII '+'/'-'."""
    obs_out: list[dict[str, object]] = []
    for o in _require_scheme(s).observables:
        d: dict[str, object] = {"subsystem": int(o.subsystem), "label": o.label}
        if o.axis is not None:
            d["axis"] = [float(x) for x in o.axis]
        else:
            d["matrix"] = {
                "re": np.real(o.matrix).tolist(),
                "im": np.imag(o.matrix).tolist(),
            }
        obs_out.append(d)
    # `entries` stays a plain dict, so a caller may have written to it after the checks ran.
    n = s.n_observables
    spelled = _outcome_strings(n) if _in_order(s.entries, n) else map(outcomes_to_string, s.entries)
    entries = dict(zip(spelled, s.entries.values()))
    try:
        finite = all(map(math.isfinite, entries.values()))
    except TypeError:
        finite = False
    if not finite:
        for k, v in entries.items():
            _finite(v, f"entry {k!r}")
    payload: dict[str, object] = {"observables": obs_out, "prescription": s.prescription, "entries": entries}
    if s.weights is not None:
        payload["weights"] = list(s.weights)
    return payload


def _spec_from_json(d: dict) -> ObservableSpec:
    m = None if "axis" in d else _complex_parts(d["matrix"]["re"], d["matrix"]["im"])
    return ObservableSpec(d["subsystem"], axis=d.get("axis"), matrix=m, label=str(d.get("label", "")))


def scheme_from_json(data: dict[str, object]) -> Scheme:
    """Inverse of scheme_to_json; tolerates the typographic minus sign."""
    if not (isinstance(data, Mapping) and {"observables", "prescription", "entries"} <= data.keys()):
        raise InvalidInputError("scheme JSON needs observables, prescription, entries")
    observables = _sequence(data["observables"], "observables", "observable records", _spec_from_json)
    entries_in = data["entries"]
    if not isinstance(entries_in, dict) or not all(isinstance(k, str) for k in entries_in):
        raise InvalidInputError("entries must map outcome strings to numbers")
    n = len(observables)
    written = n <= MAX_OBSERVABLES and tuple(entries_in) == _outcome_strings(n)  # in the order scheme_to_json writes
    if written and {*map(type, entries_in.values())} == {float}:
        entries = dict(zip(_outcomes(n), entries_in.values()))
    else:
        entries = {}
        for k, v in entries_in.items():
            key = string_to_outcomes(k)
            if key in entries:
                raise InvalidInputError(f"entries spell outcome {outcomes_to_string(key)!r} more than once")
            entries[key] = _real(v, f"entry {k!r}")
    return Scheme(
        observables=tuple(observables),
        entries=entries,
        prescription=str(data["prescription"]),
        weights=data.get("weights"),
    )
