"""Scheme tables read by position give the bits, errors and messages of the per-entry code.

The `_OracleScheme` and `_oracle_*` code below are verbatim copies of the per-entry `Scheme` re-key,
`scheme_to_json`, `scheme_from_json`, `negativity_report`, `equality_sum` and
`marginalize` that read every entry through its outcome tuple or string.  Each
test runs the library and the oracle on the same input and compares the result
by `repr` and `float.hex`, or the error by class and message.  The inputs are
seeded tables with 1 to 8 observables, every prescription and one or two
subsystems, and caller-made variants: keys reordered, deleted and re-added or
replaced by equal tuples of other types, entries overwritten after
construction, and JSON records that `scheme_to_json` would not write.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest

from pplab import (
    ObservableSpec, Scheme, bloch_state, build_scheme, equality_sum, marginalize, negativity_report, scheme_from_json,
    scheme_to_json,
)
from pplab.errors import InvalidInputError
from pplab.operator_core import SPECTRAL_TOL, _finite, _integer, _real, _sequence, resolve_tolerance
from pplab.pseudoprojection import PRESCRIPTIONS, _prescription_weights
from pplab.scheme import (
    _marginal_weights, _observables, _outcomes, _parse_pattern, _require_scheme, _spec_from_json, outcomes_to_string,
    string_to_outcomes,
)

from support import ginibre_density, random_unit_vector


class _OracleScheme(Scheme):
    """`Scheme` with the per-entry re-key: every key is looked up in the caller's mapping."""

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
            entries = {k: self.entries[k] for k in _outcomes(n)}
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


def _oracle_marginalize(s, drop_index):
    n = _require_scheme(s).n_observables
    drop_index = _integer(drop_index, "drop_index")
    if not (0 <= drop_index < n):
        raise InvalidInputError(f"drop_index {drop_index} out of range for {n} observables")
    if n == 1:
        raise InvalidInputError("cannot marginalize the last remaining observable")
    kept = tuple(o for i, o in enumerate(s.observables) if i != drop_index)
    try:
        v = [s.entries[k] for k in _outcomes(n)]
    except KeyError:
        raise InvalidInputError(f"entries must be keyed by the {2**n} +1/-1 outcome tuples of length {n}") from None
    step = 1 << (n - 1 - drop_index)
    entries = dict(zip(_outcomes(n - 1), [v[i] + v[i + step] for i in range(len(v)) if not i & step]))
    weights = _marginal_weights(s, drop_index)
    return _OracleScheme(observables=kept, entries=entries, prescription=s.prescription, weights=weights)


def _oracle_negativity_report(s):
    _require_scheme(s)
    tol = resolve_tolerance()
    negative = sorted(
        ((outcomes_to_string(k), v) for k, v in s.entries.items() if v < -tol),
        key=lambda kv: kv[1],
    )
    min_key = min(s.entries, key=s.entries.get)
    return {
        "negative_entries": negative,
        "min_entry": (outcomes_to_string(min_key), s.entries[min_key]),
        "nonclassical": bool(negative),
        "tolerance": tol,
    }


def _oracle_equality_sum(s, pattern):
    groups = _parse_pattern(pattern, _require_scheme(s).n_observables)
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


def _oracle_scheme_to_json(s):
    obs_out = []
    for o in _require_scheme(s).observables:
        d = {"subsystem": int(o.subsystem), "label": o.label}
        if o.axis is not None:
            d["axis"] = [float(x) for x in o.axis]
        else:
            d["matrix"] = {
                "re": np.real(o.matrix).tolist(),
                "im": np.imag(o.matrix).tolist(),
            }
        obs_out.append(d)
    entries = {outcomes_to_string(k): v for k, v in s.entries.items()}
    try:
        finite = all(map(math.isfinite, entries.values()))
    except TypeError:
        finite = False
    if not finite:
        for k, v in entries.items():
            _finite(v, f"entry {k!r}")
    payload = {"observables": obs_out, "prescription": s.prescription, "entries": entries}
    if s.weights is not None:
        payload["weights"] = list(s.weights)
    return payload


def _oracle_scheme_from_json(data):
    if not (isinstance(data, Mapping) and {"observables", "prescription", "entries"} <= data.keys()):
        raise InvalidInputError("scheme JSON needs observables, prescription, entries")
    observables = _sequence(data["observables"], "observables", "observable records", _spec_from_json)
    entries_in = data["entries"]
    if not isinstance(entries_in, dict) or not all(isinstance(k, str) for k in entries_in):
        raise InvalidInputError("entries must map outcome strings to numbers")
    entries = {}
    for k, v in entries_in.items():
        key = string_to_outcomes(k)
        if key in entries:
            raise InvalidInputError(f"entries spell outcome {outcomes_to_string(key)!r} more than once")
        entries[key] = _real(v, f"entry {k!r}")
    return _OracleScheme(
        observables=tuple(observables),
        entries=entries,
        prescription=str(data["prescription"]),
        weights=data.get("weights"),
    )


def _fingerprint(x):
    """`x` by `repr`, whose shortest round-trip float spelling differs wherever the bits do, or by
    `float.hex`; a Scheme by its fields, so that the oracle's subclass compares equal."""
    if isinstance(x, Scheme):
        return repr(x.entries), repr(x.weights), x.prescription, [_fingerprint(o) for o in x.observables]
    if isinstance(x, ObservableSpec):
        return x.subsystem, x.label, None if x.axis is None else x.axis.tobytes(), x.matrix.tobytes()
    return x.hex() if type(x) is float else repr(x)


def _outcome(call, *args):
    try:
        return "returned", _fingerprint(call(*args))
    except Exception as exc:  # the class and message are what is compared
        return "raised", type(exc), str(exc)


def _agree(new, oracle, *args):
    got, want = _outcome(new, *args), _outcome(oracle, *args)
    assert got == want


def _splits(n):
    yield (n,)
    if n >= 2:
        yield (n - n // 2, n // 2)


@pytest.fixture(scope="module")
def tables():
    """Seeded library-built schemes: 1 to 8 observables, every prescription, one or two qubits."""
    rng = np.random.default_rng(20260)
    out = []
    for n in range(1, 9):
        for prescription in PRESCRIPTIONS:
            for split in _splits(n):
                obs = [ObservableSpec(sub, axis=random_unit_vector(rng)) for sub, k in enumerate(split) for _ in range(k)]
                multi = {k for k in split if k >= 2}
                weights = None
                if prescription == "convex" and len(multi) == 1 and max(multi) <= 4:
                    weights = rng.dirichlet(np.ones(math.factorial(max(multi)) // 2))
                state = ginibre_density(rng, 2 ** len(split))
                out.append(build_scheme(state, obs, prescription, weights))
    return out


def _patterns(rng, n):
    """Fixed patterns, with a repeated and a self-negated index, and one seeded partition of all n."""
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 2), replace=False)) if n > 1 else []
    groups = np.split(rng.permutation(n), cuts)
    seeded = ",".join("=".join(("~" if rng.random() < 0.4 else "") + str(i) for i in g) for g in groups)
    return ["0", "0=0", "0=~0", f"0={n - 1}", seeded]


def _changed(s, change):
    """A copy of `s` whose plain `entries` dict a caller then changed in place with `change(entries)`."""
    t = dataclasses.replace(s)
    change(t.entries)
    return t


def _refill(entries, items):
    entries.clear()
    entries.update(items)


def _variants(s):
    """`s` and copies whose `entries` a caller changed after construction."""
    first, last = list(s.entries)[::len(s.entries) - 1]
    return [
        s,
        _changed(s, lambda e: _refill(e, list(e.items()))),  # the same keys, in order
        _changed(s, lambda e: _refill(e, list(e.items())[::-1])),
        _changed(s, lambda e: _refill(e, [(tuple(True if o == 1 else o for o in k), v) for k, v in e.items()])),
        _changed(s, lambda e: _refill(e, [(tuple(map(float, k)), v) for k, v in e.items()])),
        _changed(s, lambda e: e.update({first: e[last], last: e[first]})),
        _changed(s, lambda e: e.update({last: float("nan")})),
        _changed(s, lambda e: e.update({first: e.pop(first)})),  # deleted and re-added at the end
    ]


def test_construction_agrees_with_the_per_entry_re_key(tables):
    for s in tables:
        build = lambda entries: Scheme(s.observables, entries, s.prescription, s.weights)  # noqa: E731
        oracle = lambda entries: _OracleScheme(s.observables, entries, s.prescription, s.weights)  # noqa: E731
        items = list(s.entries.items())
        inputs = [
            s.entries,
            dict(items),
            dict(items[::-1]),
            {tuple(True if o == 1 else o for o in k): v for k, v in items},
            {tuple(float(o) for o in k): v for k, v in items},
            MappingProxyType(dict(items)),
            {**dict(items[:-1]), (2,) * len(items[0][0]): items[-1][1]},
            {**dict(items), (2,) * len(items[0][0]): 0.0},
            {k: (str(v) if i == 0 else v) for i, (k, v) in enumerate(items)},
            list(items),
        ]
        for entries in inputs:
            _agree(build, oracle, entries)


def test_readers_agree_with_the_per_entry_readers(tables):
    rng = np.random.default_rng(7)
    for s in tables:
        n = s.n_observables
        patterns = list(_patterns(rng, n))
        for t in _variants(s):
            _agree(scheme_to_json, _oracle_scheme_to_json, t)
            _agree(negativity_report, _oracle_negativity_report, t)
            for pattern in patterns:
                _agree(equality_sum, _oracle_equality_sum, t, pattern)
            for i in {0, n - 1}:
                _agree(marginalize, _oracle_marginalize, t, i)


def test_json_records_agree_with_the_per_entry_parse(tables):
    for s in tables:
        record = scheme_to_json(s)
        entries = record["entries"]
        keys = list(entries)
        records = [
            record,
            json.loads(json.dumps(record)),
            {**record, "entries": dict(list(entries.items())[::-1])},
            {**record, "entries": {k.replace("-", "−", 1): v for k, v in entries.items()}},
            {**record, "entries": {k: np.float64(v) for k, v in entries.items()}},
            {**record, "entries": {**entries, keys[0]: str(entries[keys[0]])}},
            {**record, "entries": {**entries, keys[-1]: float("nan")}},
            {**record, "entries": {**entries, keys[-1]: True}},
            {**record, "observables": record["observables"][:-1]},
            {**record, "observables": record["observables"] * 2},
        ]
        # Both spellings of the last outcome, in place of the first outcome.
        doubled = {k: v for k, v in entries.items() if k != keys[0]}
        doubled[keys[-1].replace("-", "−")] = entries[keys[0]]
        records.append({**record, "entries": doubled})
        for data in records:
            _agree(scheme_from_json, _oracle_scheme_from_json, data)


def test_integer_and_reordered_records_are_read_entry_by_entry():
    """What scheme_to_json never writes: ints, another order, the typographic minus."""
    obs = [{"subsystem": 0, "axis": [0.0, 0.0, 1.0]}]
    for entries in ({"+": 1, "-": 0}, {"-": 0.25, "+": 0.75}, {"+": 0.5, "−": 0.5}, {"+": 0.5, "-": 0.5, "−": 0.0}):
        data = {"observables": obs, "prescription": "unit", "entries": entries}
        _agree(scheme_from_json, _oracle_scheme_from_json, data)
    assert repr(scheme_from_json({"observables": obs, "prescription": "unit", "entries": {"+": 1, "-": 0}}).entries) == (
        "{(1,): 1.0, (-1,): 0.0}"
    )


def test_a_reordered_table_is_marginalized_by_key():
    """Reversing a table's `entries` in place changes neither its marginal nor, once a key is gone, the error class."""
    s = build_scheme(bloch_state([0.6, 0, 0.3]), [ObservableSpec(0, axis=[0, 0, 1]), ObservableSpec(0, axis=[1, 0, 0])], "unit")
    before = marginalize(s, 1).entries
    assert before == pytest.approx({(1,): 0.65, (-1,): 0.35}, abs=1e-15)
    items = list(s.entries.items())
    s.entries.clear()
    s.entries.update(items[::-1])
    assert repr(marginalize(s, 1).entries) == repr(before)
    del s.entries[(1, 1)]
    with pytest.raises(InvalidInputError, match="entries must be keyed by the 4 "):
        marginalize(s, 0)
