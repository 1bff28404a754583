"""Serialization: vectorization order, matrix JSON schema, canonical dumps."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kyfan_tilt.io import (
    SchemaError,
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
    unvec,
    vec,
)

seeds = st.integers(0, 2**31 - 1)


def test_vec_is_row_major():
    X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(vec(X), [1, 2, 3, 4, 5, 6])
    assert np.array_equal(unvec(vec(X), 2, 3), X)


def test_unvec_shape_guard():
    with pytest.raises(ValueError):
        unvec(np.arange(5.0), 2, 3)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_matrix_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    Y = matrix_from_json(matrix_to_json(X))
    assert np.array_equal(X, Y)


def test_matrix_from_json_error_pointers():
    with pytest.raises(SchemaError, match="problem.X: expected an object"):
        matrix_from_json([1, 2], where="problem.X")
    with pytest.raises(SchemaError, match="problem.X.cols: missing"):
        matrix_from_json({"rows": 2, "data": []}, where="problem.X")
    with pytest.raises(SchemaError, match="rows/cols"):
        matrix_from_json({"rows": -1, "cols": 2, "data": []})
    with pytest.raises(SchemaError, match="expected 4 numbers"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})
    with pytest.raises(SchemaError, match="non-numeric"):
        matrix_from_json({"rows": 1, "cols": 2, "data": [1.0, "x"]})
    with pytest.raises(SchemaError, match="finite"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [float("inf")]})


def _entry_loop_message(data, where):
    """The message of the entry-by-entry parse (float() on each entry),
    which matrix_from_json falls back to; None when it accepts the data."""
    try:
        flat = np.array([float(v) for v in data], dtype=float)
    except (TypeError, ValueError) as exc:
        return f"{where}.data: non-numeric entry ({exc})"
    except OverflowError:
        return f"{where}.data: entries must be finite"
    if not np.all(np.isfinite(flat)):
        return f"{where}.data: entries must be finite"
    return None


@pytest.mark.parametrize(
    "bad", [None, "x", [2.0], float("nan"), float("inf"), pytest.param(10**400, id="huge_int")]
)
def test_matrix_from_json_messages_match_entry_loop(bad):
    data = [1.0, bad, 3.0, 4.0]
    want = _entry_loop_message(data, "theta.Q")
    assert want is not None
    with pytest.raises(SchemaError) as exc:
        matrix_from_json({"rows": 2, "cols": 2, "data": data}, where="theta.Q")
    assert str(exc.value) == want


def test_matrix_from_json_values_match_entry_loop():
    data = [0, 1, -2.5, True, 2**64, "1.5", 1e-300]
    got = matrix_from_json({"rows": 1, "cols": 7, "data": data})
    assert np.array_equal(got, np.array([[float(v) for v in data]]))


def test_canonical_dumps_is_deterministic_and_sorted():
    a = canonical_dumps({"b": 1, "a": {"z": [1, 2], "y": np.float64(0.5)}})
    b = canonical_dumps({"a": {"y": 0.5, "z": (1, 2)}, "b": np.int64(1)})
    assert a == b
    assert a.endswith("\n")
    obj = json.loads(a)
    assert list(obj.keys()) == ["a", "b"]


def test_canonical_dumps_encodes_nonfinite_as_strings():
    s = canonical_dumps({"pos": np.inf, "neg": -np.inf, "nan": np.nan})
    obj = json.loads(s)  # strict JSON: must parse without Infinity literals
    assert obj == {"pos": "+inf", "neg": "-inf", "nan": "nan"}
    assert "Infinity" not in s


def test_canonical_dumps_handles_numpy_scalars_and_arrays():
    obj = json.loads(canonical_dumps({"v": np.arange(3.0), "flag": np.bool_(True)}))
    assert obj == {"v": [0.0, 1.0, 2.0], "flag": True}


def _canon(x):
    """Plain JSON values for x: numpy values as Python ones, non-finite
    floats as strings, keys through str()."""
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_canon(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "+inf" if v > 0 else "-inf"
        return v
    return x


def _reference_dumps(obj):
    """The canonical text by the json module: the definition that
    canonical_dumps must reproduce byte for byte."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.1]
)
_texts = st.text(max_size=8) | st.sampled_from(["", "\x00\x1f\"\\/", "caf\u00e9 \u6f22 \u2028", "\U0001f600"])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    _floats,
    _texts,
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_arrays = arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
)
# lists that start with a plain float, as report lists of floats do: long
# ones with the non-finite values and -0.0 among them, and ones that mix in
# numpy floats, ints and bools further on
_plain_floats = st.floats(allow_nan=False, allow_infinity=False)
_float_lists = st.lists(_plain_floats | st.sampled_from([0.0, -0.0]), min_size=1, max_size=40)
_nonfinite_lists = st.tuples(_float_lists, st.lists(_floats, min_size=1, max_size=20)).map(
    lambda t: t[0] + t[1]
)
_mixed_lists = st.tuples(
    _plain_floats,
    st.lists(_plain_floats | _floats.map(np.float64) | st.integers() | st.booleans(), max_size=12),
).map(lambda t: [t[0], *t[1]])
_keys = _texts | st.integers(min_value=-5, max_value=12)
_values = st.recursive(
    _scalars | _arrays | _float_lists | _nonfinite_lists | _mixed_lists,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_values)
# each branch of the list writer: the one-pass text of plain finite floats,
# and the per-item writers after an infinite or nan value, a value of
# another type, or a first value that is not a plain float
@example([0.5, -0.0, 1e300, 5e-324])
@example({"k": (0.5, math.inf, 2.0), "j": [-math.inf, 0.5], "i": [0.5, math.nan]})
@example([0.5, np.float64(0.25), np.float64(-0.0), [0.5, np.float64(math.nan)]])
@example([[0.5, 2, -3], [0.5, True], [0.5, "n", None, [1.5]], [np.float64(0.5), 1.5], [1, 0.5]])
def test_canonical_dumps_matches_the_json_module(obj):
    assert canonical_dumps(obj) == _reference_dumps(obj)


@pytest.mark.parametrize("bad", [{1, 2}, frozenset(), object(), 1j, np.complex128(1)])
def test_canonical_dumps_rejects_what_json_cannot_write(bad):
    with pytest.raises(TypeError):
        _reference_dumps({"a": [bad]})
    with pytest.raises(TypeError):
        canonical_dumps({"a": [bad]})
