"""Serialization: vectorization order, matrix JSON schema, canonical dumps."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
