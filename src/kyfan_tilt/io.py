"""Serialization helpers: row-major vectorization, matrix JSON, canonical
report dumps.

Matrices travel as {"rows": n, "cols": m, "data": [...]} with row-major
data.  Reports are emitted as canonical JSON — sorted keys, two-space
indent, trailing newline, plain Python floats — so identical analyses
produce byte-identical files.  Infinities are encoded as the strings
"+inf"/"-inf" (strict JSON has no Infinity literal).
"""
from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "SchemaError",
    "vec",
    "unvec",
    "matrix_to_json",
    "matrix_from_json",
    "canonical_dumps",
]


class SchemaError(ValueError):
    """Problem-file violation; the message points at the offending field."""


def vec(X: np.ndarray) -> np.ndarray:
    """Row-major (C-order) vectorization of a matrix."""
    return np.asarray(X, dtype=float).ravel(order="C")


def unvec(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of vec for an n x m matrix."""
    x = np.asarray(x, dtype=float)
    if x.size != n * m:
        raise ValueError(f"cannot reshape length-{x.size} vector to {n} x {m}")
    return x.reshape((n, m)).copy()


def matrix_to_json(X: np.ndarray) -> dict:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return {
        "rows": int(X.shape[0]),
        "cols": int(X.shape[1]),
        "data": [float(v) for v in X.ravel(order="C")],
    }


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    """Parse {"rows","cols","data"}; raises SchemaError naming `where`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(f"{where}.{key}: missing")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in (rows, cols)):
        raise SchemaError(f"{where}.rows/cols: must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            f"{where}.data: expected {rows * cols} numbers, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    try:
        flat = np.fromiter(data, dtype=float, count=len(data))
    except (TypeError, ValueError, OverflowError):
        flat = None
    if flat is None or not np.all(np.isfinite(flat)):
        # Entry by entry, for the message: fromiter turns None into nan and
        # reports nested lists and strings in its own words.
        try:
            flat = np.array([float(v) for v in data], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}.data: non-numeric entry ({exc})") from None
        except OverflowError:
            raise SchemaError(f"{where}.data: entries must be finite") from None
        if not np.all(np.isfinite(flat)):
            raise SchemaError(f"{where}.data: entries must be finite")
    return flat.reshape((rows, cols))


def _canon(x):
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


def canonical_dumps(obj) -> str:
    """Deterministic JSON encoding (sorted keys, 2-space indent, newline)."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
