"""Serialization helpers: row-major vectorization, matrix JSON, canonical
report dumps.

Matrices travel as {"rows": n, "cols": m, "data": [...]} with row-major
data.  Reports are emitted as canonical JSON, so identical analyses produce
byte-identical files (at a fixed seed and a fixed BLAS thread count: a
threaded BLAS call may round differently with another thread count).  The
bytes of canonical_dumps:

* object keys sorted, as strings (a non-string key becomes str(key));
* two-space indent: every member and element on its own line, members as
  "key": value, a "," at the end of every line but a container's last;
  empty containers as {} and [];
* finite floats, numpy ones as Python floats, in their shortest round-trip
  form (float.__repr__); Python and numpy integers in decimal, booleans as
  true/false, None as null;
* the non-finite floats as the strings "+inf", "-inf" and "nan" (strict
  JSON has no Infinity or NaN literal);
* strings and keys with every non-ASCII or control character escaped
  (json.encoder.encode_basestring_ascii);
* one trailing newline.

Those are the bytes json.dumps(..., sort_keys=True, indent=2) writes once
numpy values are Python values and non-finite floats are those strings.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

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
        "data": X.ravel(order="C").tolist(),
    }


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    """Parse {"rows","cols","data"}; raises SchemaError naming `where`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(f"{where}.{key}: missing")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    for v in (rows, cols):
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)) or v < 0:
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
    # a finite sum has finite terms; an overflowing one is rechecked below
    if flat is None or not math.isfinite(np.add.reduce(flat)):
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


_NONFINITE = {float("inf"): '"+inf"', float("-inf"): '"-inf"'}

# Each writer takes (value, nl) and returns the value's text; nl is the
# newline and indent that the lines of a container value start with.


def _float(v, nl):
    if v - v == 0.0:
        return f"{v!r}"
    return _NONFINITE.get(v, '"nan"')


def _str(v, nl):
    return encode_basestring_ascii(v)


def _int(v, nl):
    return f"{v!r}"


def _bool(v, nl):
    return "true" if v else "false"


def _null(v, nl):
    return "null"


def _seq(items, nl):
    if not items:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    if type(items[0]) is float:
        # one pass: float.__repr__ takes only floats, and only inf and nan
        # texts have an "n"; any other list takes the per-item writers
        try:
            text = sep.join(map(float.__repr__, items))
        except TypeError:
            pass
        else:
            if "n" not in text:
                return "[" + inner + text + nl + "]"
    get = _WRITERS.get
    return "[" + inner + sep.join([get(type(v), _other)(v, inner) for v in items]) + nl + "]"


def _dict(x, nl):
    if not x:
        return "{}"
    if set(map(type, x)) != {str}:
        x = {str(k): v for k, v in x.items()}
    inner = nl + "  "
    get = _WRITERS.get
    return "{" + inner + ("," + inner).join(
        [encode_basestring_ascii(k) + ": " + get(type(v), _other)(v, inner)
         for k, v in sorted(x.items())]
    ) + nl + "}"


def _array(x, nl):
    if x.ndim == 0:
        raise TypeError("a 0-d array is not a JSON array")
    return _seq(x.tolist(), nl)


def _other(x, nl):
    """Subclasses of the types in _WRITERS and the other numpy scalars, in
    the order of their precedence (bool before int)."""
    if isinstance(x, dict):
        return _dict(x, nl)
    if isinstance(x, (list, tuple)):
        return _seq(x, nl)
    if isinstance(x, np.ndarray):
        return _array(x, nl)
    if isinstance(x, (np.bool_, bool)):
        return _bool(x, nl)
    if isinstance(x, (np.integer, int)):
        return int.__repr__(int(x))
    if isinstance(x, (np.floating, float)):
        return _float(float(x), nl)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_WRITERS = {
    float: _float,
    int: _int,
    str: _str,
    bool: _bool,
    type(None): _null,
    list: _seq,
    tuple: _seq,
    dict: _dict,
    np.ndarray: _array,
    np.float64: lambda v, nl: _float(float(v), nl),
    np.int64: lambda v, nl: int.__repr__(int(v)),
    np.bool_: _bool,
}


def canonical_dumps(obj) -> str:
    """Canonical JSON text of obj (the byte contract is in the module
    docstring): dicts, lists, tuples, numpy arrays, str, None and Python or
    numpy bools, integers and floats; TypeError on anything else."""
    return _WRITERS.get(type(obj), _other)(obj, "\n") + "\n"
