"""Deterministic JSON and binary codecs for the command-line front end.

The JSON writer here exists because repeated runs must produce
byte-identical output: floats are always rendered with 17 significant
digits (enough to round-trip IEEE doubles), negative zero is folded
into zero, and non-finite values are rejected outright.  Complex
numbers are always a two-element [re, im] array.  A complex ndarray of
any shape is written in one pass as nested lists of such pairs: its
parts are checked and formatted in bulk rather than value by value.

The binary chain dump is streamed from consecutive row blocks
(write_chain); pack_chain writes one dense matrix through it.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np

MAGIC = b"MPSH"


class FormatError(ValueError):
    """Malformed serialized input."""


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering, stable across runs."""
    x = float(x)
    if not np.isfinite(x):
        raise FormatError(f"non-finite value {x!r} cannot be serialized")
    # x + 0.0 folds -0.0 into +0.0 so the sign of zero never leaks out.
    return format(x + 0.0, ".17g")


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def check_finite(values) -> None:
    """Raise the FormatError format_float gives for the first non-finite
    real or imaginary part of a complex array, in row-major order."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    bad = ~np.isfinite(parts)
    if np.any(bad):
        format_float(parts[bad][0])


def dumps(obj) -> str:
    """Serialize to JSON with deterministic float formatting.

    Accepts dicts (string keys, insertion order kept), lists/tuples,
    strings, bools, None, ints, floats, and complex values (emitted as
    [re, im]).  numpy scalars and arrays are coerced; a complex array
    becomes nested lists of [re, im] pairs.
    """
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list) -> None:
    if isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(encode_complex(obj), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise FormatError("JSON object keys must be strings")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write(value, out)
        out.append("]")
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        out.append(_complex_array(obj))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def _complex_array(arr: np.ndarray) -> str:
    """Nested lists of [re, im] pairs, one list level per axis."""
    check_finite(arr)
    # + 0.0 folds -0.0 into +0.0, as format_float does
    parts = (np.ascontiguousarray(arr, dtype=complex).view(float)
             + 0.0).ravel().tolist()
    items = list(map("[{:.17g}, {:.17g}]".format, parts[0::2], parts[1::2]))
    shape = arr.shape
    for axis in range(len(shape) - 1, -1, -1):
        size = shape[axis]
        items = ["[" + ", ".join(items[i * size:(i + 1) * size]) + "]"
                 for i in range(math.prod(shape[:axis]))]
    return items[0]


# ---------------------------------------------------------------------------
# complex scalars and matrices


def decode_complex(value) -> complex:
    """Accept a real number or a two-element [re, im] array."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return complex(value)
        if (isinstance(value, (list, tuple)) and len(value) == 2
                and all(isinstance(v, (int, float))
                        and not isinstance(v, bool) for v in value)):
            return complex(value[0], value[1])
    except OverflowError:
        raise FormatError("integer beyond the float range") from None
    raise FormatError(f"expected a number or [re, im] pair, got {value!r}")


def decode_matrix(value) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise FormatError("expected a non-empty JSON array of rows")
    rows = []
    width = None
    for row in value:
        if not isinstance(row, list):
            raise FormatError("matrix rows must be JSON arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError("matrix rows have unequal lengths")
        rows.append([decode_complex(v) for v in row])
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# quartets and constraint spaces

_QUARTET_KEYS = ("v0", "v1", "v2", "u")


def encode_quartet(q) -> dict:
    return {key: encode_complex(getattr(q, key)) for key in _QUARTET_KEYS}


def decode_quartet(value):
    from .pauli import PauliQuartet
    if not isinstance(value, dict):
        raise FormatError("expected an object with v0, v1, v2, u")
    missing = [k for k in _QUARTET_KEYS if k not in value]
    if missing:
        raise FormatError(f"quartet is missing {missing}")
    extra = set(value) - set(_QUARTET_KEYS)
    if extra:
        raise FormatError(f"quartet has unknown keys {sorted(extra)}")
    return PauliQuartet(*(decode_complex(value[k]) for k in _QUARTET_KEYS))


def encode_space(space) -> dict:
    return {"basis": [encode_quartet(q) for q in space.basis]}


def decode_space(value):
    from .pauli import CSpace
    if not isinstance(value, dict) or "basis" not in value:
        raise FormatError('expected an object with a "basis" array')
    basis = value["basis"]
    if not isinstance(basis, list):
        raise FormatError('"basis" must be a JSON array')
    return CSpace([decode_quartet(q) for q in basis])


# ---------------------------------------------------------------------------
# binary matrix dump: b"MPSH" | u32 n_sites LE | row-major complex128 LE


def pack_chain(n_sites: int, matrix: np.ndarray) -> bytes:
    """The dump of one dense chain matrix, as write_chain writes it."""
    dim = 2 ** n_sites
    shape = np.shape(matrix)
    if shape != (dim, dim):
        raise FormatError(
            f"matrix shape {shape} does not match n_sites={n_sites}")
    out = io.BytesIO()
    write_chain(out, n_sites, [matrix])
    return out.getvalue()


def write_chain(fh, n_sites: int, blocks) -> None:
    """Write the dump of the chain whose consecutive row blocks the
    iterable gives to the binary file fh, without joining them."""
    fh.write(MAGIC + struct.pack("<I", n_sites))
    for block in blocks:
        fh.write(np.ascontiguousarray(block, dtype="<c16").data)
