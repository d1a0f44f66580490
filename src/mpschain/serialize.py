"""Deterministic JSON and binary codecs for the command-line front end.

The JSON writer here exists because repeated runs must produce
byte-identical output: floats are always rendered with 17 significant
digits (enough to round-trip IEEE doubles), negative zero is folded
into zero, and non-finite values are rejected outright.  Complex
numbers are always a two-element [re, im] array.  A complex ndarray of
any shape is written as nested lists of such pairs: its parts are
checked and formatted in bulk, a slice of an innermost row at a time,
rather than value by value.

The JSON layout is stated here only.  dump streams its text piece by
piece to a write callable, drawing the items of an iterator one at a
time, so a command's output is written while it is serialized and never
held whole; dumps joins the same pieces into one string.

The binary chain dump is streamed from consecutive row blocks
(write_chain); pack_chain writes one dense matrix through it.
"""

from __future__ import annotations

import io
import json
import struct
from collections.abc import Iterator

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


# Pairs formatted per slice of a complex row: bounds the text alive at
# once, while each slice is still checked and formatted in bulk.
_SLICE_PAIRS = 16384


def dump(obj, write) -> None:
    """Write the JSON text of obj with deterministic float formatting,
    handing it to write (fh.write, say) piece by piece.

    Accepts dicts (string keys, insertion order kept), lists, tuples and
    iterators (each written as an array, one item drawn at a time),
    strings, bools, None, ints, floats, and complex values (emitted as
    [re, im]).  numpy scalars and arrays are coerced; an array of several
    axes is written one row at a time, and a complex one becomes nested
    lists of [re, im] pairs.
    """
    _write(obj, write)


def dumps(obj) -> str:
    """The text dump writes, as one string."""
    pieces: list[str] = []
    dump(obj, pieces.append)
    return "".join(pieces)


def _write(obj, write) -> None:
    if isinstance(obj, (bool, np.bool_)):
        write("true" if obj else "false")
    elif obj is None:
        write("null")
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(encode_complex(obj), write)
    elif isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise FormatError("JSON object keys must be strings")
            if i:
                write(", ")
            write(json.dumps(key))
            write(": ")
            _write(value, write)
        write("}")
    elif isinstance(obj, (list, tuple, Iterator)):
        write("[")
        for i, value in enumerate(obj):
            if i:
                write(", ")
            _write(value, write)
        write("]")
    elif isinstance(obj, np.ndarray) and obj.ndim > 1:
        _write(iter(obj), write)
    elif isinstance(obj, np.ndarray) and obj.ndim and np.iscomplexobj(obj):
        write("[")
        for start in range(0, obj.size, _SLICE_PAIRS):
            values = obj[start:start + _SLICE_PAIRS]
            check_finite(values)
            # + 0.0 folds -0.0 into +0.0, as format_float does
            parts = (np.ascontiguousarray(values, dtype=complex).view(float)
                     + 0.0).tolist()
            write((", " if start else "") + ", ".join(map(
                "[{:.17g}, {:.17g}]".format, parts[0::2], parts[1::2])))
        write("]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), write)
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


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
