"""Deterministic JSON rendering and the binary chain dump."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mpschain.pauli import CSpace, PauliQuartet
from mpschain.serialize import (FormatError, decode_complex, decode_matrix,
                                decode_quartet, decode_space, decode_vector,
                                dumps, encode_complex, encode_matrix,
                                encode_quartet, encode_space, encode_vector,
                                format_float, pack_chain, unpack_chain)
from oracles import flat


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(11)
    for x in rng.normal(scale=1e3, size=200):
        assert float(format_float(float(x))) == float(x)
    assert float(format_float(0.1)) == 0.1
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "0"


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(FormatError):
            format_float(bad)


def test_dumps_is_valid_json_and_stable():
    payload = {"a": 1, "b": [1.5, -0.0, True, None, "x"],
               "c": {"z": complex(2, -3)}, "d": np.float64(0.25),
               "e": np.arange(3), "f": np.bool_(True)}
    text = dumps(payload)
    assert text == dumps(payload)
    parsed = json.loads(text)
    assert parsed["b"] == [1.5, 0, True, None, "x"]
    assert parsed["c"]["z"] == [2, -3]
    assert parsed["e"] == [0, 1, 2]
    assert parsed["f"] is True


def test_dumps_rejects_bad_payloads():
    with pytest.raises(FormatError):
        dumps({1: "non-string key"})
    with pytest.raises(FormatError):
        dumps(object())
    with pytest.raises(FormatError):
        dumps(float("nan"))


def test_complex_codec():
    assert encode_complex(1 + 2j) == [1.0, 2.0]
    assert decode_complex([1, 2]) == 1 + 2j
    assert decode_complex(3) == 3 + 0j
    assert decode_complex(0.5) == 0.5 + 0j
    for bad in ("1", [1], [1, 2, 3], [True, 0], None):
        with pytest.raises(FormatError):
            decode_complex(bad)


def test_vector_and_matrix_round_trip():
    rng = np.random.default_rng(12)
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.array_equal(decode_vector(encode_vector(vec)), vec)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.array_equal(decode_matrix(encode_matrix(mat)), mat)


def test_matrix_decode_rejects_ragged_and_empty():
    with pytest.raises(FormatError):
        decode_matrix([[[1, 0]], [[1, 0], [2, 0]]])
    with pytest.raises(FormatError):
        decode_matrix([])
    with pytest.raises(FormatError):
        decode_matrix("nope")


def test_quartet_and_space_round_trip():
    q = PauliQuartet(1, 2 + 1j, -0.5, 3j)
    back = decode_quartet(encode_quartet(q))
    assert back == q
    space = CSpace([PauliQuartet(1, 0, 0, 0), PauliQuartet(0, 0, 1, 0.4)])
    again = decode_space(encode_space(space))
    assert again.dim == 2
    assert np.array_equal(np.array([flat(r) for r in again.basis]),
                          np.array([flat(r) for r in space.basis]))


def test_quartet_decode_validates_keys():
    with pytest.raises(FormatError):
        decode_quartet({"v0": [1, 0], "v1": [0, 0], "v2": [0, 0]})
    with pytest.raises(FormatError):
        decode_quartet({"v0": [1, 0], "v1": [0, 0], "v2": [0, 0],
                        "u": [0, 0], "extra": 1})
    with pytest.raises(FormatError):
        decode_space({"rows": []})


def test_binary_chain_round_trip():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = raw + raw.conj().T
    blob = pack_chain(3, mat)
    assert blob[:4] == b"MPSH"
    assert len(blob) == 8 + 16 * 64
    n, back = unpack_chain(blob)
    assert n == 3
    assert np.array_equal(back, mat)


def test_binary_chain_validates():
    with pytest.raises(FormatError):
        pack_chain(2, np.zeros((3, 3), dtype=complex))
    with pytest.raises(FormatError):
        unpack_chain(b"XXXX" + b"\x00" * 20)
    blob = pack_chain(2, np.zeros((4, 4), dtype=complex))
    with pytest.raises(FormatError):
        unpack_chain(blob[:-1])
