"""Deterministic JSON rendering and the binary chain dump."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpschain.pauli import CSpace, PauliQuartet
from mpschain.serialize import (_SLICE_PAIRS, FormatError, decode_complex,
                                decode_matrix, decode_quartet, decode_space,
                                dump, dumps, encode_complex, encode_quartet,
                                encode_space, format_float, pack_chain,
                                write_chain)
from oracles import (complex_array_text, encode_matrix, encode_vector, flat,
                     value_dumps)


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
    assert np.array_equal(decode_matrix([json.loads(dumps(vec))])[0], vec)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.array_equal(decode_matrix(json.loads(dumps(mat))), mat)


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
    assert blob[4:8] == (3).to_bytes(4, "little")
    back = np.frombuffer(blob, "<c16", offset=8).reshape(8, 8)
    assert np.array_equal(back, mat)


def test_binary_chain_validates():
    with pytest.raises(FormatError):
        pack_chain(2, np.zeros((3, 3), dtype=complex))
    with pytest.raises(FormatError):
        pack_chain(2, np.zeros(16, dtype=complex))


# Doubles the writer must render exactly as the per-value oracle does:
# signed zeros, subnormals, the ends of the range, integral values and
# every other finite double.
EDGE_DOUBLES = [0.0, -0.0, 1e-310, -1e-310, 5e-324, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, 1.0, -2.0, 3e15,
                2.0 ** 53, 0.1, -123456789.0]
doubles = st.one_of(st.sampled_from(EDGE_DOUBLES),
                    st.floats(allow_nan=False, allow_infinity=False))
shapes = st.one_of(st.just((0,)), st.tuples(st.integers(1, 12)),
                   st.tuples(st.integers(1, 5), st.integers(0, 6)))


@st.composite
def complex_arrays(draw, shape=shapes):
    shape = draw(shape)
    size = int(np.prod(shape))
    parts = draw(st.lists(doubles, min_size=2 * size, max_size=2 * size))
    return np.array(parts, dtype=float).view(complex).reshape(shape)


def _oracle_text(arr):
    encoded = encode_vector(arr) if arr.ndim == 1 else encode_matrix(arr)
    return value_dumps(encoded)


@settings(max_examples=200, deadline=None)
@given(complex_arrays())
def test_bulk_writer_matches_the_per_value_oracle(arr):
    text = dumps(arr)
    assert text == _oracle_text(arr) == value_dumps(arr)
    assert dumps({"n": 1, "a": arr}) == value_dumps({"n": 1, "a": arr})
    back = json.loads(text)
    decoded = (decode_matrix([back])[0]
               if arr.ndim == 1 or arr.shape[0] == 0 else decode_matrix(back))
    # bit for bit, apart from -0.0 read back as 0.0
    assert decoded.shape == arr.shape
    assert np.array_equal(decoded.view(np.uint64),
                          (arr.view(float) + 0.0).view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(complex_arrays(shape=st.one_of(
           st.tuples(st.integers(1, 12)),
           st.tuples(st.integers(1, 5), st.integers(1, 6)))),
       st.data())
def test_bulk_writer_refuses_non_finite_as_the_oracle_does(arr, data):
    parts = arr.reshape(-1).view(float)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, parts.size - 1))
        parts[at] = data.draw(st.sampled_from(
            [float("nan"), float("inf"), float("-inf")]))
    with pytest.raises(FormatError) as oracle:
        _oracle_text(arr)
    with pytest.raises(FormatError) as bulk:
        dumps(arr)
    assert str(bulk.value) == str(oracle.value)
    assert str(bulk.value).startswith("non-finite value ")


def _draw(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _slice_cases() -> dict:
    """Complex arrays on either side of the writer's slice boundaries."""
    rng = np.random.default_rng(28)
    S = _SLICE_PAIRS
    signed = _draw(rng, 3 * S + 5)
    signed.view(float)[::7] = -0.0
    cases = {"0-d": np.array(1.5 - 2j), "empty": np.zeros(0, complex),
             "2x0": np.zeros((2, 0), complex),
             "0x2": np.zeros((0, 2), complex),
             "3-D": _draw(rng, 2, 3, 4),
             "3-D, rows of S+3": _draw(rng, 2, 2, S + 3),
             "-0.0 parts": np.array([-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -1.5,
                                     -0.0]).view(complex),
             "-0.0 parts, 3S+5": signed}
    for label, n in (("1", 1), ("S-1", S - 1), ("S", S), ("S+1", S + 1),
                     ("3S+5", 3 * S + 5)):
        cases[label] = _draw(rng, n)
    return cases


SLICE_CASES = _slice_cases()
# the longest [re, im] pair text
_PAIR_MAX = len("[-1.2345678901234567e-308, -1.2345678901234567e-308]")


def _assert_same_text(got: str, want: str) -> None:
    """Equal texts, or a failure that quotes their first difference
    rather than diffing megabytes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts of {len(got)} and {len(want)} characters differ "
                    f"at {at}: {got[at - 30:at + 30]!r} against "
                    f"{want[at - 30:at + 30]!r}")


@pytest.mark.parametrize("label", SLICE_CASES)
def test_dump_gives_the_joined_writers_text_across_slices(label):
    arr = SLICE_CASES[label]
    want = complex_array_text(arr)
    pieces = []
    dump(arr, pieces.append)
    _assert_same_text("".join(pieces), want)
    _assert_same_text(dumps(arr), want)
    # no piece holds more than one slice of pairs
    assert max(map(len, pieces)) <= _PAIR_MAX * _SLICE_PAIRS


@pytest.mark.parametrize("shape", [(3 * _SLICE_PAIRS + 5,),
                                   (2, 2 * _SLICE_PAIRS)])
def test_dump_refuses_non_finite_as_the_joined_writer_does(shape):
    arr = _draw(np.random.default_rng(29), *shape)
    parts = arr.reshape(-1).view(float)
    # the first non-finite part in row-major order is in the second slice
    parts[2 * _SLICE_PAIRS + 7] = float("-inf")
    parts[4 * _SLICE_PAIRS + 1] = float("nan")
    with pytest.raises(FormatError) as joined:
        complex_array_text(arr)
    with pytest.raises(FormatError) as joined_once:
        dumps({"n": 1, "a": arr})
    with pytest.raises(FormatError) as streamed:
        dump(arr, [].append)
    assert str(joined.value) == "non-finite value -inf cannot be serialized"
    assert str(streamed.value) == str(joined_once.value) == str(joined.value)


def test_dump_draws_the_items_of_an_iterator_one_at_a_time():
    rng = np.random.default_rng(30)
    rows = [_draw(rng, 3) for _ in range(3)]
    drawn = []

    def items():
        for row in rows:
            drawn.append(row)
            yield row

    pieces = []
    dump({"n": 3, "rows": items(), "end": None},
         lambda text: pieces.append((len(drawn), text)))
    want = ('{"n": 3, "rows": [' + ", ".join(map(complex_array_text, rows))
            + '], "end": null}')
    assert "".join(text for _, text in pieces) == want
    assert dumps({"n": 3, "rows": iter(rows), "end": None}) == want
    # each row is written before the next one is drawn
    for i, row in enumerate(rows):
        assert (i + 1, complex_array_text(row)[1:-1]) in pieces


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_binary_chain_round_trips_exactly(n_sites, data):
    dim = 2 ** n_sites
    pool = st.one_of(doubles, st.sampled_from(
        [float("nan"), float("inf"), float("-inf")]))
    parts = data.draw(st.lists(pool, min_size=2 * dim * dim,
                               max_size=2 * dim * dim))
    mat = np.array(parts).view(complex).reshape(dim, dim)
    blob = pack_chain(n_sites, mat)
    assert blob[:8] == b"MPSH" + n_sites.to_bytes(4, "little")
    back = np.frombuffer(blob, "<c16", offset=8).reshape(dim, dim)
    # bit for bit, signed zeros and NaN payloads included
    assert np.array_equal(back.view(np.uint64), mat.view(np.uint64))
    # the streamed writer gives the same bytes from any row split
    step = data.draw(st.sampled_from([d for d in (1, 2, 4, 8)
                                      if d <= dim]))
    out = io.BytesIO()
    write_chain(out, n_sites, (mat[i:i + step] for i in range(0, dim, step)))
    assert out.getvalue() == blob
