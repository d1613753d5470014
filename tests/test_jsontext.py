"""The report JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permuswap.jsontext import _int_rows, _map_distinct, dumps

# non-ASCII, escapes, control characters and a lone surrogate
STRINGS = st.one_of(st.text(), st.sampled_from(["é", "€", '"\\/\b\f\n\r\t', "\x00\x1f\x7f", " ", "\ud800", ""]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    STRINGS,
)


@st.composite
def int_matrices(draw):
    """2-D integer arrays of every width, with the extremes of int64 and
    uint64 among their entries, empty ones (0 x k, k x 0) and 1 x 1."""
    shape = draw(st.one_of(
        st.tuples(st.just(0), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.just(0)),
        st.just((1, 1)),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]))
    info = np.iinfo(dtype)
    entry = st.one_of(st.integers(int(info.min), int(info.max)), st.sampled_from([int(info.min), int(info.max), 0]))
    size = shape[0] * shape[1]
    return np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=dtype).reshape(shape)


class Half(float):
    """A float subclass with its own repr, which ``json`` ignores."""

    def __repr__(self):
        return "Half()"


FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]))
# lists of one exact type, which the writer joins in one go, and lists
# that only nearly are
HOMOGENEOUS = st.one_of(
    st.lists(STRINGS, min_size=1, max_size=5),
    st.lists(FLOATS, min_size=1, max_size=5),
    st.lists(st.one_of(FLOATS, FLOATS.map(Half)), min_size=1, max_size=5),
    st.lists(st.one_of(FLOATS, st.integers(-3, 3)), min_size=1, max_size=5),
    st.lists(STRINGS, min_size=1, max_size=3).map(tuple),
)

VALUES = st.recursive(
    st.one_of(SCALARS, int_matrices(), HOMOGENEOUS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=20,
)


def as_lists(value):
    """``value`` with every array as its nested lists, as ``json`` takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


@settings(max_examples=300)
@given(VALUES)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}]})
@example({"mh": np.zeros((0, 3), dtype=np.int64), "ms": np.zeros((3, 0), dtype=np.int64), "one": np.ones((1, 1), dtype=np.int64)})
def test_same_bytes_as_json_dumps(value):
    assert dumps(value) == json.dumps(as_lists(value), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        {2: "b", 10: "a"},
        {0.5: 1, 1.5: [2]},
        {True: 1, False: 0},
        {None: 1},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-320],
        np.float64(0.25),
        [np.float64(0.1)],
    ],
)
def test_keys_and_floats_as_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        {1: "a", "b": 2},
        {(1, 2): 3},
        {"a": {1, 2}},
        [np.int64(1)],
        np.arange(3),
        np.zeros((2, 2)),
        np.zeros((1, 1, 1), dtype=np.int64),
        np.zeros((2, 2), dtype=bool),
    ],
)
def test_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumps(value)


# ASCII without NUL, as _int_rows takes it; multi-byte and empty among them
SEPARATORS = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=4)


@st.composite
def separated_rows(draw):
    array = draw(int_matrices())
    return array, draw(st.lists(SEPARATORS, min_size=array.shape[1], max_size=array.shape[1]))


@settings(max_examples=300)
@given(separated_rows())
@example((np.array([[np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]]), [",", "\n  ", "", "]"]))
@example((np.array([[np.iinfo(np.uint64).max, 0, 1]], dtype=np.uint64), [",", ",", "\n"]))
def test_int_rows_as_percent_format(case):
    """Each entry as ``%d`` then its column's separator, byte for byte."""
    array, separators = case
    expected = "".join("".join("%d%s" % pair for pair in zip(row, separators)) for row in array.tolist())
    assert _int_rows(array, separators) == expected


def bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# floats whose text or bits a merge of equal values would get wrong:
# both zeros, NaNs of other signs and payloads, both infinities,
# subnormals and the smallest normal
EDGE_FLOATS = [
    0.0,
    -0.0,
    float("nan"),
    bits_to_float(0xFFF8000000000000),
    bits_to_float(0x7FF8000000000001),
    float("inf"),
    -float("inf"),
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072014e-308,
    0.1,
    1 / 3,
]
# few distinct values, so that most lists repeat some
FLOAT_LISTS = st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), min_size=1, max_size=40)


@settings(max_examples=300)
@given(FLOAT_LISTS)
@example([0.0, -0.0, 0.0, -0.0])
@example([float("nan")] * 3 + [float("inf"), -float("inf"), float("inf")])
@example([5e-324, 1e-310, 5e-324, -5e-324])
def test_float_lists_as_json_dumps(values):
    """A list of floats only, at the top and inside a report."""
    assert dumps(values) == json.dumps(values, indent=2, sort_keys=True)
    assert dumps({"values": values, "rate": 0.5}) == json.dumps({"values": values, "rate": 0.5}, indent=2, sort_keys=True)


@settings(max_examples=300)
@given(FLOAT_LISTS)
@example(EDGE_FLOATS + EDGE_FLOATS[::-1])
def test_map_distinct_calls_once_per_bit_pattern(values):
    """Each call gets the exact bits of a value, NaN payloads and the
    sign of zero included, and one call serves every repeat."""
    calls = []

    def packed(v):
        calls.append(v)
        return struct.pack("<d", v)

    assert _map_distinct(packed, values) == [struct.pack("<d", v) for v in values]
    assert len(calls) == len({struct.pack("<d", v) for v in values})
