"""The batched engine's integer helpers against their scalar twins.

:func:`bit_length` and :func:`magnitude32` drive the vectorized divider
and multiplier latencies, so each must agree with the scalar code the
reference cores use: ``int.bit_length`` and the divider's
``_magnitude``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batchsim.decode import bit_length, magnitude32
from repro.uarch.components.divider import _magnitude

WORDS = st.integers(min_value=0, max_value=0xFFFF_FFFF)


@pytest.mark.parametrize(
    "value",
    [
        0,
        1,
        2,
        3,
        0xFF,
        0x100,
        0xFFFF,
        0x1_0000,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
    ],
)
def test_bit_length_at_power_of_two_edges(value):
    assert bit_length(np.array([value], dtype=np.int64))[0] == value.bit_length()


@given(st.lists(WORDS, min_size=1, max_size=64))
def test_bit_length_matches_int_bit_length(values):
    lengths = bit_length(np.array(values, dtype=np.int64))
    assert lengths.tolist() == [value.bit_length() for value in values]


def test_bit_length_leaves_its_input_untouched():
    values = np.array([0, 5, 0xFFFF_FFFF], dtype=np.int64)
    bit_length(values)
    assert values.tolist() == [0, 5, 0xFFFF_FFFF]


@pytest.mark.parametrize(
    "value, signed, expected",
    [
        (0, True, 0),
        (7, True, 7),
        (0x7FFF_FFFF, True, 0x7FFF_FFFF),
        (0xFFFF_FFFF, True, 1),
        (0xFFFF_FFF9, True, 7),
        (0x8000_0000, True, 0x8000_0000),
        (0xFFFF_FFFF, False, 0xFFFF_FFFF),
        (0x8000_0000, False, 0x8000_0000),
    ],
)
def test_magnitude32_edges(value, signed, expected):
    got = magnitude32(np.array([value], dtype=np.int64), np.array([signed]))
    assert got[0] == expected == _magnitude(value, signed)


@given(st.lists(st.tuples(WORDS, st.booleans()), min_size=1, max_size=64))
def test_magnitude32_matches_the_scalar_divider(pairs):
    values = np.array([value for value, _signed in pairs], dtype=np.int64)
    signed = np.array([flag for _value, flag in pairs])
    got = magnitude32(values, signed)
    assert got.tolist() == [_magnitude(value, flag) for value, flag in pairs]


def test_magnitude32_accepts_a_scalar_mask():
    values = np.array([1, 0xFFFF_FFFF], dtype=np.int64)
    assert magnitude32(values, True).tolist() == [1, 1]
    assert magnitude32(values, False).tolist() == [1, 0xFFFF_FFFF]
