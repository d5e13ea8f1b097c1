"""The vectorized rational rule for float64 arrays against the per-entry rule
of _exact._fraction: finite, with an exact denominator of at most 2**30."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinctrl import _exact

SPECIAL = [
    2.0 ** -30, 3 * 2.0 ** -30, -(2.0 ** -30), 2.0 ** -31, 5 * 2.0 ** -31,
    1e308, -1.5e308, 1.7976931348623157e308, 2.0 ** 1023, 2.0 ** 62, 2.0 ** 63, -(2.0 ** 63),
    2.0 ** 53 + 2, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    -0.0, 0.0, math.nan, math.inf, -math.inf,
    0.5, -0.25, 1.0, 3.0, -7.0, 0.1, 1 / 3, 1.75, 12.125,
]


def _per_entry_rational(arr) -> bool:
    return all(_exact._fraction(x) is not None for x in arr.astype(object).flat)


def _per_entry_integerize(arr):
    """integerize through the per-entry path (an object array of floats)."""
    try:
        return _exact.integerize(arr.astype(object)), None
    except ValueError as exc:
        return None, str(exc)


def _identical(a, b) -> bool:
    return (a.dtype == b.dtype == object and a.shape == b.shape
            and all(type(x) is int and type(y) is int and x == y
                    for x, y in zip(a.flat, b.flat)))


def _check(arr):
    arr = np.asarray(arr, dtype=np.float64)
    assert _exact.is_rational(arr) == _per_entry_rational(arr)
    want, error = _per_entry_integerize(arr)
    if error is None:
        assert _identical(_exact.integerize(arr), want)
        fast = _exact._dyadic_integers(arr)
        assert fast is None or _identical(fast, want)
    else:
        with pytest.raises(ValueError) as info:
            _exact.integerize(arr)
        assert str(info.value) == error
        assert _exact._dyadic_integers(arr) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vectorized_rule_matches_per_entry_rule(data):
    shape = data.draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (2, 5), (4, 4)]))
    entry = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                      st.integers(-2 ** 40, 2 ** 40).map(float),
                      st.tuples(st.integers(-1000, 1000), st.integers(0, 32))
                      .map(lambda t: math.ldexp(t[0], -t[1])))
    _check(np.array([data.draw(entry) for _ in range(shape[0] * shape[1])]).reshape(shape))


@pytest.mark.parametrize("entries,rational", [
    ([2.0 ** -30, 1.0], True),       # the largest denominator accepted
    ([2.0 ** -31, 1.0], False),      # one more bit is rejected
    ([1e308, 0.5], True),            # doubling overflows: per-entry path
    ([1.7976931348623157e308, 3 * 2.0 ** -30], True),
    ([2.0 ** 62, 0.5], True),        # leaves int64 after scaling by 2: per-entry path
    ([2.0 ** 63, 1.0], True),        # leaves int64 unscaled: per-entry path
    ([5e-324, 1.0], False),          # subnormal, denominator 2**1074
    ([-0.0, 0.0], True),
    ([math.nan, 1.0], False),
    ([math.inf, 1.0], False),
    ([-math.inf, 1.0], False),
])
def test_edge_cases(entries, rational):
    arr = np.array([entries, entries[::-1]])
    assert _exact.is_rational(arr) == rational
    _check(arr)


def test_fast_path_is_taken():
    arr = np.array([[0.5, -1.25], [3.0, -0.0]])
    assert _identical(_exact._dyadic_integers(arr), np.array([[2, -5], [12, 0]], dtype=object))
    assert _exact._dyadic_integers(np.zeros((2, 2))).tolist() == [[0, 0], [0, 0]]
    assert _identical(_exact._dyadic_integers(np.array([[2.0 ** -30, -1.0]])),
                      np.array([[1, -2 ** 30]], dtype=object))
    assert _exact._dyadic_integers(np.array([[2.0 ** -31]])) is None


@pytest.mark.parametrize("arr,want", [
    (np.array([[Fraction(1, 3), 2], [Fraction(-5, 6), 0]], dtype=object), [[2, 12], [-5, 0]]),
    (np.array([[Fraction(1, 2 ** 31), 1]], dtype=object), None),
    (np.array([[1, -4], [6, 8]], dtype=object), [[1, -4], [6, 8]]),
    (np.array([[3, 9], [-6, 12]], dtype=np.int64), [[1, 3], [-2, 4]]),
])
def test_object_and_integer_arrays_use_per_entry_rule(arr, want):
    assert _exact.is_rational(arr) == _per_entry_rational(arr) == (want is not None)
    if want is None:
        with pytest.raises(ValueError, match="small-denominator"):
            _exact.integerize(arr)
    else:
        assert _identical(_exact.integerize(arr), np.array(want, dtype=object))
