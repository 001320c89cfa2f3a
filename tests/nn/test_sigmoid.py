"""Bit-exactness of the mask-free, in-place ``_stable_sigmoid``.

The kernel computes ``max(e, [x >= 0]) / (1 + e)`` with
``e = exp(-min(|x|, 500))``.  The oracle is the two-branch formula the
kernel replaced: ``1/(1+e)`` where ``x >= 0``, ``e/(1+e)`` elsewhere,
picked with a mask.  Both must agree bit for bit, NaN payloads
included, with and without an ``out=`` array (aliasing the input or
not).  Away from NaN both also equal the textbook
``1/(1+exp(-clip(x)))`` / ``exp(clip(x))/(1+exp(clip(x)))``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.tensor import _stable_sigmoid

TINY = np.nextafter(0.0, 1.0)

SPECIAL = np.array(
    [
        0.0, -0.0,
        TINY, -TINY, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
        1e-17, -1e-17,
        1.0, -1.0, 36.7, -36.7,
        500.0, -500.0, np.nextafter(500.0, 0.0), -np.nextafter(500.0, 0.0),
        745.0, -745.0, 1e300, -1e300,
        np.inf, -np.inf, np.nan, -np.nan,
    ]
)


def _two_branch(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.minimum(np.abs(x), 500.0))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _textbook(x: np.ndarray) -> np.ndarray:
    c = np.clip(x, -500.0, 500.0)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-c)), np.exp(c) / (1.0 + np.exp(c)))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _check(x: np.ndarray) -> None:
    want = _two_branch(x)
    fresh = _stable_sigmoid(x)
    into = np.empty_like(x)
    returned = _stable_sigmoid(x, out=into)
    aliased = x.copy()
    _stable_sigmoid(aliased, out=aliased)
    assert returned is into
    for got in (fresh, into, aliased):
        assert np.array_equal(_bits(got), _bits(want))
    finite = ~np.isnan(x)
    assert np.array_equal(_bits(fresh[finite]), _bits(_textbook(x[finite])))
    assert np.array_equal(np.isnan(fresh), np.isnan(x))


def test_special_values():
    _check(SPECIAL)
    # The input is read-only to the kernel unless it is also ``out``.
    x = SPECIAL.copy()
    _stable_sigmoid(x)
    assert np.array_equal(_bits(x), _bits(SPECIAL))


def test_saturation_and_midpoint():
    y = _stable_sigmoid(np.array([0.0, -0.0, np.inf, -np.inf]))
    assert y[0] == y[1] == 0.5
    assert y[2] == 1.0
    assert 0.0 < y[3] < 1e-200


@pytest.mark.parametrize("shape", [(7,), (3, 8), (2, 4, 16)])
def test_strided_view_in_place(shape):
    """The LSTM kernel applies it in place to a (G, N, 4H) gate block."""
    rng = np.random.default_rng(sum(shape))
    block = rng.standard_normal(shape) * 40.0
    want = _two_branch(block)
    _stable_sigmoid(block, out=block)
    assert np.array_equal(_bits(block), _bits(want))


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_hypothesis_any_float(x):
    _check(x)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.integers(-320, 3)), min_size=1, max_size=64
    )
)
def test_hypothesis_across_magnitudes(pairs):
    x = np.array([m * 10.0**k for m, k in pairs])
    _check(x)
