"""The registry's number readers against the readers they replaced.

``number`` and ``numbers`` return a value already of their result's kind, a
finite numpy float or a finite 1-D float64 array, as it is; every other
value is read as before.  The readers as they were are kept here, and
hypothesis compares the two over the values at the edges of the float line.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from shmgp import registry
from shmgp.registry import _array


def _number_before(name, value, positive=False):
    array = _array(value)
    if array.ndim or array.dtype.kind not in "iuf" or not math.isfinite(array):
        raise ValueError(f"{name} takes one finite number, got {value!r}")
    if positive and not array > 0.0:
        raise ValueError(f"{name} takes a positive number, got {value!r}")
    return np.float64(array)


def _numbers_before(name, value, positive=False):
    array = _array(value)
    if array.ndim > 1 or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValueError(f"{name} takes one finite number or a list of them, got {value!r}")
    if positive and not (array > 0.0).all():
        raise ValueError(f"{name} takes positive numbers, got {value!r}")
    return np.atleast_1d(np.asarray(array, dtype=float))


EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 1.0,
         1.7976931348623157e308]
floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_subnormal=True))
floats32 = st.floats(width=32, allow_subnormal=True)
# each float as the kinds a reader meets: numpy and Python scalars, 0-, 1- and
# 2-D float64 arrays, a float32 and a big-endian array, and a list
scalars = st.one_of(floats.map(np.float64), floats, floats32.map(np.float32))
arrays = st.one_of(
    st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=np.float64)),
    floats.map(np.array),
    st.lists(floats, min_size=1, max_size=4).map(lambda v: np.array([v, v])),
    st.lists(floats32, max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=">f8")),
    st.lists(floats, max_size=4),
)


def _outcome(reader, value, positive):
    """(type, dtype, shape, bytes) of what ``reader`` returns, or its message."""
    try:
        got = reader("x", value, positive)
    except ValueError as error:
        return str(error)
    return type(got), got.dtype, got.shape, got.tobytes()


@given(value=st.one_of(scalars, arrays), positive=st.booleans())
@example(value=np.float64(-0.0), positive=True)
@example(value=np.float64(5e-324), positive=True)
@example(value=np.array([1.0, math.nan]), positive=False)
@example(value=np.array([2.0, -0.0]), positive=True)
@example(value=np.array([], dtype=np.float64), positive=True)
def test_readers_read_as_before(value, positive):
    assert _outcome(registry.number, value, positive) == _outcome(_number_before, value,
                                                                 positive)
    assert _outcome(registry.numbers, value, positive) == _outcome(_numbers_before, value,
                                                                  positive)


def test_a_value_of_the_result_kind_comes_back_itself():
    """What a swarm passes at every evaluation is returned, not copied."""
    value, array = np.float64(2.5), np.array([0.5, 3.0])
    assert registry.number("x", value, positive=True) is value
    assert registry.numbers("x", array, positive=True) is array
