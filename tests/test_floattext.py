"""The report writer's float kernel gives ``float.__repr__``'s text, float by float.

``qdilate._floattext`` formats float64 arrays with elementwise numpy
arithmetic and leaves the floats it cannot decide to ``float.__repr__``.
These tests compare its text with ``float.__repr__`` (json's NaN, Infinity
and -Infinity for the non-finite), send every input through the kernel
whatever its size, and check the block loop, its memory and how much of a
unitary the kernel decides without ``float.__repr__``.
"""

import json
import math
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdilate as q
from conftest import traced_peak
from qdilate import _floattext
from qdilate.io import write_json

BLOCK = _floattext._BLOCK


def reference(values) -> list:
    """``float.__repr__`` of each value, with json's spelling for the non-finite."""
    return [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in values]


def kernel_text(values) -> list:
    """The kernel's text of each float of ``values``, however few they are."""
    column = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    with mock.patch.object(_floattext, "_KERNEL_MIN", 0):
        text = "".join(_floattext.rows_text(column, ["\n"]))
    return text.split("\n")[1:]


def within_ulps(centers, ulps=3) -> np.ndarray:
    """Each center and the floats up to ``ulps`` steps either side, with both signs."""
    up = down = np.asarray(centers, dtype=np.float64)
    steps = [up]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        steps += [up, down]
    values = np.concatenate(steps)
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    # Uniform 64-bit patterns: every exponent, subnormals, NaN payloads and
    # both infinities. Compared a slice at a time to keep the lists small.
    bits = np.random.default_rng(24).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    for start in range(0, len(values), 100_000):
        part = values[start : start + 100_000]
        assert kernel_text(part) == reference(part.tolist())


SHORT_DECIMALS = [
    round(v, digits)
    for v in (np.random.default_rng(25).random(1000) * 10.0 ** np.arange(-5, 15).repeat(50)).tolist()
    for digits in range(17)
]


@pytest.mark.parametrize(
    "values",
    [
        within_ulps([10.0**k for k in range(-30, 31)]),
        within_ulps([1e-4, 1e16]),  # where repr switches between its two layouts
        within_ulps(np.ldexp(1.0, np.arange(-60, 61))),  # lopsided rounding windows
        # 15- and 16-digit shortest forms, with trailing zeros to strip.
        np.array(SHORT_DECIMALS),
        np.array([5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf]),
    ],
    ids=["powers_of_ten", "layout_switches", "powers_of_two", "short_decimals", "special"],
)
def test_edge_cases(values):
    assert kernel_text(values) == reference(values.tolist())


@given(st.lists(st.floats(), min_size=1, max_size=300))
def test_any_floats(values):
    assert kernel_text(values) == reference(values)


def written(m) -> str:
    buf = StringIO()
    write_json({"m": m}, buf)
    return buf.getvalue()


def dumped(m) -> str:
    return json.dumps({"m": q.encode_matrix(m)}, indent=2) + "\n"


def complex_matrix(shape, seed) -> np.ndarray:
    """Gaussian entries scaled by 10**-20 .. 10**19, so every layout of repr occurs."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-20, 20, shape + (2,))
    return parts.view(complex)[..., 0]


def test_matrix_spanning_several_blocks():
    height = BLOCK // 200  # rows of 100 complex entries per block
    m = complex_matrix((3 * height + 5, 100), seed=26)
    assert written(m) == dumped(m)


def test_rows_wider_than_a_block():
    # Each row splits into one whole block and a 14-float piece.
    m = complex_matrix((3, BLOCK // 2 + 7), seed=27)
    assert written(m) == dumped(m)


def test_non_finite_values_either_side_of_block_boundaries():
    m = complex_matrix((3 * BLOCK // 128, 64), seed=28)  # blocks of exactly 128 rows
    parts = m.view(np.float64).reshape(-1)
    for i, value in zip([BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK], [np.nan, np.inf, -np.inf, np.nan]):
        parts[i] = value
    assert written(m) == dumped(m)


class Discard:
    def write(self, text):
        pass


def full_rank_unitary(n, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(n, n * n, rng))).u


@pytest.mark.parametrize("n", [6, 8])
def test_memory_is_set_by_the_block_not_the_matrix(n):
    # D = 216 and 512: the same bound holds for a U with 5.6 times the floats, which alone
    # is 4 MiB at D = 512; they peak at about 5.2 and 5.5 MiB.
    u = full_rank_unitary(n, seed=29)
    assert traced_peak(lambda: write_json({"u": u}, Discard())) < 8 * 2**20


def test_kernel_decides_a_unitary_without_repr():
    u = full_rank_unitary(6, seed=30)
    decided = _floattext.shortest(u.view(np.float64).reshape(-1))[2]
    assert decided.mean() >= 0.99
