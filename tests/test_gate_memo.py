"""The one-slot gate memo never changes a result, and keeps one state.

``channel.gated_state`` gates an array state once per distinct content: the
last accepted state's C-order bytes key a one-slot memo. The property below
sends sequences of arrays through the three readouts (the same array again,
copies, transposes, non-contiguous views, real-dtype arrays, and the same
array edited in place between calls, into states the gate accepts or
refuses) and requires each result, or refusal, to be that of the
``DensityMatrix(array.copy())`` route, bit for bit.

The property pins no ``max_examples``, so a hypothesis profile sets its
budget; ``--hypothesis-profile=ci`` runs the larger one from conftest.py.
"""

import functools
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import channel
from qdilate.channel import gated_state

from conftest import make_split_instrument, traced_peak


@functools.cache
def instrument_and_dilation(dim: int) -> tuple:
    inst = make_split_instrument(dim, min(3, dim * dim), 22_000 + dim)
    return inst, q.build_instrument_dilation(inst)


def readout(name: str, dim: int, state):
    inst, dil = instrument_and_dilation(dim)
    if name == "measure":
        return q.measure_via_dilation(dil, state)
    if name == "direct":
        return q.outcome_statistics(inst, state)
    return q.sample_outcomes(dil, state, 1000, 5)


def result_bits(name: str, dim: int, state):
    """A readout's result as comparable bits, or its refusal's type and message."""
    try:
        result = readout(name, dim, state)
    except q.QDilateError as exc:
        return type(exc), str(exc)
    if name == "sample":
        return result
    return [
        (o.label, o.probability.hex(), None if o.post_state is None else o.post_state.tobytes())
        for o in result
    ]


def reference_bits(name: str, dim: int, array):
    try:
        state = q.DensityMatrix(array.copy())
    except q.QDilateError as exc:
        return type(exc), str(exc)
    return result_bits(name, dim, state)


def edit(held: np.ndarray, how: str, rng) -> None:
    """Change ``held`` in place into another state, valid or not."""
    n = len(held)
    if how == "mix":
        held *= 0.5
        held += np.eye(n) * (0.5 / n)
    elif how == "non-hermitian":
        held[0, n - 1] += 1e-3j if n == 1 else 1e-3
    elif how == "non-psd":
        held[:] = 0.0
        held[0, 0] = 1.5
        held[n - 1, n - 1] -= 0.5
    elif how == "off-trace":
        held *= 1.01
    elif how == "nan":
        i, j = rng.integers(0, n, 2)
        held[i, j] = np.nan
    else:  # "fresh": another valid state, drawn anew
        held[:] = q.random_density(n, int(rng.integers(2**32))).mat


def passed(held: np.ndarray, how: str) -> np.ndarray:
    """What a caller hands the readout: ``held`` itself or another array."""
    if how == "same":
        return held
    if how == "copy":
        return held.copy()
    if how == "transpose":
        return held.T
    if how == "fortran":
        return np.asfortranarray(held)
    if how == "strided":
        n = len(held)
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[::2, ::2] = held
        return big[::2, ::2]
    if how == "real-view":
        return held.real
    return np.ascontiguousarray(held.real)  # "real"


EDITS = ["none", "mix", "non-hermitian", "non-psd", "off-trace", "nan", "fresh"]
PASSES = ["same", "copy", "transpose", "fortran", "strided", "real-view", "real"]
READOUTS = ["measure", "direct", "sample"]


@settings(deadline=None)
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.sampled_from(EDITS), st.sampled_from(PASSES), st.sampled_from(READOUTS)),
        min_size=1,
        max_size=12,
    ),
)
def test_the_memo_never_changes_a_result(dim, seed, steps):
    rng = np.random.default_rng(seed)
    held = q.random_density(dim, seed).mat.copy()
    for how_edit, how_pass, name in steps:
        if how_edit != "none":
            edit(held, how_edit, rng)
        array = passed(held, how_pass)
        assert result_bits(name, dim, array) == reference_bits(name, dim, array)


def test_the_memo_keeps_the_last_accepted_state():
    small = q.random_density(2, 22_100).mat.copy()
    first = gated_state(small, 2)
    assert not first.flags.writeable
    assert not np.shares_memory(first, small)
    # The same bytes, from this array or another, give the held matrix back.
    for same in (small, small.copy(), np.asfortranarray(small), small.tolist()):
        assert gated_state(same, 2) is first
    small[0, 0] -= 0.25
    small[1, 1] += 0.25
    second = gated_state(small, 2)
    assert second is not first and np.array_equal(second, small)


def retained(fn) -> int:
    """The bytes tracemalloc sees still held after ``fn()`` returns."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_memo_retains_one_state():
    big = q.random_density(64, 22_200).mat.copy()
    small = q.random_density(2, 22_201).mat.copy()
    gated_state(big, 64), gated_state(small, 2)  # numpy's own first-call caches

    def big_then_small():
        gated_state(big.copy(), 64)
        gated_state(small.copy(), 2)

    channel._gated_bytes.cache_clear()
    assert retained(big_then_small) <= 16 * 2**2 + 4096


def test_a_refused_state_is_never_retained():
    small = q.random_density(2, 22_300).mat.copy()
    bad = q.random_density(64, 22_301).mat.copy()
    bad[0, 0] += 1.0  # trace 2

    def refuse():
        try:
            gated_state(bad, 64)
        except q.ValidationError:
            pass
        else:
            raise AssertionError("a state of trace 2 passed the gate")

    kept = gated_state(small, 2)
    refuse()
    assert retained(refuse) <= 4096
    assert channel._gated_bytes.cache_info().currsize == 1
    assert gated_state(small.copy(), 2) is kept


def test_a_first_readout_holds_no_more_than_the_gate_copy():
    n = 64
    # A dephasing channel, built from its two terms: no N^4 dynamical matrix.
    ops = np.array([np.eye(n), np.diag(np.resize([1.0, -1.0], n))]) / np.sqrt(n)
    dil = q.build_dilation_unitary(q.CanonicalDecomposition(dim=n, weights=[n / 2] * 2, ops=ops))
    # The gate alone: its one copy of the state, one temporary and the
    # buffer of the conjugate transpose.
    fresh = q.random_density(n, 22_401).mat.copy()
    assert traced_peak(lambda: gated_state(fresh, n)) <= 3 * 16 * n**2 + 4096
    for seed, read in (
        (22_410, lambda state: q.measure_via_dilation(dil, state)),
        (22_420, lambda state: q.sample_outcomes(dil, state, 1000, 5)),
    ):
        warm, passed_gate, fresh = (q.random_density(n, seed + k) for k in range(3))
        read(warm)  # the dilation's own caches
        gated = traced_peak(lambda: read(passed_gate))
        fresh = fresh.mat.copy()
        # An array costs at most the gate's one copy more than a DensityMatrix.
        assert traced_peak(lambda: read(fresh)) <= gated + 16 * n**2 + 4096
