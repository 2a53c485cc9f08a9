"""The direct route is one GEMV of a cached transfer matrix per map.

``einsum_apply_map`` and ``einsum_outcome_raws`` below are ``apply_map`` and
``outcome_statistics``' kernels as written before they became a GEMV of
``DynamicalMap.transfer`` and a batched matmul of the instrument's stack of
transfer matrices, kept as the reference. The GEMV sums in another order, so
it must lie within rounding of the einsum, while every outcome of
``outcome_statistics`` must be the bits ``apply_map`` gives on its map. The
properties pin no ``max_examples``, so CI runs them under the ``ci`` profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate.channel import gated_state, state_matrix

from conftest import channel_path, make_projective_instrument, make_split_instrument, traced_peak

EPS = np.finfo(float).eps


# The reference kernels.
def einsum_apply_map(dmap, rho):
    n = dmap.dim
    mat = state_matrix(rho, n)
    b4 = dmap.bmat.reshape(n, n, n, n)
    return np.einsum("rpsq,pq->rs", b4, mat)


def einsum_outcome_raws(inst, rho):
    bmats = np.stack([dmap.bmat for _, dmap in inst.maps]).reshape(-1, *[inst.dim] * 4)
    return np.einsum("krpsq,pq->krs", bmats, gated_state(rho, inst.dim))


def rounding_bound(dmap) -> float:
    """16 eps N^2 max|B|: how far two orders of summing N^2 products with a state may part."""
    return 16 * EPS * dmap.dim**2 * q.max_abs(dmap.bmat)


@st.composite
def maps(draw):
    """A CP or signed Kraus sum (N 1..8, rank 1..N^2), or the transpose map."""
    kind = draw(st.sampled_from(["cp", "signed", "transpose"]))
    if kind == "transpose":
        return q.load_channel(channel_path("transpose.json"))
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(1, n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rank, n, n)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weights = rng.standard_normal(rank)
    return q.map_from_kraus(zip(np.abs(weights) if kind == "cp" else weights, ops), n)


@st.composite
def instruments(draw):
    """A split or projective instrument, N 1..8 and K 1..5 outcomes (as many as fit)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return make_projective_instrument(n, min(k, n), seed)
    return make_split_instrument(n, min(k, n * n), seed)


def state(dim: int, seed: int, transposed: bool) -> np.ndarray:
    """A random density matrix, or its transpose as a non-contiguous view."""
    mat = q.random_density(dim, seed).mat
    return mat.T if transposed else mat


@settings(deadline=None)
@given(dmap=maps(), seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
def test_apply_map_is_the_einsum_within_rounding(dmap, seed, transposed):
    rho = state(dmap.dim, seed, transposed)
    out = q.apply_map(dmap, rho)
    assert q.max_abs(out - einsum_apply_map(dmap, rho)) <= rounding_bound(dmap)


@settings(deadline=None)
@given(inst=instruments(), seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
def test_each_outcome_is_the_maps_own_gemv_and_the_einsum_within_rounding(inst, seed, transposed):
    rho = state(inst.dim, seed, transposed)
    raws = np.stack([o.raw_unnormalized for o in q.outcome_statistics(inst, rho)])
    assert np.array_equal(raws, np.stack([q.apply_map(dmap, rho) for _, dmap in inst.maps]))
    for raw, ref, (_, dmap) in zip(raws, einsum_outcome_raws(inst, rho), inst.maps):
        assert q.max_abs(raw - ref) <= rounding_bound(dmap)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_the_transfer_matrix_is_a_read_only_permuted_copy(dim):
    dmap = q.random_cptp(dim, dim, 40 + dim)
    transfer = dmap.transfer
    assert transfer is dmap.transfer
    assert not transfer.flags.writeable
    assert not np.shares_memory(transfer, dmap.bmat)
    r, s, p, t = np.indices((dim,) * 4)
    assert np.array_equal(transfer[r * dim + s, p * dim + t], dmap.bmat[r * dim + p, s * dim + t])
    with pytest.raises(ValueError, match="read-only"):
        transfer[0, 0] = 0.0


def test_an_instrument_holds_one_stack_of_its_maps_transfer_matrices():
    inst = make_split_instrument(4, 3, 45)
    assert not hasattr(inst, "_bmats")
    stack = inst._transfers
    assert stack is inst._transfers
    assert not stack.flags.writeable
    assert np.array_equal(stack, np.stack([dmap.transfer for _, dmap in inst.maps]))
    assert not any(np.shares_memory(stack, dmap.bmat) for _, dmap in inst.maps)


SLACK = 64 * 1024


def test_apply_map_forms_the_transfer_matrix_once():
    n = 12
    dmap = q.random_cptp(n, n * n, 46)
    rho = q.random_density(n, 47)
    assert traced_peak(lambda: q.apply_map(dmap, rho)) <= 16 * n**4 + SLACK
    assert traced_peak(lambda: q.apply_map(dmap, rho)) <= SLACK


def test_outcome_statistics_forms_the_stack_in_one_copy():
    n, k = 8, 3
    inst = make_split_instrument(n, k, 48)
    rho = q.random_density(n, 49)
    assert traced_peak(lambda: q.outcome_statistics(inst, rho)) <= 16 * k * n**4 + SLACK
