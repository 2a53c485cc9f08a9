"""Shared fixtures: paths to shipped spec files and random instrument builders."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import qdilate as q

# A larger example budget for the properties that pin none of their own, run
# as `pytest --hypothesis-profile=ci`; the default profile keeps 100.
settings.register_profile("ci", max_examples=2000)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def channel_path(name: str) -> Path:
    return FIXTURES / "channels" / name


def instrument_path(name: str) -> Path:
    return FIXTURES / "instruments" / name


def state_path(name: str) -> Path:
    return FIXTURES / "states" / name


def make_split_instrument(dim: int, mu: int, seed, rank=None) -> q.Instrument:
    """Random complete instrument: a random CPTP map cut into mu pieces.

    The union of all pieces is the original channel, so the total effect is
    the identity up to the channel's own construction noise. The channel's
    Kraus rank is drawn from [mu, dim^2] unless given.
    """
    rng = np.random.default_rng(seed)
    if rank is None:
        rank = int(rng.integers(mu, dim * dim + 1))
    dec = q.canonical_decompose(q.random_cptp(dim, rank, rng))
    assert dec.rank >= mu
    groups = [[] for _ in range(mu)]
    for j, term in enumerate(zip(dec.weights, dec.ops)):
        groups[j % mu].append(term)
    maps = tuple((f"o{i}", q.map_from_kraus(g, dim)) for i, g in enumerate(groups))
    return q.Instrument(dim=dim, maps=maps)


def make_projective_instrument(dim: int, mu: int, seed) -> q.Instrument:
    """Random complete instrument from a Haar-random orthonormal basis.

    Basis vectors are grouped into mu rank-deficient projectors summing to
    the identity; requires mu <= dim.
    """
    assert mu <= dim
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis, _ = np.linalg.qr(g)
    groups = [[] for _ in range(mu)]
    for k in range(dim):
        groups[k % mu].append(basis[:, k])
    maps = []
    for i, cols in enumerate(groups):
        proj = sum(np.outer(c, c.conj()) for c in cols)
        maps.append((f"o{i}", q.map_from_kraus([(1.0, proj)], dim)))
    return q.Instrument(dim=dim, maps=tuple(maps))


@st.composite
def sampling_cases(draw):
    """A split, projective or padded instrument (N 1..6, 1..4 outcomes) and a state."""
    kind = draw(st.sampled_from(["split", "projective", "padded"]))
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "projective":
        inst = make_projective_instrument(dim, draw(st.integers(1, min(4, dim))), seed)
    else:
        rank = draw(st.integers(1, dim * dim))
        mu = draw(st.integers(1, min(4 if kind == "split" else 3, rank)))
        inst = make_split_instrument(dim, mu, seed, rank=rank)
        if kind == "padded":
            scale = draw(st.floats(0.05, 0.95))
            inst = q.pad_to_complete(q.Instrument(
                dim=dim, maps=tuple((label, q.DynamicalMap(scale * dmap.bmat))
                                    for label, dmap in inst.maps)))
    rho = q.random_density(dim, seed + 1)
    return inst, rho if draw(st.booleans()) else rho.mat


def another_completion(dil: q.Dilation, seed) -> np.ndarray:
    """``dil.u`` with its free columns (r', a != 0) mixed by a Haar-random unitary.

    The columns (r', 0) stay the isometry, so the result is another valid
    completion of the same dilation, drawn from all of them rather than from
    one family. The Haar unitary is the QR factor of a seeded complex
    Gaussian with the phases of R's diagonal divided out.
    """
    u = dil.u.copy()
    free = np.arange(len(u)).reshape(dil.sys_dim, dil.anc_dim)[:, 1:].ravel()
    if len(free):
        rng = np.random.default_rng(seed)
        shape = (len(free), len(free))
        haar, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        haar *= np.diag(r) / np.abs(np.diag(r))
        u[:, free] = u[:, free] @ haar
    return u


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def joint_state_through(u: np.ndarray, rho: q.DensityMatrix, anc_dim: int) -> np.ndarray:
    """Reference evolution ``U (rho (x) |0><0|) U^dagger`` with the whole of U."""
    anc0 = np.zeros((anc_dim, anc_dim), dtype=complex)
    anc0[0, 0] = 1.0
    return u @ np.kron(rho.mat, anc0) @ u.conj().T


@pytest.fixture
def plus_state() -> q.DensityMatrix:
    return q.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


@pytest.fixture
def excited_state() -> q.DensityMatrix:
    return q.DensityMatrix(P1)
