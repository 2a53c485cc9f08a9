"""Core linear algebra: partial trace, eigendecomposition, unitary completion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import linalg

from conftest import IDENTITY2, P0, P1, X


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_dagger_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [4j, 5]])
    expected = np.array([[1 - 2j, -4j], [3, 5]])
    assert np.array_equal(q.dagger(m), expected)


@pytest.mark.parametrize(
    "m, dim_anc",
    [
        (np.eye(4), 0),  # non-positive ancilla dimension
        (np.eye(4), -2),
        (np.zeros((0, 0)), 2),  # non-positive system dimension
        (np.eye(6), 4),  # dim_anc does not divide the side
        (np.zeros((4, 6)), 2),  # not square
    ],
)
def test_partial_trace_rejects_bad_dimensions(m, dim_anc):
    with pytest.raises(q.DimensionMismatch):
        q.partial_trace_ancilla(m, dim_anc)


def test_partial_trace_of_product_state_returns_system_factor():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sys = random_hermitian(3, rng)
        anc = random_hermitian(2, rng)
        reduced = q.partial_trace_ancilla(np.kron(sys, anc), 2)
        assert q.max_abs(reduced - sys * np.trace(anc)) < 1e-12


def test_partial_trace_of_maximally_entangled_state_is_maximally_mixed():
    vec = np.zeros(4, dtype=complex)
    vec[0 * 2 + 0] = 1 / np.sqrt(2)
    vec[1 * 2 + 1] = 1 / np.sqrt(2)
    reduced = q.partial_trace_ancilla(np.outer(vec, vec.conj()), 2)
    assert q.max_abs(reduced - IDENTITY2 / 2) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    m = random_hermitian(6, rng)
    reduced = q.partial_trace_ancilla(m, 3)
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(q.NotHermitian):
        q.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_refuses_nan():
    with pytest.raises(q.NotHermitian, match="by nan"):
        q.hermitian_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_hermitian_eig_measures_the_hermiticity_defect_once(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "max_abs", lambda m: calls.append(m) or q.max_abs(m))
    with pytest.raises(q.NotHermitian, match="by 1.000e"):
        q.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert len(calls) == 1


def test_hermitian_eig_descending_and_reconstructs():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5):
        h = random_hermitian(dim, rng)
        vals, vecs = q.hermitian_eig(h)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
        assert q.max_abs(vecs @ np.diag(vals) @ vecs.conj().T - h) < 1e-12
        assert q.max_abs(vecs.conj().T @ vecs - np.eye(dim)) < 1e-12


def test_hermitian_eig_phase_convention():
    rng = np.random.default_rng(6)
    h = random_hermitian(4, rng)
    _, vecs = q.hermitian_eig(h)
    for col in vecs.T:
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_hermitian_eig_phase_equals_the_column_by_column_rotation():
    # The rotation is one array expression; it must give the bits of rotating
    # each eigenvector by conj(lead) / abs(lead) with Python's scalar abs.
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 8, 16):
        h = random_hermitian(dim, rng)
        vals, vecs = np.linalg.eigh(h)
        ref = vecs[:, np.argsort(-vals, kind="stable")]
        for j in range(dim):
            lead = ref[np.argmax(np.abs(ref[:, j])), j]
            ref[:, j] = ref[:, j] * (lead.conj() / abs(lead))
        assert np.array_equal(q.hermitian_eig(h)[1], ref)


def test_hermitian_eig_deterministic_on_degenerate_input():
    # Half the identity has a fully degenerate spectrum; the tie-break rule
    # must still give a reproducible eigenbasis.
    h = np.eye(4) / 2
    vals1, vecs1 = q.hermitian_eig(h)
    vals2, vecs2 = q.hermitian_eig(h)
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)


def argsort_hermitian_eig(h):
    """Reference: eigh, an argsort and two gathers, then a tie pass over every eigenvalue."""
    vals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    vecs *= peak.conj() / np.hypot(peak.real, peak.imag)
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] == vals[i]:
            j += 1
        if j > i:
            cols = sorted(
                range(i, j + 1),
                key=lambda c: tuple((x.real, x.imag) for x in vecs[:, c]),
                reverse=True,
            )
            vecs[:, i : j + 1] = vecs[:, cols]
        i = j + 1
    return vals, vecs


def weyl_depolarizer(dim, keep):
    """Weight ``keep`` on the identity and the rest spread over the other Weyl operators."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    ops = [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(dim)
        for b in range(dim)
    ]
    weights = [keep] + [(1 - keep) / (dim * dim - 1)] * (dim * dim - 1)
    return q.map_from_kraus(zip(weights, ops), dim).bmat


def degenerate_matrices():
    rng = np.random.default_rng(41)
    for dim in range(1, 7):
        yield np.eye(dim) / dim
        yield np.diag(rng.integers(-2, 3, dim).astype(float))
        yield np.diag(np.repeat(rng.standard_normal(2), dim))
    for dim in (2, 3, 4):
        yield weyl_depolarizer(dim, 1 / dim**2)
        yield weyl_depolarizer(dim, 0.7)


def test_hermitian_eig_equals_the_argsort_reference_on_degenerate_spectra():
    tied = 0
    for h in degenerate_matrices():
        vals, vecs = q.hermitian_eig(h)
        ref_vals, ref_vecs = argsort_hermitian_eig(h)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        tied += bool((vals[1:] == vals[:-1]).any())
    assert tied >= 15


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 36), seed=st.integers(0, 2**32 - 1))
def test_hermitian_eig_equals_the_argsort_reference(dim, seed):
    h = random_hermitian(dim, np.random.default_rng(seed))
    vals, vecs = q.hermitian_eig(h)
    ref_vals, ref_vecs = argsort_hermitian_eig(h)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


def test_psd_sqrt_of_projector_is_projector():
    assert q.max_abs(q.psd_sqrt(P1) - P1) < 1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    root = q.psd_sqrt(m)
    assert q.max_abs(root @ root - m) < 1e-10
    assert q.max_abs(root - root.conj().T) < 1e-12


def test_psd_sqrt_of_diagonal():
    root = q.psd_sqrt(np.diag([4.0, 9.0]))
    assert q.max_abs(root - np.diag([2.0, 3.0])) < 1e-12


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(q.NotPSD):
        q.psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_refuses_nan(monkeypatch):
    with pytest.raises(q.NotHermitian):
        q.psd_sqrt(np.diag([np.nan, 1.0]))
    # The PSD gate itself, reached by a NaN eigenvalue.
    def nan_eig(m):
        return np.array([1.0, np.nan]), np.eye(2)

    monkeypatch.setattr(linalg, "hermitian_eig", nan_eig)
    with pytest.raises(q.NotPSD):
        q.psd_sqrt(np.eye(2))


def test_complete_to_unitary_keeps_input_columns():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    cols, _ = np.linalg.qr(g)
    u = q.complete_to_unitary(cols)
    assert np.array_equal(u[:, :2], cols)
    assert q.max_abs(u.conj().T @ u - np.eye(6)) < 1e-12


def test_complete_to_unitary_rejects_non_orthonormal_columns():
    cols = np.array([[1.0], [1.0]])
    with pytest.raises(q.NotIsometry):
        q.complete_to_unitary(cols)


def test_complete_to_unitary_full_input_is_returned_whole():
    u0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.array_equal(q.complete_to_unitary(u0), u0)


@st.composite
def orthonormal_columns(draw):
    """D x k orthonormal columns, 1 <= k <= D <= 40, of three kinds.

    ``gaussian``: QR of a complex Gaussian block; ``zero_leading``: the same
    with a zero first entry in column 0; ``basis``: standard basis vectors in
    a random order, whose reflectors meet zero leading entries throughout.
    """
    dim = draw(st.integers(1, 40))
    k = draw(st.integers(1, dim))
    kind = draw(st.sampled_from(["gaussian", "zero_leading", "basis"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "basis":
        return np.eye(dim, dtype=complex)[:, rng.permutation(dim)[:k]]
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    if kind == "zero_leading":
        g[0, 0] = 0.0
    cols, _ = np.linalg.qr(g)
    return cols


@settings(max_examples=150, deadline=None)
@given(cols=orthonormal_columns())
def test_complete_to_unitary_properties(cols):
    dim, k = cols.shape
    u = q.complete_to_unitary(cols)
    assert np.array_equal(u[:, :k], cols)
    assert q.max_abs(u.conj().T @ u - np.eye(dim)) <= 1e-13


def test_complete_to_unitary_refuses_nan_columns():
    with pytest.raises(q.NotIsometry):
        q.complete_to_unitary(np.array([[np.nan], [0.0]]))


def test_max_abs():
    assert q.max_abs(np.array([[0.0, -3.0], [4j, 1.0]])) == 4.0


def test_dagger_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(23)
    for dim, k in [(1, 1), (2, 5), (5, 3), (8, 8)]:
        stack = np.array([random_hermitian(dim, rng) + 0.1j * np.eye(dim) for _ in range(k)])
        assert np.array_equal(q.dagger(stack), [q.dagger(m) for m in stack])


def test_min_eigenvalue_is_that_of_the_hermitian_part():
    # The Hermitian part of [[1, 2], [0, 1]] is [[1, 1], [1, 1]], eigenvalues 0 and 2.
    assert abs(linalg.min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))) <= 1e-15
    assert linalg.min_eigenvalue(np.diag([0.5, -0.25, 2.0])) == -0.25
    assert q.max_abs(np.zeros((0, 3))) == 0.0
