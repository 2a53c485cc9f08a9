"""Dense complex linear-algebra kernels shared by the higher-level modules.

Everything here operates on plain ``numpy`` arrays. Matrices on a composite
system-plus-ancilla space use a single flat index with the system index slow
and the ancilla index fast, ``|r>|alpha> -> r * dim_anc + alpha``, which is
the ordering produced by ``kron(system, ancilla)``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotIsometry,
    NotPSD,
    RankDeficient,
)

DEFAULT_TOL = 1e-10

# Residual norm above which a Gram-Schmidt candidate counts as a new
# independent direction.
COMPLETION_RESIDUAL = 1e-8


def max_abs(m) -> float:
    """Largest entrywise absolute value (0 for an empty array)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor slow: (i*rowsB + k, j*colsB + l)."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace_ancilla(m: np.ndarray, dim_anc: int) -> np.ndarray:
    """Trace out the ancilla factor of a composite-space matrix.

    Returns the dim_sys x dim_sys matrix, dim_sys = side / dim_anc, with
    entries ``out[r, s] = sum_alpha m[(r, alpha), (s, alpha)]``.
    """
    m = np.asarray(m)
    side = m.shape[0] if m.ndim == 2 and m.shape[0] == m.shape[1] else 0
    if dim_anc < 1 or side < 1 or side % dim_anc:
        raise DimensionMismatch(
            f"matrix shape {m.shape} is not square with a side that is a positive "
            f"multiple of dim_anc = {dim_anc}"
        )
    n = side // dim_anc
    return np.einsum("rasa->rs", m.reshape(n, dim_anc, n, dim_anc))


def _fix_phase(col: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude component is real positive."""
    k = int(np.argmax(np.abs(col)))
    a = abs(col[k])
    if a == 0.0:
        return col
    return col * (col[k].conj() / a)


def _lex_key(col: np.ndarray):
    return tuple((x.real, x.imag) for x in col)


def hermitian_eig(h: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix with a deterministic ordering.

    Eigenvalues come back sorted descending. Each eigenvector has its
    largest-magnitude component rotated to be real positive, and columns of
    exactly equal eigenvalue are ordered lexicographically (descending) by
    their components, so degenerate inputs still decompose reproducibly.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as orthonormal
    columns satisfying ``h = V diag(w) V^dagger``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    if max_abs(h - dagger(h)) > tol:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {max_abs(h - dagger(h)):.3e} (tol {tol:.1e})"
        )
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        vecs[:, j] = _fix_phase(vecs[:, j])
    # Reorder within groups of exactly equal eigenvalues.
    i = 0
    n = len(vals)
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        if j > i:
            cols = sorted(range(i, j + 1), key=lambda c: _lex_key(vecs[:, c]), reverse=True)
            vecs[:, i : j + 1] = vecs[:, cols]
        i = j + 1
    return vals, vecs


def psd_sqrt(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues below ``tol`` are clamped to zero before the square root;
    an eigenvalue below ``-tol`` raises :class:`NotPSD`.
    """
    vals, vecs = hermitian_eig(m, tol)
    if vals.min() < -tol:
        raise NotPSD(f"minimum eigenvalue {vals.min():.3e} below -{tol:.1e}")
    clamped = np.where(vals < tol, 0.0, vals)
    root = (vecs * np.sqrt(clamped)) @ dagger(vecs)
    return (root + dagger(root)) / 2


def _candidate_vectors(dim: int, rng):
    if rng is None:
        for i in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[i] = 1.0
            yield e
    else:
        for _ in range(4 * dim + 16):
            yield rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def complete_to_unitary(
    columns: np.ndarray, tol: float = DEFAULT_TOL, rng=None
) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The first ``k`` columns of the result are the input columns unchanged.
    The remaining directions come from orthogonalizing candidate vectors
    (standard basis vectors in order, or Gaussian draws when ``rng`` is
    given) against every accepted column with two passes of modified
    Gram-Schmidt, accepting a candidate when its residual norm exceeds
    ``COMPLETION_RESIDUAL``.
    """
    cols = np.array(columns, dtype=complex)
    if cols.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d column block, got shape {cols.shape}")
    dim, k = cols.shape
    if k > dim:
        raise NotIsometry(f"{k} columns cannot be orthonormal in dimension {dim}")
    gram = dagger(cols) @ cols
    defect = max_abs(gram - np.eye(k))
    if defect > tol:
        raise NotIsometry(f"columns deviate from orthonormal by {defect:.3e} (tol {tol:.1e})")

    out = np.zeros((dim, dim), dtype=complex)
    out[:, :k] = cols
    accepted = k
    for cand in _candidate_vectors(dim, rng):
        if accepted == dim:
            break
        v = cand.astype(complex)
        for _ in range(2):
            for j in range(accepted):
                q = out[:, j]
                v = v - (q.conj() @ v) * q
        nrm = float(np.linalg.norm(v))
        if nrm > COMPLETION_RESIDUAL:
            out[:, accepted] = v / nrm
            accepted += 1
    if accepted < dim:
        raise RankDeficient(
            f"found only {accepted - k} of {dim - k} completion directions"
        )
    return out
