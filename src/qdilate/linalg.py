"""Dense complex linear-algebra kernels shared by the higher-level modules.

Everything here operates on plain ``numpy`` arrays. Matrices on a composite
system-plus-ancilla space use a single flat index with the system index slow
and the ancilla index fast, ``|r>|alpha> -> r * dim_anc + alpha``, which is
the ordering produced by ``np.kron(system, ancilla)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotIsometry, NotPSD

# The one bound on a numerical defect, read by every module: within it a matrix
# is Hermitian, a map trace-preserving, an instrument complete, columns
# orthonormal; only an eigenvalue below -DEFAULT_TOL is a real negative.
DEFAULT_TOL = 1e-10


def max_abs(m) -> float:
    """Largest entrywise absolute value (0 for an empty array)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix for a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def dagger_copy(m) -> np.ndarray:
    """Conjugate transpose of a matrix as a fresh C-order array.

    An in-place update of it by ``m`` runs unbuffered: ``dagger``'s F-order
    view runs through numpy's buffered loop, about 3x slower at N = 64 with
    two more copies of m at its peak.
    """
    return np.conjugate(np.asarray(m).T, order="C")


def hermiticity_defect(m) -> float:
    """max|m - m^dagger|, formed as m^dagger - m in place (the same bits).

    NaN or inf, with no warning, if m is not finite or the difference overflows.
    """
    diff = dagger_copy(m)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a quiet NaN
        diff -= m
    return max_abs(diff)


def isometry_defect(cols: np.ndarray) -> float:
    """max|C^dagger C - I| of a D x k column block, one BLAS product in O(D k^2)."""
    return max_abs(dagger(cols) @ cols - np.eye(cols.shape[1]))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian part ``(m + m^dagger) / 2``."""
    # m^dagger + m in place: the bits of m + m^dagger (addition commutes).
    herm = dagger_copy(m)
    herm += m
    herm /= 2
    return float(np.linalg.eigvalsh(herm).min())


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


def _lex_key(col: np.ndarray):
    return tuple((x.real, x.imag) for x in col)


def hermitian_eig(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix with a deterministic ordering.

    Eigenvalues come back sorted descending (``eigh``'s order, reversed), and
    the eigenvectors follow :func:`_eigenbasis_conventions`.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as orthonormal
    columns satisfying ``h = V diag(w) V^dagger``. A :func:`hermiticity_defect`
    above ``DEFAULT_TOL``, or NaN, raises :class:`NotHermitian`.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if not defect <= DEFAULT_TOL:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {defect:.3e} (tol {DEFAULT_TOL:.1e})"
        )
    return sorted_eigh(h)


def sorted_eigh(h: np.ndarray):
    """:func:`hermitian_eig` of a square complex matrix already known Hermitian.

    Nothing is checked, so a caller that has measured the Hermiticity defect
    does not pay for it twice.
    """
    vals, vecs = np.linalg.eigh(h)
    return _eigenbasis_conventions(vals[::-1], vecs[:, ::-1])


def factor_eig(f: np.ndarray):
    """Eigendecomposition of ``f f^dagger`` from the thin SVD of the D x r factor f.

    Returns the r eigenpairs ``(s**2, u)`` of ``f = u diag(s) vh``, descending
    and under :func:`_eigenbasis_conventions` as :func:`hermitian_eig` gives
    them; the other D - r eigenvalues of ``f f^dagger`` are exactly 0. One
    nonzero column f gives ``(f^dagger f, f / |f|)``, with no s**2 to round. It
    costs O(D r^2), where ``eigh`` of the D x D product costs O(D^3). The
    r x r Gram matrix ``f^dagger f`` would be cheaper still, but its
    eigenvectors lose orthogonality by about eps * s_max^2 / s^2 for nearly
    dependent columns.
    """
    if f.shape[1] == 1:
        val = (f.real * f.real + f.imag * f.imag).sum(axis=0)
        if val[0] > 0:
            return _eigenbasis_conventions(val, f / np.sqrt(val))
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    return _eigenbasis_conventions(s * s, u)


def _eigenbasis_conventions(vals: np.ndarray, vecs: np.ndarray):
    """Fix the phases and tie order of descending eigenpairs, in place.

    Each eigenvector has its largest-magnitude component rotated to be real
    positive, and columns of exactly equal eigenvalue are ordered
    lexicographically (descending) by their components, so degenerate inputs
    still decompose reproducibly; that pass runs only if there are such ties.
    Returns ``(vals, vecs)``.
    """
    # Rotate each column so its largest-magnitude component is real positive.
    # np.hypot rounds as the scalar abs() of a complex number does, while
    # np.abs of a complex array can differ in the last bit, which would
    # change the operators and so U.
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    vecs *= peak.conj() / np.hypot(peak.real, peak.imag)
    # Reorder within groups of exactly equal eigenvalues, if there are any.
    i = 0
    n = len(vals) if (vals[1:] == vals[:-1]).any() else 0
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        if j > i:
            cols = sorted(range(i, j + 1), key=lambda c: _lex_key(vecs[:, c]), reverse=True)
            vecs[:, i : j + 1] = vecs[:, cols]
        i = j + 1
    return vals, vecs


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues below ``DEFAULT_TOL`` are clamped to zero before the square
    root; an eigenvalue below ``-DEFAULT_TOL`` raises :class:`NotPSD`.
    """
    vals, vecs = hermitian_eig(m)
    if not vals.min() >= -DEFAULT_TOL:
        raise NotPSD(f"minimum eigenvalue {vals.min():.3e} below -{DEFAULT_TOL:.1e}")
    clamped = np.where(vals < DEFAULT_TOL, 0.0, vals)
    root = (vecs * np.sqrt(clamped)) @ dagger(vecs)
    return (root + dagger(root)) / 2


def _norm(v: np.ndarray) -> float:
    """Euclidean norm from elementwise ufuncs and a reduction, without BLAS."""
    return float(np.sqrt(np.sum(v.real * v.real + v.imag * v.imag)))


def _reflector(x: np.ndarray) -> np.ndarray:
    """Unit v with (I - 2 v v^dagger) x along e_0 (Golub & Van Loan 5.1).

    The sign follows the phase of x[0] (1 for a zero entry), so v[0] adds
    magnitudes and never cancels.
    """
    v = np.array(x, dtype=complex)
    a = abs(v[0])
    phase = v[0] / a if a else 1.0
    v[0] += phase * _norm(x)
    return v / _norm(v)


def _compact_wy(cols: np.ndarray) -> tuple:
    """Householder reflectors of a D x k column block in compact-WY form.

    Returns ``(w, t)``, w the D x k unit reflector vectors (w[:j, j] = 0) and t
    the k x k upper-triangular factor, with H_1 ... H_k = I - w t w^dagger.
    Costs O(D k^2).
    """
    dim, k = cols.shape
    a = cols.copy()
    w = np.zeros((dim, k), dtype=complex)
    t = np.zeros((k, k), dtype=complex)
    for j in range(k):
        v = _reflector(a[j:, j])
        w[j:, j] = v
        rest = a[j:, j + 1 :]
        rest -= 2.0 * np.multiply.outer(v, np.einsum("i,ij->j", v.conj(), rest))
        # H_1..H_j = (I - W T W^dagger)(I - 2 v v^dagger) adds the column
        # -2 T (W^dagger v) above the new diagonal entry 2.
        overlap = np.einsum("ia,i->a", w[j:, :j].conj(), v)
        t[:j, j] = -2.0 * np.einsum("ab,b->a", t[:j, :j], overlap)
        t[j, j] = 2.0
    return w, t


def complete_to_unitary(columns: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The first ``k`` columns of the result are the input columns unchanged.
    The other D - k are the complement ``Q[:, k:]`` of the Householder QR of
    the input, formed in compact-WY form as ``I[:, k:] - W T W[k:, :]^dagger``
    in O(D^2 k) from elementwise ufuncs, reductions and ``np.einsum``, never
    BLAS or LAPACK, so it is bit-identical at any BLAS thread count. Only the
    input check is a BLAS product: an :func:`isometry_defect` above
    ``DEFAULT_TOL``, as in the ``Dilation`` validator, raises :class:`NotIsometry`.
    """
    cols = np.array(columns, dtype=complex)
    if cols.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d column block, got shape {cols.shape}")
    dim, k = cols.shape
    if k > dim:
        raise NotIsometry(f"{k} columns cannot be orthonormal in dimension {dim}")
    defect = isometry_defect(cols)
    if not defect <= DEFAULT_TOL:
        raise NotIsometry(
            f"columns deviate from orthonormal by {defect:.3e} (tol {DEFAULT_TOL:.1e})"
        )

    out = np.empty((dim, dim), dtype=complex)
    out[:, :k] = cols
    if k == dim:
        return out
    w, t = _compact_wy(cols)
    comp = out[:, k:]
    wt = np.einsum("ia,ab->ib", w, t)
    np.einsum("ib,mb->im", wt, -w[k:].conj(), out=comp)
    diag = np.arange(dim - k)
    comp[k + diag, diag] += 1.0
    return out
