"""Dynamical maps on density matrices.

A map ``rho -> rho'`` with ``rho'[r, s] = sum_{r', s'} B[(r, r'), (s, s')] rho[r', s']``
is stored through its N^2 x N^2 dynamical matrix ``B`` (row index ``r*N + r'``,
column index ``s*N + s'``). ``B`` is Hermitian exactly when the map preserves
Hermiticity, its eigendecomposition gives the canonical operator-sum form
``rho -> sum_a w_a L_a rho L_a^dagger`` with real weights and Hilbert-Schmidt
orthonormal operators, and the map is completely positive exactly when all
weights are nonnegative.

Weights and operators are kept separate (``w_a`` real, ``L_a`` normalized to
unit Hilbert-Schmidt norm) so maps that are *not* completely positive stay
representable with negative weights.

:class:`DensityMatrix` is the library's one density-matrix gate. A readout
passes its input state through it once, by :func:`gated_state`; the linear
routes take any matrix through :func:`state_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadRank, DimensionMismatch, ValidationError
from .linalg import DEFAULT_TOL, dagger, factor_eig, max_abs, min_eigenvalue, sorted_eigh

# Relative cutoff below which decomposition eigenvalues count as zero rank.
TRUNCATION_TOL = 1e-12

# Largest dynamical matrix random_cptp builds: 1 GiB of complex128, N <= 90.
_MAP_BYTES_BUDGET = 1 << 30


def _require_finite(m: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")


def _square_complex(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    _require_finite(m, name)
    return m


class _Unshared:
    """A fresh array no caller holds; ``np.asarray`` unwraps it, uncopied."""

    def __init__(self, array: np.ndarray):
        self.array = array

    def __array__(self, dtype=None, copy=None):
        return self.array


def _owned(m: np.ndarray, given) -> np.ndarray:
    """``m``, converted from ``given``, as a read-only array no caller holds.

    The caller's own array is copied once, whatever its flags, since its
    owner can make it writeable again; so is a view. An array the conversion
    made, or one handed over as :class:`_Unshared`, is adopted.
    """
    if m is given or m.base is not None:
        m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A valid quantum state: Hermitian, unit trace, positive semidefinite.

    This is the library's one density-matrix gate: each property is checked
    against ``DEFAULT_TOL``, and every comparison fails on NaN. ``mat`` is
    read-only, copied once from a caller's array or a view.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _owned(_square_complex(self.mat, "density matrix"), self.mat)
        object.__setattr__(self, "mat", mat)
        herm = max_abs(mat - dagger(mat))
        if not herm <= DEFAULT_TOL:
            raise ValidationError(f"density matrix must be Hermitian (deviation {herm:.3e})")
        tr = mat.trace()
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValidationError(f"density matrix must have unit trace (trace {tr:.6g})")
        min_eig = min_eigenvalue(mat)
        if not min_eig >= -DEFAULT_TOL:
            raise ValidationError(
                f"density matrix must be positive semidefinite (min eigenvalue {min_eig:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _checked(cls, **fields):
    """A frozen dataclass instance from fields that already passed its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class DynamicalMap:
    """Hermitian dynamical matrix of a linear map on N x N density matrices.

    A matrix off Hermitian by more than ``DEFAULT_TOL`` raises
    :class:`ValidationError`, whether it was built or read from a file; the
    defect max|B - B^dagger| is kept as ``hermiticity_defect``. ``bmat`` is
    read-only: a caller's array or a view is copied once.
    :func:`map_from_kraus` may attach a factor F with B = F F^dagger (up to
    rounding), which ``spectrum`` then decomposes instead of B.
    """

    bmat: np.ndarray = field(repr=False)
    hermiticity_defect: float = field(init=False, repr=False)
    _factor: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        bmat = _owned(_square_complex(self.bmat, "dynamical matrix"), self.bmat)
        object.__setattr__(self, "bmat", bmat)
        side = bmat.shape[0]
        dim = math.isqrt(side)
        if dim * dim != side:
            raise DimensionMismatch(f"dynamical matrix side {side} is not a perfect square")
        # B^dagger - B in place: the same defect as B - B^dagger, one temporary.
        diff = dagger(bmat)
        diff -= bmat
        herm = max_abs(diff)
        if not herm <= DEFAULT_TOL:
            raise ValidationError(
                "dynamical matrix must be Hermitian, i.e. the map must preserve "
                f"Hermiticity (deviation {herm:.3e}, tol {DEFAULT_TOL:.1e})"
            )
        object.__setattr__(self, "hermiticity_defect", herm)

    @property
    def dim(self) -> int:
        return math.isqrt(self.bmat.shape[0])

    @cached_property
    def spectrum(self) -> tuple:
        """The map's one eigendecomposition, as read-only arrays, weights descending.

        A map that :func:`map_from_kraus` built from r < N^2 terms with no
        negative weight is decomposed from its N^2 x r factor F by
        ``factor_eig(F)``, a thin SVD: r eigenpairs, and the other N^2 - r
        eigenvalues are exactly 0. Every other map (read from a dynamical
        matrix, built as ``DynamicalMap(bmat)``, of full Kraus rank or with a
        negative weight) gets the N^2 pairs of ``hermitian_eig(bmat)`` from
        ``sorted_eigh(bmat)``, which skips the Hermiticity check the validator
        has made. Both routes follow the same phase and tie conventions.
        """
        if self._factor is not None:
            vals, vecs = factor_eig(self._factor)
        else:
            vals, vecs = sorted_eigh(self.bmat)
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of B: of ``spectrum``, or 0.0 if that omits zeros.

        A NaN in the spectrum gives NaN, so every ``>=`` gate on it fails.
        """
        vals = self.spectrum[0]
        zeros_omitted = len(vals) < self.dim**2
        return float(np.min(vals, initial=0.0 if zeros_omitted else np.inf))


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Eigen-expansion ``rho -> sum_a w_a L_a rho L_a^dagger`` of a dynamical map.

    ``weights`` is the real array (w_a) of shape (nu,), sorted descending by
    :func:`canonical_decompose`, and ``ops`` the complex array (L_a) of shape
    (nu, N, N). The validator checks both are finite, that nu <= N^2, and,
    from one Gram matrix of the flattened operators, that the L_a are
    Hilbert-Schmidt orthonormal to within ``DEFAULT_TOL``.
    """

    dim: int
    weights: np.ndarray
    ops: np.ndarray

    def __post_init__(self):
        n = self.dim
        weights = np.asarray(self.weights, dtype=float)
        ops = np.asarray(self.ops, dtype=complex)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ops", ops)
        if ops.ndim != 3 or ops.shape[1:] != (n, n) or weights.shape != ops.shape[:1]:
            raise DimensionMismatch(
                f"weights {weights.shape} and eigen-operators {ops.shape} do not match "
                f"(nu,) and (nu, {n}, {n})"
            )
        nu = len(ops)
        if not nu <= n * n:
            raise ValidationError(f"{nu} terms exceed the dim^2 = {n * n} bound")
        if not (np.isfinite(weights).all() and np.isfinite(ops).all()):
            raise ValidationError("weights and eigen-operators must be finite")
        flat = ops.reshape(nu, n * n)
        gram = np.abs(flat.conj() @ flat.T)
        norms = np.sqrt(np.diagonal(gram))
        (bad,) = np.nonzero(~(np.abs(norms - 1.0) <= DEFAULT_TOL))
        if len(bad):
            a = bad[0]
            raise ValidationError(
                f"eigen-operator {a} must have unit HS norm, got {norms[a]:.12g}"
            )
        # overlaps[a, b] = |tr(L_a^dagger L_b)| for a < b; the first offending
        # pair in (a, b) order is reported.
        overlaps = np.triu(gram, 1)
        offending = np.argwhere(~(overlaps <= DEFAULT_TOL))
        if len(offending):
            a, b = offending[0]
            raise ValidationError(
                f"eigen-operators {a} and {b} are not HS-orthogonal ({overlaps[a, b]:.3e})"
            )

    @property
    def rank(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MapProperties:
    """Diagnostic flags and residuals for a dynamical map."""

    hermiticity_preserving: bool
    trace_preserving: bool
    completely_positive: bool
    min_eigenvalue: float
    trace_defect: float


def map_from_kraus(terms, dim: int) -> DynamicalMap:
    """Build the dynamical matrix of ``rho -> sum_a w_a K_a rho K_a^dagger``.

    ``terms`` is a sequence of ``(weight, op)`` pairs with real weights and
    dim x dim operators; operators need not be normalized here. The result is
    ``sum_a w_a vec(K_a) vec(K_a)^dagger`` with row-major ``vec``, formed as
    one BLAS product ``(M^T diag(w)) conj(M)`` of the r x dim^2 stack M of
    flattened operators: the same bits at any BLAS thread count, Hermitian to
    rounding (not bitwise), and handed to :class:`DynamicalMap` uncopied.
    With r < dim^2 terms and no negative weight, the map also keeps the
    dim^2 x r factor ``F = M^T diag(sqrt(w))``, so its ``spectrum`` is a thin
    SVD of F rather than an ``eigh`` of the dim^2 x dim^2 matrix.
    """
    weights, flat = [], []
    for weight, op in terms:
        weights.append(float(weight))
        op = np.asarray(op, dtype=complex)
        if op.shape != (dim, dim):
            raise DimensionMismatch(
                f"Kraus operator shape {op.shape} does not match dim {dim}"
            )
        flat.append(op.reshape(-1))
    weights = np.array(weights)
    stack = np.array(flat, dtype=complex).reshape(len(flat), dim * dim)
    del flat
    scaled = stack.T * weights
    bmat = scaled @ np.conjugate(stack, out=stack)
    del scaled
    factor = None
    if len(weights) < dim * dim and (weights >= 0).all():
        # Conjugating back is exact, so F holds the operators' own bits.
        np.conjugate(stack, out=stack)
        stack *= np.sqrt(weights)[:, None]
        stack.flags.writeable = False
        factor = stack.T
    del stack
    dmap = DynamicalMap(_Unshared(bmat))
    object.__setattr__(dmap, "_factor", factor)
    return dmap


def state_matrix(rho, dim: int) -> np.ndarray:
    """A DensityMatrix or array-like state as a complex dim x dim matrix, ungated."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (dim, dim):
        raise DimensionMismatch(f"state shape {mat.shape} does not match dim {dim}")
    return mat


def gated_state(rho, dim: int) -> np.ndarray:
    """The matrix of a DensityMatrix or array-like state, gated as a density matrix.

    A :class:`DensityMatrix` has passed its gate and gives its own ``mat``;
    any other state of shape (dim, dim) passes it here.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(state_matrix(rho, dim))
    return state_matrix(rho, dim)


def apply_map(dmap: DynamicalMap, rho) -> np.ndarray:
    """Apply a dynamical map directly: ``out[r, s] = B[(r,r'),(s,s')] rho[r',s']``.

    The output is a plain matrix; it has unit trace only if the map is
    trace-preserving.
    """
    n = dmap.dim
    mat = state_matrix(rho, n)
    b4 = dmap.bmat.reshape(n, n, n, n)
    return np.einsum("rpsq,pq->rs", b4, mat)


def canonical_decompose(
    dmap: DynamicalMap, trunc_tol: float = TRUNCATION_TOL
) -> CanonicalDecomposition:
    """The map's ``spectrum`` as weighted eigen-operators.

    Eigenvalues with ``|w| <= trunc_tol * max|w|`` are dropped; the kept
    eigenvalues are the weights, and each kept eigenvector is reshaped
    row-major into its operator. The number of terms never exceeds dim^2.
    A cutoff outside [0, 1), which could drop every term, raises.
    """
    if not 0.0 <= trunc_tol < 1.0:
        raise ValidationError(f"truncation cutoff must lie in [0, 1), got {trunc_tol}")
    n = dmap.dim
    vals, vecs = dmap.spectrum
    keep = np.abs(vals) > trunc_tol * np.max(np.abs(vals), initial=0.0)
    weights = vals[keep]
    ops = vecs[:, keep].T.reshape(len(weights), n, n)
    return CanonicalDecomposition(dim=n, weights=weights, ops=ops)


def check_properties(dmap: DynamicalMap, tol: float = DEFAULT_TOL) -> MapProperties:
    """Report Hermiticity preservation, trace preservation and complete positivity.

    Reports only, never raises on unphysical maps: non-CP and non-TP maps are
    legitimate inputs elsewhere. ``min_eigenvalue`` is ``dmap.min_eigenvalue``,
    the number ``Instrument`` gates; the dilation builders gate the weights of
    the same ``spectrum``.
    """
    n = dmap.dim
    trace_defect = max_abs(povm_effect(dmap) - np.eye(n))
    min_eig = dmap.min_eigenvalue
    return MapProperties(
        hermiticity_preserving=dmap.hermiticity_defect <= tol,
        trace_preserving=trace_defect <= tol,
        completely_positive=min_eig >= -tol,
        min_eigenvalue=min_eig,
        trace_defect=float(trace_defect),
    )


def povm_effect(dmap: DynamicalMap) -> np.ndarray:
    """Total measurement effect ``E = sum_a w_a K_a^dagger K_a`` of a map.

    Computed directly from the dynamical matrix, so it is exact for any
    operator-sum realization; ``trace(apply_map(m, rho)) == trace(E @ rho)``.
    """
    n = dmap.dim
    b4 = dmap.bmat.reshape(n, n, n, n)
    return np.einsum("rprq->pq", b4).conj()


def random_cptp(dim: int, kraus_rank: int, seed) -> DynamicalMap:
    """Seeded random CPTP map with the given Kraus rank.

    Orthonormalizes Gaussian columns into a (dim*kraus_rank) x dim isometry
    and slices it into ``kraus_rank`` blocks K_j; completeness
    ``sum_j K_j^dagger K_j = I`` holds by construction. A dim whose N^2 x N^2
    dynamical matrix would exceed ``_MAP_BYTES_BUDGET`` is refused before
    anything is allocated.
    """
    need = 16 * dim**4
    if need > _MAP_BYTES_BUDGET:
        raise ValidationError(
            f"dim {dim} needs a {need:,}-byte dynamical matrix, above the "
            f"{_MAP_BYTES_BUDGET:,}-byte budget "
            f"(dim <= {math.isqrt(math.isqrt(_MAP_BYTES_BUDGET // 16))})"
        )
    if not 1 <= kraus_rank <= dim * dim:
        raise BadRank(f"kraus_rank must be in [1, {dim * dim}], got {kraus_rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * kraus_rank, dim)) + 1j * rng.standard_normal(
        (dim * kraus_rank, dim)
    )
    q, _ = np.linalg.qr(g)
    terms = [(1.0, q[j * dim : (j + 1) * dim, :]) for j in range(kraus_rank)]
    return map_from_kraus(terms, dim)


def random_density(dim: int, seed) -> DensityMatrix:
    """Seeded random full-rank density matrix (Hilbert-Schmidt measure)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = x @ dagger(x)
    m = (m + dagger(m)) / 2
    return DensityMatrix(m / np.trace(m).real)
