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
passes its input state through it by :func:`gated_state`, once per distinct
content; the linear routes take any matrix through :func:`state_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadRank, DimensionMismatch, ValidationError
from .linalg import (
    DEFAULT_TOL,
    dagger,
    factor_eig,
    hermiticity_defect,
    max_abs,
    min_eigenvalue,
    sorted_eigh,
)

# Relative cutoff below which decomposition eigenvalues count as zero rank.
TRUNCATION_TOL = 1e-12

# Largest dynamical matrix random_cptp builds: 1 GiB of complex128, N <= 90.
_MAP_BYTES_BUDGET = 1 << 30


def _require_finite(m: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")


def _square(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


class _Unshared:
    """A fresh array no caller holds; ``np.asarray`` unwraps it, uncopied."""

    def __init__(self, array: np.ndarray):
        self.array = array

    def __array__(self, dtype=None, copy=None):
        return self.array


def _owned(m: np.ndarray, given) -> np.ndarray:
    """``m``, converted from ``given``, as a read-only array no caller holds.

    An array handed over as :class:`_Unshared` is adopted, its writeable flag
    cleared. Anything else is copied once, in C order, into immutable bytes:
    numpy refuses to make a view of them writeable, as any owner could its array.
    """
    if isinstance(given, _Unshared):
        return _read_only(m)
    return np.frombuffer(m.tobytes(), dtype=m.dtype).reshape(m.shape)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A valid quantum state: Hermitian, unit trace, positive semidefinite.

    This is the library's one density-matrix gate. It checks the shape, then
    the :func:`~qdilate.linalg.hermiticity_defect` (a NaN or inf entry fails
    it, and only then is refused as non-finite), the trace and the Hermitian
    part's smallest eigenvalue, against ``DEFAULT_TOL``; every comparison
    fails on NaN. ``mat``, like every validated array a caller gives, is
    copied once into immutable bytes it is a read-only view of, so a state
    cannot change after it has passed. A copy or an unpickled state passes
    the gate again.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _owned(_square(self.mat, "density matrix"), self.mat)
        object.__setattr__(self, "mat", mat)
        herm = hermiticity_defect(mat)
        if not herm <= DEFAULT_TOL:
            _require_finite(mat, "density matrix")
            raise ValidationError(f"density matrix must be Hermitian (deviation {herm:.3e})")
        tr = mat.trace()
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValidationError(f"density matrix must have unit trace (trace {tr:.6g})")
        min_eig = min_eigenvalue(mat)
        if not min_eig >= -DEFAULT_TOL:
            raise ValidationError(
                f"density matrix must be positive semidefinite (min eigenvalue {min_eig:.3e})"
            )

    def __reduce__(self):
        return DensityMatrix, (self.mat,)

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
    held as ``DensityMatrix.mat`` is. :func:`map_from_kraus` may attach a
    factor F with B = F F^dagger (up to rounding), which ``spectrum`` then
    decomposes instead of B; a copy keeps F and is validated again. The
    read-only ``transfer`` matrix, one permuting copy of B cached on the first
    direct application, holds 16 N^4 bytes more, as ``spectrum``'s
    eigenvectors do.
    """

    bmat: np.ndarray = field(repr=False)
    hermiticity_defect: float = field(init=False, repr=False)
    _factor: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        bmat = _owned(_square(self.bmat, "dynamical matrix"), self.bmat)
        _require_finite(bmat, "dynamical matrix")
        object.__setattr__(self, "bmat", bmat)
        side = bmat.shape[0]
        dim = math.isqrt(side)
        if dim * dim != side:
            raise DimensionMismatch(f"dynamical matrix side {side} is not a perfect square")
        herm = hermiticity_defect(bmat)
        if not herm <= DEFAULT_TOL:
            raise ValidationError(
                "dynamical matrix must be Hermitian, i.e. the map must preserve "
                f"Hermiticity (deviation {herm:.3e}, tol {DEFAULT_TOL:.1e})"
            )
        object.__setattr__(self, "hermiticity_defect", herm)

    def __reduce__(self):
        return _factored, (self.bmat, self._factor)

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

    @cached_property
    def transfer(self) -> np.ndarray:
        """L[(r, s), (p, q)] = B[(r, p), (s, q)], so vec(map(rho)) = L vec(rho), row-major."""
        return _transfer_stack([self.bmat], self.dim)[0]

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
    Hilbert-Schmidt orthonormal to within ``DEFAULT_TOL``. Both arrays are
    held as ``DensityMatrix.mat`` is; a copy is validated again.
    """

    dim: int
    weights: np.ndarray
    ops: np.ndarray

    def __post_init__(self):
        n = self.dim
        weights = _owned(np.asarray(self.weights, dtype=float), self.weights)
        ops = _owned(np.asarray(self.ops, dtype=complex), self.ops)
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

    def __reduce__(self):
        return CanonicalDecomposition, (self.dim, self.weights, self.ops)

    @property
    def rank(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MapProperties:
    """Trace preservation and complete positivity of a dynamical map, with residuals."""

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
    flattened operators, Hermitian to rounding (not bitwise) and handed to
    :class:`DynamicalMap` uncopied. Its bits may depend on the BLAS thread
    count: OpenBLAS's product changes them between 1 and 2 threads for some
    term counts r > 128 (r = 130, 132 and 254 among those probed).
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
        factor = _Unshared(stack.T)
    del stack
    return _factored(_Unshared(bmat), factor)


def _factored(bmat, factor) -> DynamicalMap:
    """``DynamicalMap(bmat)`` keeping ``factor`` (None, or F with B = F F^dagger), held as B is."""
    dmap = DynamicalMap(bmat)
    if factor is not None:
        object.__setattr__(dmap, "_factor", _owned(np.asarray(factor), factor))
    return dmap


def state_matrix(rho, dim: int) -> np.ndarray:
    """A DensityMatrix or array-like state as a complex dim x dim matrix, ungated."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (dim, dim):
        raise DimensionMismatch(f"state shape {mat.shape} does not match dim {dim}")
    return mat


def gated_state(rho, dim: int) -> np.ndarray:
    """The matrix of a DensityMatrix or array-like state, gated as a density matrix.

    A :class:`DensityMatrix` has passed its gate and gives its own ``mat``.
    Any other state of shape (dim, dim) is gated once per distinct content:
    its C-order bytes are the key of a one-slot memo holding the last state
    accepted, at most 16 dim^2 bytes. The same bytes again, from any array,
    give that state's read-only ``mat`` without a second gate; an array
    edited in place has new bytes and is gated again. A refusal raises and
    is never kept.
    """
    if isinstance(rho, DensityMatrix):
        return state_matrix(rho, dim)
    return _gated_bytes(state_matrix(rho, dim).tobytes())


@lru_cache(maxsize=1)
def _gated_bytes(blob: bytes) -> np.ndarray:
    """The gated matrix of a C-order complex state's bytes, a read-only view of ``blob``."""
    dim = math.isqrt(len(blob) // 16)
    return DensityMatrix(_Unshared(np.frombuffer(blob, complex).reshape(dim, dim))).mat


def _transfer_stack(bmats, n: int) -> np.ndarray:
    """The transfer matrices of K dynamical matrices as one read-only (K, N^2, N^2) copy."""
    # np.array of a list is C-order, so the reshape below copies nothing.
    stack = np.array([b.reshape(n, n, n, n).transpose(0, 2, 1, 3) for b in bmats])
    return _read_only(stack.reshape(-1, n * n, n * n))


def apply_map(dmap: DynamicalMap, rho) -> np.ndarray:
    """Apply a dynamical map directly: ``out[r, s] = B[(r,r'),(s,s')] rho[r',s']``.

    One GEMV of the cached ``transfer`` matrix by vec(rho). The output is a
    plain matrix; it has unit trace only if the map is trace-preserving.
    """
    n = dmap.dim
    return (dmap.transfer @ state_matrix(rho, n).reshape(-1)).reshape(n, n)


def canonical_decompose(dmap: DynamicalMap) -> CanonicalDecomposition:
    """The map's ``spectrum`` as weighted eigen-operators.

    Eigenvalues with ``|w| <= TRUNCATION_TOL * max|w|`` are dropped; the kept
    eigenvalues are the weights, and each kept eigenvector is reshaped
    row-major into its operator. The number of terms never exceeds dim^2.
    """
    n = dmap.dim
    vals, vecs = dmap.spectrum
    keep = np.abs(vals) > TRUNCATION_TOL * np.max(np.abs(vals), initial=0.0)
    weights = vals[keep]
    ops = vecs[:, keep].T.reshape(len(weights), n, n)
    return CanonicalDecomposition(dim=n, weights=_Unshared(weights), ops=_Unshared(ops))


def check_properties(dmap: DynamicalMap) -> MapProperties:
    """Report trace preservation and complete positivity.

    Reports only, never raises on unphysical maps: non-CP and non-TP maps are
    legitimate inputs elsewhere. Each flag compares its measured quantity with
    ``DEFAULT_TOL``. ``min_eigenvalue`` is ``dmap.min_eigenvalue``, the number
    ``Instrument`` gates; the dilation builders gate the weights of the same
    ``spectrum``.
    """
    n = dmap.dim
    trace_defect = max_abs(povm_effect(dmap) - np.eye(n))
    min_eig = dmap.min_eigenvalue
    return MapProperties(
        trace_preserving=trace_defect <= DEFAULT_TOL,
        completely_positive=min_eig >= -DEFAULT_TOL,
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
