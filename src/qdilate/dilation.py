"""Realize channels and instruments as one unitary on system + ancilla.

A set of labeled CP maps with canonical decompositions
``rho -> sum_a w_a L_a rho L_a^dagger`` is realized by the isometry
``|r'>|0> -> sum sqrt(w_a) L_a[r, r'] |r>|slot(a)>``, where each map owns an
ancilla sector of its decomposition rank (at most N^2 slots). A
:class:`Dilation` holds that isometry V, and completes it to a unitary U only
when U is read. Since rho (x) |0><0| lives on the columns (r', 0) of U,
evolution reads only V, and the completion columns, arbitrary by
construction, never affect it. Map i is recovered by
projecting the ancilla onto sector i and tracing it out, which is
``sum_a V_a rho V_a^dagger`` over the sector's slots a. One kernel computes
it from X = V rho in O(N^3 nu): :func:`sector_states` runs it once per
sector, and :func:`simulate_via_dilation` once over the whole ancilla, for
the reduced state. A channel is the one-sector case. The D x D joint state
``V rho V^dagger`` is formed only when an :class:`Evolution` is asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    CanonicalDecomposition,
    DynamicalMap,
    _owned,
    _read_only,
    _Unshared,
    apply_map,
    canonical_decompose,
    random_density,
    state_matrix,
)
from .errors import (
    DimensionMismatch,
    NotCompletelyPositive,
    NotIsometry,
    NotTracePreserving,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    complete_to_unitary,
    dagger,
    isometry_defect,
    max_abs,
)

# Label of the single sector of a channel dilation.
CHANNEL_SECTOR = "channel"


@dataclass(frozen=True)
class Sector:
    """Half-open ancilla index range [start, stop) owned by one outcome."""

    label: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class Dilation:
    """Isometry into system (x) ancilla with the ancilla laid out in labeled sectors.

    ``isometry`` is the (sys_dim*anc_dim) x sys_dim block V whose column r' is
    the image of |r'>|0>. The sectors partition the ancilla in order, and
    anc_dim is at most len(sectors) * sys_dim^2. A channel dilation has a
    single sector. V is held as ``DensityMatrix.mat`` is; a copy is
    validated again. Since a stacked V has V^dagger V = sum_a w_a L_a^dagger
    L_a, an ``isometry_defect`` above ``DEFAULT_TOL``, the check
    ``complete_to_unitary`` makes too, raises :class:`NotTracePreserving`,
    itself a :class:`NotIsometry`. Evolution and readout need only V; the
    unitary ``u``, whose columns (r', 0) are V, is completed and checked the
    first time it is read.
    """

    sys_dim: int
    anc_dim: int
    isometry: np.ndarray
    sectors: tuple

    def __post_init__(self):
        iso = _owned(np.asarray(self.isometry, dtype=complex), self.isometry)
        object.__setattr__(self, "isometry", iso)
        object.__setattr__(self, "sectors", tuple(self.sectors))
        if self.sys_dim < 1 or self.anc_dim < 1:
            raise DimensionMismatch(
                f"dimensions must be positive, got ({self.sys_dim}, {self.anc_dim})"
            )
        shape = (self.sys_dim * self.anc_dim, self.sys_dim)
        if iso.shape != shape:
            raise DimensionMismatch(
                f"isometry shape {iso.shape} does not match (sys_dim*anc_dim, sys_dim) = {shape}"
            )
        cursor = 0
        for sector in self.sectors:
            if sector.start != cursor or sector.stop < sector.start:
                raise ValidationError("sectors must partition the ancilla range in order")
            cursor = sector.stop
        if cursor != self.anc_dim:
            raise ValidationError(
                f"sectors cover [0, {cursor}) but the ancilla has dim {self.anc_dim}"
            )
        bound = len(self.sectors) * self.sys_dim**2
        if self.anc_dim > bound:
            raise ValidationError(
                f"ancilla dim {self.anc_dim} exceeds num_sectors*sys_dim^2 = {bound}"
            )
        residual = isometry_defect(iso)
        if not residual <= DEFAULT_TOL:
            raise NotTracePreserving(
                f"sum of weighted L^dagger L deviates from identity by {residual:.3e} "
                f"(tol {DEFAULT_TOL:.1e}); the isometry columns are not orthonormal"
            )

    def __reduce__(self):
        return Dilation, (self.sys_dim, self.anc_dim, self.isometry, self.sectors)

    @cached_property
    def u(self) -> np.ndarray:
        """The D x D unitary, completed from the isometry on first read.

        Columns (r', 0) are the isometry, bit for bit; columns (r', a != 0)
        take the Householder complement of :func:`complete_to_unitary` in
        order. Any other completion gives the same evolution of rho (x) |0><0|.
        The dense residual max|U^dagger U - I| above ``DEFAULT_TOL`` raises
        :class:`NotIsometry`; otherwise it is kept as ``unitarity_residual``.
        """
        n, anc_dim = self.sys_dim, self.anc_dim
        size = n * anc_dim
        u0 = complete_to_unitary(self.isometry)
        u = np.empty((size, size), dtype=complex)
        slots = u.reshape(size, n, anc_dim)
        slots[:, :, 0] = u0[:, :n]
        slots[:, :, 1:] = u0[:, n:].reshape(size, n, anc_dim - 1)
        # Free the unplaced copy before the check's temporaries.
        del u0
        residual = _unitarity_residual(u)
        if not residual <= DEFAULT_TOL:
            raise NotIsometry(f"unitarity residual {residual:.3e} exceeds {DEFAULT_TOL:.1e}")
        object.__setattr__(self, "_residual", residual)
        return u

    @cached_property
    def _conj_wide(self) -> np.ndarray:
        """conj(V) read as an N x (anc_dim N) matrix, formed once, read-only."""
        return _read_only(self.isometry.conj().reshape(self.sys_dim, -1))

    @property
    def unitarity_residual(self) -> float:
        """max|U^dagger U - I| of the completed unitary; reads ``u`` first."""
        self.u
        return self._residual


def _unitarity_residual(u: np.ndarray) -> float:
    """max|U^dagger U - I|, with U^dagger U formed in up to 8 bands of rows.

    Each entry is the same BLAS dot product as in the full ``dagger(u) @ u``
    and a maximum does not round, so the result is bit-identical to the full
    product's, while only one band of conj(U) and of U^dagger U, an eighth of
    a D x D array each, sits beside u. Every band has at least two rows: a
    one-row band would be a matrix-vector product, whose sums round
    differently.
    """
    size = len(u)
    bands = max(1, min(8, size // 2))
    bounds = [i * size // bands for i in range(bands + 1)]
    peaks = np.empty(bands)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        g = dagger(u[:, lo:hi]) @ u
        g[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        peaks[i] = max_abs(g)
    return float(peaks.max())


def _sqrt_weights(dec: CanonicalDecomposition) -> np.ndarray:
    """Square roots of the weights, clamping eigen-noise negatives to zero.

    A weight below -DEFAULT_TOL raises. The weights come from the map's one
    ``spectrum``, whose smallest ``check_properties`` and ``Instrument`` test
    against the same bound, so all three decide complete positivity from the
    same floats.
    """
    (negative,) = np.nonzero(dec.weights < -DEFAULT_TOL)
    if len(negative):
        raise NotCompletelyPositive(
            f"negative weight {dec.weights[negative[0]]:.6g} has no real square root; "
            "the map is not completely positive"
        )
    return np.sqrt(np.maximum(dec.weights, 0.0))


def stack_isometry(parts) -> Dilation:
    """Stack sqrt(w) L sector by sector into the :class:`Dilation` of the maps.

    ``parts`` holds (label, decomposition) pairs, one per sector; the
    (N*nu) x N isometry has sqrt(w_a) L_a[r, r'] at composite row
    (r, slot of a). Weights below ``-DEFAULT_TOL`` raise
    :class:`NotCompletelyPositive`, and a map with no terms at all
    :class:`NotTracePreserving`. Whether the columns are orthonormal, which
    they are exactly when the combined map is trace-preserving, is left to
    the :class:`Dilation` validator, so V^dagger V is formed once per build.
    """
    n = parts[0][1].dim
    blocks, sectors = [], []
    for label, dec in parts:
        start = sectors[-1].stop if sectors else 0
        sectors.append(Sector(label=label, start=start, stop=start + dec.rank))
        blocks.append(_sqrt_weights(dec)[:, None, None] * dec.ops)
    nu = sectors[-1].stop
    if not nu:
        raise NotTracePreserving(
            "the map is zero: sum of weighted L^dagger L is 0, not the identity"
        )
    # Composite row r * nu + a holds row r of block a. The blocks are copied
    # straight into a fresh V, handed over unshared, so Dilation adopts it.
    iso = np.empty((n * nu, n), dtype=complex)
    np.concatenate([b.transpose(1, 0, 2) for b in blocks], axis=1, out=iso.reshape(n, nu, n))
    return Dilation(sys_dim=n, anc_dim=nu, isometry=_Unshared(iso), sectors=sectors)


def _traced_ranges(dil: Dilation, rho, ranges) -> tuple:
    """``(X, states)``: the image X = V rho, and ``sum_a V_a rho V_a^dagger``
    over each ancilla range [start, stop) of ``ranges`` as one (K, N, N) array.

    X is one GEMM. Read as N x (anc_dim N) matrices, X and V hold a range's
    slots in one column range, so each range is one more GEMM,
    X_s V_s^dagger, in O(N^3 * range size).
    """
    n = dil.sys_dim
    width = dil.anc_dim * n
    image = dil.isometry @ state_matrix(rho, n)
    x = image.reshape(n, width)
    v_conj = dil._conj_wide
    states = np.empty((len(ranges), n, n), dtype=complex)
    for k, (start, stop) in enumerate(ranges):
        cols = slice(start * n, stop * n)
        np.matmul(x[:, cols], v_conj[:, cols].T, out=states[k])
    return image, states


def sector_states(dil: Dilation, rho) -> np.ndarray:
    """The sectors' system states ``sum_a V_a rho V_a^dagger`` as one (K, N, N) array.

    V_a[r, r'] = U[(r, a), (r', 0)] is the block of the isometry at ancilla
    slot a; the state of a sector is the joint state projected onto its slots
    with the ancilla traced out, and its trace is the sector's probability.
    X = V rho is one GEMM, and each sector one more, X_s V_s^dagger, in
    O(N^3 * sector size); the D x D joint state is never formed.
    """
    ranges = [(sector.start, sector.stop) for sector in dil.sectors]
    return _traced_ranges(dil, rho, ranges)[1]


def build_dilation_isometry(dec: CanonicalDecomposition) -> np.ndarray:
    """The (N*nu) x N isometry with sqrt(w_a) L_a[r, r'] at composite row (r, a).

    Column r' is the image of |r'>|0>; it is the ``isometry`` of the checked
    :func:`build_dilation_unitary`. A map that is not trace-preserving raises
    :class:`NotTracePreserving`, one that is not completely positive
    :class:`NotCompletelyPositive`. The array is read-only: ``.copy()`` it to edit.
    """
    return build_dilation_unitary(dec).isometry


def build_dilation_unitary(dec: CanonicalDecomposition) -> Dilation:
    """The channel's dilation isometry as a one-sector :class:`Dilation`."""
    return stack_isometry([(CHANNEL_SECTOR, dec)])


class Evolution:
    """The evolved state rho (x) |0><0| -> U (rho (x) |0><0|) U^dagger.

    ``reduced`` is the N x N system state, computed on construction.
    ``joint`` is the D x D state ``V rho V^dagger``, formed as X V^dagger
    from the kept image X = V rho the first time it is read, so a later
    change to the caller's rho does not reach it. Indexing and unpacking
    behave as on the pair ``(joint, reduced)``: ``[1]`` and ``[-1]`` are the
    reduced state and leave the joint unformed; ``[0]`` and unpacking form it.
    """

    def __init__(self, image: np.ndarray, isometry: np.ndarray, reduced: np.ndarray):
        self._image = image
        self._isometry = isometry
        self.reduced = reduced

    @cached_property
    def joint(self) -> np.ndarray:
        """The D x D joint state, formed on first read in O(D^2 N)."""
        return self._image @ dagger(self._isometry)

    def __getitem__(self, index):
        return getattr(self, ("joint", "reduced")[index])

    def __iter__(self):
        return iter((self.joint, self.reduced))

    def __len__(self) -> int:
        return 2


def simulate_via_dilation(dil: Dilation, rho) -> Evolution:
    """Evolve rho (x) |0><0| by the unitary and trace out the ancilla.

    Only the isometry columns V of U act on rho (x) |0><0|. X = V rho is one
    GEMM, and the reduced state ``tr_anc(V rho V^dagger)`` is the
    :func:`sector_states` kernel over one range spanning the whole ancilla,
    X V^dagger with X and V read as N x (anc_dim N) matrices, in O(N^3 nu)
    rather than the O((N nu)^2 N) of forming the joint state. The returned
    :class:`Evolution` forms the joint state only when it is read.
    """
    image, (reduced,) = _traced_ranges(dil, rho, [(0, dil.anc_dim)])
    return Evolution(image, dil.isometry, reduced)


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case deviation between dilated and direct evolution."""

    trials: int
    max_error: float


def verify_dilation(dmap: DynamicalMap, trials: int, seed) -> VerificationReport:
    """Compare the dilation route against direct application on random states.

    Per-trial states are drawn from generators derived from (seed, trial
    index), so results are reproducible and order-independent. The dilated
    state is the channel's one sector from :func:`sector_states`.
    """
    dec = canonical_decompose(dmap)
    du = build_dilation_unitary(dec)
    root = np.random.SeedSequence(seed)
    worst = 0.0
    for _ in range(trials):
        # One child at a time: the same spawn keys as spawn(trials), in O(1) memory.
        rho = random_density(dmap.dim, np.random.default_rng(root.spawn(1)[0]))
        (reduced,) = sector_states(du, rho)
        direct = apply_map(dmap, rho)
        worst = max(worst, max_abs(reduced - direct))
    return VerificationReport(trials=trials, max_error=float(worst))
