"""Sets of CP maps as generalized measurements, realized by one joint unitary.

An instrument assigns one CP map per outcome; outcome i occurs with
probability ``trace(map_i rho)`` and leaves the normalized state
``map_i rho / trace(map_i rho)``. A complete instrument (total effect equal to
the identity) is realized on a single ancilla whose basis is laid out in
sectors, one per outcome: the joint unitary sends ``|r'>|0>`` to
``sum sqrt(w) L[r, r'] |r>|sector slot>``, and a projective readout of the
ancilla sector reproduces the statistics. Every readout gates its input
state once, as a :class:`DensityMatrix`; its post states are the raw states
divided by their probabilities, plain read-only arrays not gated again.
Incomplete sets are completed by appending a discard map carrying the
leftover effect.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    DynamicalMap,
    _checked,
    canonical_decompose,
    gated_state,
    map_from_kraus,
    povm_effect,
)
from .dilation import Dilation, sector_states, stack_isometry
from .errors import (
    DimensionMismatch,
    Incomplete,
    NotCompletelyPositive,
    NotPSD,
    OverComplete,
    ValidationError,
)
from .linalg import DEFAULT_TOL, dagger, max_abs, psd_sqrt

# Outcomes with probability at or below this get no normalized post state.
POST_STATE_THRESHOLD = 1e-12


def _normalized_maps(maps) -> tuple:
    out = []
    for label, dmap in maps:
        if not isinstance(dmap, DynamicalMap):
            raise ValidationError(f"outcome {label!r} does not hold a dynamical map")
        out.append((str(label), dmap))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered labeled CP maps, one per measurement outcome.

    ``defect`` is the identity minus the total effect, a read-only array
    computed once; the instrument is ``complete`` when no entry of it exceeds
    ``DEFAULT_TOL`` in magnitude, the bound at which its dilation's isometry
    counts as one, so a set is complete exactly when it dilates. An outcome is
    CP when the ``min_eigenvalue`` of its ``spectrum``, the one the dilation
    reads, is not below ``-DEFAULT_TOL``.
    """

    dim: int
    maps: tuple
    padded_index: int = None
    complete: bool = field(init=False)
    defect: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        maps = _normalized_maps(self.maps)
        object.__setattr__(self, "maps", maps)
        if not maps:
            raise ValidationError("instrument needs at least one outcome map")
        labels = [label for label, _ in maps]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels must be unique, got {labels}")
        for label, dmap in maps:
            if dmap.dim != self.dim:
                raise DimensionMismatch(
                    f"outcome {label!r} has dim {dmap.dim}, instrument has dim {self.dim}"
                )
            min_eig = dmap.min_eigenvalue
            if not min_eig >= -DEFAULT_TOL:
                raise NotCompletelyPositive(
                    f"outcome {label!r} is not completely positive "
                    f"(min eigenvalue {min_eig:.3e})"
                )
        if self.padded_index is not None and not 0 <= self.padded_index < len(maps):
            raise ValidationError(f"padded_index {self.padded_index} out of range")
        defect = np.eye(self.dim) - sum(povm_effect(dmap) for _, dmap in maps)
        defect.flags.writeable = False
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "complete", bool(max_abs(defect) <= DEFAULT_TOL))

    @property
    def num_outcomes(self) -> int:
        return len(self.maps)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.maps)

    @cached_property
    def _bmats(self) -> np.ndarray:
        """The maps' dynamical matrices as one read-only (K, N, N, N, N) stack."""
        stack = np.stack([dmap.bmat for _, dmap in self.maps]).reshape(-1, *[self.dim] * 4)
        stack.flags.writeable = False
        return stack


@dataclass(frozen=True, eq=False)
class OutcomeResult:
    """One outcome: its probability, raw weighted state, and normalized post state.

    A readout's ``post_state`` is raw / p, a read-only array (None at or below
    its threshold) and not a :class:`DensityMatrix`, since a small p divides
    the input's allowed defect by p; a readout gates it like any array.
    """

    label: str
    probability: float
    post_state: np.ndarray
    raw_unnormalized: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.raw_unnormalized, dtype=complex)
        object.__setattr__(self, "raw_unnormalized", raw)
        p = float(self.probability)
        object.__setattr__(self, "probability", p)
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"outcome probability {p} outside [0, 1]")
        if not abs(p - np.trace(raw).real) <= DEFAULT_TOL:
            raise ValidationError(
                f"probability {p} does not match trace of the unnormalized state"
            )


def _probabilities(labels, raws: np.ndarray) -> np.ndarray:
    """The traces of a (K, N, N) stack, clamped to [0, 1].

    The first outcome whose trace lies outside [0, 1] by more than
    ``DEFAULT_TOL`` raises :class:`ValidationError`.
    """
    p = raws.trace(axis1=1, axis2=2).real
    (out_of_range,) = np.nonzero(~((p >= -DEFAULT_TOL) & (p <= 1.0 + DEFAULT_TOL)))
    if len(out_of_range):
        k = out_of_range[0]
        raise ValidationError(
            f"outcome {labels[k]!r} has probability {float(p[k])} outside [0, 1]"
        )
    return np.where(p < 0.0, 0.0, np.minimum(p, 1.0))


def _make_outcomes(labels, raws: np.ndarray, threshold: float) -> tuple:
    """Outcome results from the (K, N, N) stack of raw states, in order.

    Outcome k has probability trace(raws[k]), range-checked and clamped by
    :func:`_probabilities`, so each result meets the :class:`OutcomeResult`
    checks by construction. Above ``threshold`` it gets the post state
    raws[k] / p, one read-only matrix of a stack, not gated. A threshold
    that is negative or NaN raises.
    """
    if not threshold >= 0.0:
        raise ValidationError(f"post-state threshold must be non-negative, got {threshold}")
    clamped = _probabilities(labels, raws)
    (live,) = np.nonzero(clamped > threshold)
    posts = raws[live] / clamped[live, None, None]
    posts.flags.writeable = False
    post_states = dict(zip(live.tolist(), posts))
    return tuple(
        _checked(
            OutcomeResult, label=label, probability=prob, post_state=post_states.get(k),
            raw_unnormalized=raw,
        )
        for k, (label, prob, raw) in enumerate(zip(labels, clamped.tolist(), raws))
    )


def check_completeness(inst: Instrument, tol: float = DEFAULT_TOL) -> tuple:
    """Return (complete, defect) with defect = identity minus the total effect."""
    return bool(max_abs(inst.defect) <= tol), inst.defect


def pad_to_complete(inst: Instrument) -> Instrument:
    """Append a discard map carrying the leftover effect of an incomplete set.

    The discard map has the single Kraus operator sqrt(defect), the minimal
    realization of the missing effect. A defect with an eigenvalue below
    -DEFAULT_TOL, which :func:`psd_sqrt` refuses, means the existing outcomes
    already overshoot probability 1, which no padding can fix.
    """
    if inst.complete:
        return inst
    try:
        kraus = psd_sqrt((inst.defect + dagger(inst.defect)) / 2)
    except NotPSD as exc:
        raise OverComplete(
            f"total effect exceeds identity (defect {exc}); "
            "outcome probabilities would sum above 1"
        ) from exc
    label = "discard"
    suffix = 1
    while label in inst.labels:
        suffix += 1
        label = f"discard_{suffix}"
    discard = map_from_kraus([(1.0, kraus)], inst.dim)
    return Instrument(
        dim=inst.dim,
        maps=inst.maps + ((label, discard),),
        padded_index=inst.num_outcomes,
    )


def build_instrument_dilation(inst: Instrument) -> Dilation:
    """Combine all outcome maps into one dilation with sector-labeled ancilla.

    Each outcome map is eigen-decomposed; outcome i owns an ancilla sector of
    its decomposition rank, so anc_dim never exceeds num_outcomes*dim^2. The
    isometry column r' carries sqrt(w) L[r, r'] at composite row (r, slot) for
    every term of every outcome, and is orthonormal exactly because the total
    effect is the identity.
    """
    if not inst.complete:
        raise Incomplete(
            f"total effect deviates from identity by {max_abs(inst.defect):.3e}; "
            "pad the instrument before building its dilation"
        )
    parts = [(label, canonical_decompose(dmap)) for label, dmap in inst.maps]
    return stack_isometry(parts)


def measure_via_dilation(
    dil: Dilation, rho, threshold: float = POST_STATE_THRESHOLD
) -> tuple:
    """Evolve rho (x) |0><0| jointly, then project the ancilla sector by sector.

    ``rho`` passes the density-matrix gate first, unless it is already a
    :class:`DensityMatrix`. For each outcome the ancilla is projected onto
    its sector and traced out, giving the weighted system state whose trace
    is the outcome probability. Those states come from
    :func:`qdilate.dilation.sector_states`, which reads the isometry of U and
    never forms the D x D joint state.
    """
    mat = gated_state(rho, dil.sys_dim)
    labels = [sector.label for sector in dil.sectors]
    return _make_outcomes(labels, sector_states(dil, mat), threshold)


def outcome_statistics(
    inst: Instrument, rho, threshold: float = POST_STATE_THRESHOLD
) -> tuple:
    """Apply each outcome map directly; the reference for measure_via_dilation.

    ``rho`` is gated as in :func:`measure_via_dilation`, then all K maps are
    applied as by :func:`apply_map`, in one stacked einsum.
    """
    raws = np.einsum("krpsq,pq->krs", inst._bmats, gated_state(rho, inst.dim))
    return _make_outcomes(inst.labels, raws, threshold)


def sample_outcomes(dil: Dilation, rho, shots: int, seed) -> dict:
    """Draw outcome counts from the dilation statistics in one multinomial draw.

    The histogram of ``shots`` independent readouts is Multinomial(shots, p),
    so the counts are drawn at once, in time and memory O(outcomes), for any
    whole number of shots in [1, 2^63 - 1]. ``rho`` is gated as in
    :func:`measure_via_dilation`, and only the sector states' traces are read.
    Counts sum to shots, are identical for identical seeds and include
    zero-count outcomes.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValidationError(f"shots must be a whole number, got {shots!r}")
    if shots < 1:
        raise ValidationError(f"shots must be at least 1, got {shots}")
    if shots > np.iinfo(np.int64).max:
        raise ValidationError(f"shots must be at most 2^63 - 1, got {shots}")
    mat = gated_state(rho, dil.sys_dim)
    labels = [sector.label for sector in dil.sectors]
    probs = _probabilities(labels, sector_states(dil, mat))
    total = probs.sum()
    if total <= 0.0:
        raise ValidationError("all outcome probabilities vanish; nothing to sample")
    counts = np.random.default_rng(seed).multinomial(shots, probs / total)
    return dict(zip(labels, counts.tolist()))
