"""Outcome assembly and sampling give the reference code's bits and errors.

``_probabilities``, ``_make_outcomes`` and ``sample_outcomes`` below are the
readout's assembly and sampling as written before they dropped their
per-outcome array calls (a mask and ``nonzero`` on every call, a gathered
stack of post states and a dict), kept verbatim as the reference. The
library's versions must give the same probabilities, raw and post states
bit for bit, the same counts, and the same first error.
"""

import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import instrument
from qdilate.channel import _checked, gated_state
from qdilate.dilation import sector_states
from qdilate.errors import ValidationError
from qdilate.instrument import OutcomeResult
from qdilate.linalg import DEFAULT_TOL

from conftest import make_projective_instrument, make_split_instrument, sampling_cases

# The reference, verbatim.


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


def sample_outcomes(dil, rho, shots: int, seed) -> dict:
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


def run(fn, *args):
    """What a call gives: ("ok", its result) or ("error", type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def assembled(fn, labels, raws, threshold):
    got = run(fn, labels, raws, threshold)
    if got[0] == "error":
        return got
    return [
        (o.label, bits(np.float64(o.probability)), bits(o.raw_unnormalized),
         bits(o.post_state), o.post_state is None or not o.post_state.flags.writeable)
        for o in got[1]
    ]


def probabilities(fn, labels, raws):
    got = run(fn, labels, raws)
    return got if got[0] == "error" else bits(np.ascontiguousarray(got[1]))


@settings(max_examples=80, deadline=None)
@given(case=sampling_cases(), data=st.data())
def test_outcome_assembly_equals_the_reference(case, data):
    inst, rho = case
    dil = q.build_instrument_dilation(inst)
    labels = list(inst.labels)
    raws = sector_states(dil, rho)
    expected = _probabilities(labels, raws)
    assert probabilities(instrument._probabilities, labels, raws) == bits(expected)
    # Thresholds 0 and the default, and one equal to an outcome's probability.
    at = data.draw(st.integers(0, len(labels) - 1))
    for threshold in (0.0, 1e-12, float(expected[at])):
        got = assembled(instrument._make_outcomes, labels, raws, threshold)
        assert got == assembled(_make_outcomes, labels, raws, threshold)
    assert [(o.label, o.probability) for o in q.measure_via_dilation(dil, rho)] == [
        (o.label, o.probability) for o in _make_outcomes(labels, raws, 1e-12)
    ]


@pytest.mark.parametrize("value", [-2 * DEFAULT_TOL, 1.0 + 2 * DEFAULT_TOL, np.nan, np.inf,
                                   -DEFAULT_TOL / 2, 1.0 + DEFAULT_TOL / 2, -0.0, 1.0])
@pytest.mark.parametrize("kind", ["split", "projective"])
def test_an_outcome_at_or_out_of_range_in_each_position_is_met_as_the_reference(kind, value):
    dim, mu = 3, 3
    inst = (make_split_instrument if kind == "split" else make_projective_instrument)(dim, mu, 7)
    labels = list(inst.labels)
    raws = sector_states(q.build_instrument_dilation(inst), q.random_density(dim, 8))
    for k in range(mu):
        for also in (None, (k + 1) % mu):
            bent = raws.copy()
            for at in (k, also):
                if at is not None:
                    bent[at] = 0.0
                    bent[at, 0, 0] = value
            got = probabilities(instrument._probabilities, labels, bent)
            assert got == probabilities(_probabilities, labels, bent)
            for threshold in (0.0, 1e-12):
                got = assembled(instrument._make_outcomes, labels, bent, threshold)
                assert got == assembled(_make_outcomes, labels, bent, threshold)


@settings(max_examples=60, deadline=None)
@given(case=sampling_cases(), shots=st.integers(1, 2**63 - 1), seed=st.integers(0, 2**32 - 1))
def test_sample_counts_equal_the_reference(case, shots, seed):
    inst, rho = case
    dil = q.build_instrument_dilation(inst)
    got = run(q.sample_outcomes, dil, rho, shots, seed)
    assert got[0] == "ok"
    assert list(got[1].items()) == list(sample_outcomes(dil, rho, shots, seed).items())


@pytest.mark.parametrize("shots", [0, -1, 2**63, 2**63 - 1, 10.0, True, "10", None, np.int64(5)])
@pytest.mark.parametrize("state", ["valid", "not_hermitian", "no_unit_trace", "nan", "shape"])
def test_sample_refusals_equal_the_reference(shots, state):
    dim = 2
    dil = q.build_instrument_dilation(make_split_instrument(dim, 2, 11))
    rho = q.random_density(dim, 12).mat
    states = {
        "valid": rho,
        "not_hermitian": rho + np.array([[0.0, 1e-6], [0.0, 0.0]]),
        "no_unit_trace": 2 * rho,
        "nan": np.where(np.eye(dim, dtype=bool), np.nan, rho),
        "shape": np.eye(dim + 1) / (dim + 1),
    }
    got = run(q.sample_outcomes, dil, states[state], shots, 3)
    assert got == run(sample_outcomes, dil, states[state], shots, 3)


@pytest.mark.parametrize("dim, mu", [(1, 1), (2, 2), (4, 3)])
def test_a_dilation_keeps_one_read_only_conjugate_isometry(dim, mu):
    dil = q.build_instrument_dilation(make_split_instrument(dim, mu, 13))
    conj = dil._conj_wide
    assert conj is dil._conj_wide
    assert not conj.flags.writeable
    assert conj.shape == (dim, dil.anc_dim * dim)
    assert np.array_equal(conj.reshape(dil.isometry.shape), dil.isometry.conj())
