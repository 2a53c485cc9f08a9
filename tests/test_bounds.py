"""One bound per invariant: complete, padded, TP and CP exactly when a dilation builds."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdilate as q

from conftest import P0, P1


def rescaled_kraus(dim: int, count: int, defect: np.ndarray, seed) -> list:
    """``count`` random Kraus operators whose effects sum to I - diag(defect).

    Gaussian columns orthonormalized into a (dim*count) x dim isometry give
    operators K_j with sum K_j^dagger K_j = I; each is then multiplied on the
    right by A = diag(sqrt(1 - defect)), so the sum becomes A^dagger A.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * count, dim)) + 1j * rng.standard_normal((dim * count, dim))
    iso, _ = np.linalg.qr(g)
    scale = np.sqrt(1.0 - defect)
    return [iso[j * dim : (j + 1) * dim] * scale for j in range(count)]


def log_uniform_off_the_bound():
    """s log-uniform in [1e-12, 1e-8], outside [0.5, 2] x DEFAULT_TOL."""
    return (
        st.floats(-12.0, -8.0)
        .map(lambda e: 10.0**e)
        .filter(lambda s: not 0.5 * q.DEFAULT_TOL <= s <= 2.0 * q.DEFAULT_TOL)
    )


@st.composite
def defect_cases(draw):
    """N in 1..4, 1..3 outcomes, and a total effect I - diag(+-s)."""
    dim = draw(st.integers(1, 4))
    mu = draw(st.integers(1, 3))
    s = draw(log_uniform_off_the_bound())
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)))
    count = draw(st.integers(mu, 2 * mu))
    seed = draw(st.integers(0, 2**32 - 1))
    return dim, mu, s, signs, rescaled_kraus(dim, count, signs * s, seed)


def dilates(build) -> bool:
    try:
        build()
    except (q.Incomplete, q.NotIsometry):
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(case=defect_cases())
def test_complete_padded_and_trace_preserving_exactly_when_the_dilation_builds(case):
    dim, mu, s, signs, kraus = case
    groups = [kraus[i::mu] for i in range(mu)]
    inst = q.Instrument(
        dim=dim,
        maps=tuple(
            (f"o{i}", q.map_from_kraus([(1.0, k) for k in g], dim)) for i, g in enumerate(groups)
        ),
    )
    assert inst.complete == (s < q.DEFAULT_TOL)
    assert inst.complete == dilates(lambda: q.build_instrument_dilation(inst))

    try:
        padded = q.pad_to_complete(inst)
    except q.OverComplete:
        assert s > q.DEFAULT_TOL and signs.min() < 0
    else:
        assert padded.complete
        q.build_instrument_dilation(padded)

    channel = q.map_from_kraus([(1.0, k) for k in kraus], dim)
    props = q.check_properties(channel)
    try:
        q.build_dilation_unitary(q.canonical_decompose(channel))
    except q.NotIsometry as exc:
        assert isinstance(exc, q.NotTracePreserving)
        built = False
    else:
        built = True
    assert props.trace_preserving == built == (s < q.DEFAULT_TOL)


def test_defect_of_5e_9_is_incomplete_and_pads_to_a_dilating_instrument():
    # One effect short of the identity by 5e-9: within the old 1e-8
    # completeness bound, so it was called complete, left unpadded, and then
    # refused by the dilation validator.
    short = np.diag([1.0, np.sqrt(1.0 - 5e-9)])
    inst = q.Instrument(
        dim=2,
        maps=(
            ("0", q.map_from_kraus([(1.0, P0)], 2)),
            ("1", q.map_from_kraus([(1.0, P1 @ short)], 2)),
        ),
    )
    assert not inst.complete
    with pytest.raises(q.Incomplete):
        q.build_instrument_dilation(inst)
    padded = q.pad_to_complete(inst)
    assert padded.padded_index == 2
    assert padded.complete
    dil = q.build_instrument_dilation(padded)
    outcomes = q.measure_via_dilation(dil, np.full((2, 2), 0.5))
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= q.DEFAULT_TOL
    assert sum(q.sample_outcomes(dil, np.full((2, 2), 0.5), shots=100, seed=1).values()) == 100


def test_effects_above_the_identity_by_5e_10_are_overcomplete():
    # Effects diag(0.5, 1 + 5e-10): the old 1e-9 padding bound let the
    # -5e-10 defect eigenvalue through, and the padded set reported complete
    # while its dilation was refused.
    kraus = np.diag([np.sqrt(0.5), np.sqrt(1.0 + 5e-10)])
    inst = q.Instrument(dim=2, maps=(("0", q.map_from_kraus([(1.0, kraus)], 2)),))
    assert not inst.complete
    with pytest.raises(q.OverComplete):
        q.pad_to_complete(inst)


def weyl_ops(dim: int) -> list:
    """The dim^2 Weyl operators X^a Z^b / sqrt(dim): HS-orthonormal, each L^dagger L = I / dim."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) / np.sqrt(dim)
        for a in range(dim)
        for b in range(dim)
    ]


def boundary_map(dim: int, low: float, seed) -> q.DynamicalMap:
    """A trace-preserving map whose smallest canonical weight is ``low``.

    The last Weyl operator carries ``low`` and the others random positive
    weights summing to dim - low, so the effects sum to the identity.
    """
    ops = weyl_ops(dim)
    rest = np.random.default_rng(seed).random(len(ops) - 1)
    rest *= (dim - low) / rest.sum()
    return q.map_from_kraus(list(zip(rest, ops[:-1])) + [(low, ops[-1])], dim)


def accepts(build) -> bool:
    try:
        build()
    except q.NotCompletelyPositive:
        return False
    return True


def one_outcome(dmap: q.DynamicalMap) -> q.Instrument:
    return q.Instrument(dim=dmap.dim, maps=(("map", dmap),))


def test_check_instrument_and_both_dilations_call_the_same_maps_cp():
    # 1,602 maps with smallest weight -DEFAULT_TOL + k * 1e-17, |k| <= 400,
    # N = 2 and 3: within a few roundings of the bound, where eigvalsh and
    # eigh can fall on opposite sides of it, so two eigen-solvers would split
    # the decision.
    split, seen = [], set()
    for dim, k in itertools.product([2, 3], range(-400, 401)):
        dmap = boundary_map(dim, -q.DEFAULT_TOL + k * 1e-17, 1000 * dim + k)
        decisions = (
            q.check_properties(dmap).completely_positive,
            accepts(lambda: one_outcome(dmap)),
            accepts(lambda: q.build_dilation_unitary(q.canonical_decompose(dmap))),
            accepts(lambda: q.build_instrument_dilation(one_outcome(dmap))),
        )
        seen.add(decisions[0])
        if len(set(decisions)) > 1:
            split.append((dim, k, decisions))
    assert split == []
    assert seen == {True, False}


# check_properties and Instrument.complete decide trace preservation from the
# effect of B, the builders from V^dagger V, and the two round differently.
# The widest split a sweep found (40,000 maps of this construction within
# 4e-5 DEFAULT_TOL of the bound, N = 1-8, both spectrum routes) was a trace
# defect 3.0e-15 from the bound; the band is 33x that.
TP_BAND = 1e-13


@st.composite
def near_the_trace_bound(draw):
    """N in 1..8, 1..N^2 Kraus terms, total effect I - diag(+-s), s near DEFAULT_TOL."""
    dim = draw(st.integers(1, 8))
    count = draw(st.integers(1, dim * dim))
    gap = 10.0 ** draw(st.floats(np.log10(2 * TP_BAND), np.log10(0.5 * q.DEFAULT_TOL)))
    s = q.DEFAULT_TOL + draw(st.sampled_from([1.0, -1.0])) * gap
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)))
    kraus = rescaled_kraus(dim, count, signs * s, draw(st.integers(0, 2**32 - 1)))
    dmap = q.map_from_kraus([(1.0, k) for k in kraus], dim)
    return q.DynamicalMap(dmap.bmat) if draw(st.booleans()) else dmap


@settings(max_examples=200, deadline=None)
@given(dmap=near_the_trace_bound())
def test_check_complete_and_both_builders_agree_on_trace_preservation_off_the_band(dmap):
    props = q.check_properties(dmap)
    assume(abs(props.trace_defect - q.DEFAULT_TOL) > TP_BAND)
    inst = one_outcome(dmap)
    verdicts = (
        props.trace_preserving,
        inst.complete,
        dilates(lambda: q.build_dilation_unitary(q.canonical_decompose(dmap))),
        dilates(lambda: q.build_instrument_dilation(inst)),
    )
    assert verdicts == (props.trace_defect <= q.DEFAULT_TOL,) * 4
