"""Instruments: completeness, padding, joint dilation, statistics, sampling."""

import dataclasses
import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import channel, instrument, linalg
from qdilate.dilation import sector_states

from conftest import (
    IDENTITY2,
    P0,
    P1,
    another_completion,
    joint_state_through,
    make_projective_instrument,
    make_split_instrument,
)


def basis_instrument():
    return q.Instrument(
        dim=2,
        maps=(
            ("0", q.map_from_kraus([(1.0, P0)], 2)),
            ("1", q.map_from_kraus([(1.0, P1)], 2)),
        ),
    )


def p0_instrument():
    return q.Instrument(dim=2, maps=(("0", q.map_from_kraus([(1.0, P0)], 2)),))


def test_basis_instrument_is_complete():
    inst = basis_instrument()
    assert inst.complete
    complete, defect = q.check_completeness(inst)
    assert complete
    assert q.max_abs(defect) < 1e-12


def test_single_projection_is_incomplete_with_projector_defect():
    inst = p0_instrument()
    assert not inst.complete
    complete, defect = q.check_completeness(inst)
    assert not complete
    assert q.max_abs(defect - P1) < 1e-12


def test_channel_as_one_outcome_instrument_is_complete():
    inst = q.Instrument(dim=3, maps=(("go", q.random_cptp(3, 4, 60)),))
    assert inst.complete


def test_pad_appends_projector_kraus():
    padded = q.pad_to_complete(p0_instrument())
    assert padded.complete
    assert padded.padded_index == 1
    assert padded.labels == ("0", "discard")
    dec = q.canonical_decompose(padded.maps[1][1])
    assert dec.rank == 1
    kraus = np.sqrt(dec.weights[0]) * dec.ops[0]
    assert q.max_abs(kraus - P1) < 1e-10


def test_pad_leaves_complete_instrument_untouched():
    inst = basis_instrument()
    assert q.pad_to_complete(inst) is inst


def test_pad_rejects_overcomplete_set():
    doubled = q.Instrument(dim=2, maps=(("x", q.map_from_kraus([(2.0, IDENTITY2)], 2)),))
    with pytest.raises(q.OverComplete):
        q.pad_to_complete(doubled)


def test_instrument_rejects_duplicate_labels():
    m = q.map_from_kraus([(1.0, P0)], 2)
    with pytest.raises(q.ValidationError):
        q.Instrument(dim=2, maps=(("a", m), ("a", m)))


def test_instrument_rejects_non_cp_member():
    swap = np.zeros((4, 4))
    for r in range(2):
        for rp in range(2):
            swap[r * 2 + rp, rp * 2 + r] = 1.0
    with pytest.raises(q.NotCompletelyPositive):
        q.Instrument(dim=2, maps=(("t", q.DynamicalMap(swap)),))


def test_instrument_rejects_dimension_mismatch():
    with pytest.raises(q.DimensionMismatch):
        q.Instrument(dim=3, maps=(("a", q.map_from_kraus([(1.0, P0)], 2)),))


def test_one_outcome_instrument_matches_channel_dilation():
    dmap = q.random_cptp(2, 3, 61)
    inst = q.Instrument(dim=2, maps=(("all", dmap),))
    dil = q.build_instrument_dilation(inst)
    du = q.build_dilation_unitary(q.canonical_decompose(dmap))
    assert dil.anc_dim == du.anc_dim
    assert q.max_abs(dil.u - du.u) < 1e-12
    rho = q.random_density(2, 62)
    (outcome,) = q.measure_via_dilation(dil, rho)
    _, reduced = q.simulate_via_dilation(du, rho)
    assert abs(outcome.probability - 1.0) < 1e-10
    assert q.max_abs(outcome.raw_unnormalized - reduced) < 1e-10
    assert q.max_abs(outcome.raw_unnormalized - q.apply_map(dmap, rho)) < 1e-9


def test_one_outcome_readout_is_the_channel_sector_state():
    dmap = q.random_cptp(3, 5, 66)
    rho = q.random_density(3, 67)
    inst = q.Instrument(dim=3, maps=(("all", dmap),))
    (outcome,) = q.measure_via_dilation(q.build_instrument_dilation(inst), rho)
    (state,) = sector_states(q.build_dilation_unitary(q.canonical_decompose(dmap)), rho)
    assert np.array_equal(outcome.raw_unnormalized, state)


def test_basis_instrument_dilation_layout():
    dil = q.build_instrument_dilation(basis_instrument())
    assert dil.anc_dim == 2
    assert [(s.label, s.start, s.stop) for s in dil.sectors] == [("0", 0, 1), ("1", 1, 2)]
    # The fixed columns copy the basis index into the ancilla sector; the
    # composite index of |r>|a> is r * anc_dim + a.
    assert q.max_abs(dil.u[:, 0 * 2 + 0] - np.eye(4)[0 * 2 + 0]) < 1e-12
    expected = np.zeros(4)
    expected[1 * 2 + 1] = 1.0
    assert q.max_abs(dil.u[:, 1 * 2 + 0] - expected) < 1e-12


def test_instrument_dilation_requires_completeness():
    with pytest.raises(q.Incomplete):
        q.build_instrument_dilation(p0_instrument())


def test_measure_basis_instrument_on_plus_state(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    outcomes = q.measure_via_dilation(dil, plus_state)
    assert [o.label for o in outcomes] == ["0", "1"]
    for o, post in zip(outcomes, (P0, P1)):
        assert abs(o.probability - 0.5) < 1e-10
        assert q.max_abs(o.post_state - post) < 1e-10
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-9


def test_measure_padded_projection_on_excited_state(excited_state):
    padded = q.pad_to_complete(p0_instrument())
    dil = q.build_instrument_dilation(padded)
    outcomes = q.measure_via_dilation(dil, excited_state)
    assert outcomes[0].probability < 1e-10
    assert outcomes[0].post_state is None
    assert abs(outcomes[1].probability - 1.0) < 1e-10
    assert q.max_abs(outcomes[1].post_state - P1) < 1e-10


def test_outcome_statistics_match_measurement_for_fixture(plus_state):
    inst = basis_instrument()
    direct = q.outcome_statistics(inst, plus_state)
    dilated = q.measure_via_dilation(q.build_instrument_dilation(inst), plus_state)
    for a, b in zip(direct, dilated):
        assert a.label == b.label
        assert abs(a.probability - b.probability) < 1e-9
        assert q.max_abs(a.raw_unnormalized - b.raw_unnormalized) < 1e-9


def test_outcome_statistics_incomplete_set_subnormalized():
    rho = q.DensityMatrix(IDENTITY2 / 2)
    (outcome,) = q.outcome_statistics(p0_instrument(), rho)
    assert abs(outcome.probability - 0.5) < 1e-12


def test_oracle_equivalence_on_random_instruments():
    for case in range(20):
        dim = 2 + case % 2
        mu = 2 + case % 3
        if case % 4 == 3 and mu <= dim:
            inst = make_projective_instrument(dim, mu, 10_000 + case)
        else:
            inst = make_split_instrument(dim, mu, 10_000 + case)
        dil = q.build_instrument_dilation(inst)
        assert dil.anc_dim <= inst.num_outcomes * dim * dim
        for t in range(3):
            rho = q.random_density(dim, 11_000 + 10 * case + t)
            direct = q.outcome_statistics(inst, rho)
            dilated = q.measure_via_dilation(dil, rho)
            total = sum(o.probability for o in dilated)
            assert abs(total - 1.0) < 1e-9
            for a, b in zip(direct, dilated):
                assert abs(a.probability - b.probability) < 1e-9
                assert q.max_abs(a.raw_unnormalized - b.raw_unnormalized) < 1e-9
                raw = b.raw_unnormalized
                assert q.max_abs(raw - q.dagger(raw)) < 1e-9
                assert np.linalg.eigvalsh((raw + q.dagger(raw)) / 2).min() > -1e-9


def test_padding_preserves_original_statistics(plus_state, excited_state):
    inst = p0_instrument()
    padded = q.pad_to_complete(inst)
    for rho in (plus_state, excited_state, q.random_density(2, 63)):
        original = q.outcome_statistics(inst, rho)
        kept = q.outcome_statistics(padded, rho)[: inst.num_outcomes]
        for a, b in zip(original, kept):
            assert a.label == b.label
            assert a.probability == b.probability
            assert np.array_equal(a.raw_unnormalized, b.raw_unnormalized)


def test_sample_one_outcome_instrument_puts_all_shots_on_it():
    inst = q.Instrument(dim=2, maps=(("only", q.random_cptp(2, 2, 64)),))
    dil = q.build_instrument_dilation(inst)
    counts = q.sample_outcomes(dil, q.random_density(2, 65), shots=250, seed=1)
    assert counts == {"only": 250}


def test_sample_deterministic_and_binomially_plausible(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    a = q.sample_outcomes(dil, plus_state, shots=100_000, seed=21)
    b = q.sample_outcomes(dil, plus_state, shots=100_000, seed=21)
    assert a == b
    assert sum(a.values()) == 100_000
    bound = 4 * np.sqrt(0.25 * 100_000)
    for label in ("0", "1"):
        assert abs(a[label] - 50_000) <= bound


@pytest.mark.parametrize("random_completion", [False, True])
def test_measure_matches_full_unitary_sector_readout(random_completion):
    for case in range(8):
        dim = 2 + case % 3
        mu = 1 + case % 3
        inst = make_split_instrument(dim, mu, 14_000 + case)
        dil = q.build_instrument_dilation(inst)
        u = another_completion(dil, 15_000 + case) if random_completion else dil.u
        rho = q.random_density(dim, 16_000 + case)
        joint = joint_state_through(u, rho, dil.anc_dim)
        j4 = joint.reshape(dim, dil.anc_dim, dim, dil.anc_dim)
        outcomes = q.measure_via_dilation(dil, rho)
        assert [o.label for o in outcomes] == [s.label for s in dil.sectors]
        for sector, outcome in zip(dil.sectors, outcomes):
            window = slice(sector.start, sector.stop)
            ref = np.einsum("rasa->rs", j4[:, window, :, window])
            assert q.max_abs(outcome.raw_unnormalized - ref) <= 1e-12
            assert abs(outcome.probability - np.trace(ref).real) <= 1e-12


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_sample_counts_equal_one_multinomial_draw(seed):
    inst = make_split_instrument(3, 3, 17_000 + seed)
    dil = q.build_instrument_dilation(inst)
    rho = q.random_density(3, seed)
    shots = 2_109_497
    counts = q.sample_outcomes(dil, rho, shots, seed)
    p = np.array([o.probability for o in q.measure_via_dilation(dil, rho)])
    expected = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    assert list(counts.values()) == expected.tolist()


def test_sample_time_does_not_grow_with_shots(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    start = time.perf_counter()
    counts = q.sample_outcomes(dil, plus_state, shots=2**62, seed=5)
    assert time.perf_counter() - start < 1.0
    assert sum(counts.values()) == 2**62


def test_sample_rejects_shots_beyond_int64(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    with pytest.raises(q.ValidationError):
        q.sample_outcomes(dil, plus_state, shots=2**63, seed=5)


def test_sample_rejects_non_positive_shots(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    with pytest.raises(q.ValidationError):
        q.sample_outcomes(dil, plus_state, shots=0, seed=2)


def test_outcome_result_validation():
    with pytest.raises(q.ValidationError):
        q.OutcomeResult(label="x", probability=1.5, post_state=None, raw_unnormalized=P0)
    with pytest.raises(q.ValidationError):
        q.OutcomeResult(label="x", probability=0.2, post_state=None, raw_unnormalized=P0)


def test_outcome_result_refuses_nan_trace():
    raw = np.diag([np.nan, 0.5])
    with pytest.raises(q.ValidationError, match="does not match trace"):
        q.OutcomeResult(label="x", probability=0.5, post_state=None, raw_unnormalized=raw)


def nan_eig(m):
    """An eigendecomposition whose eigenvalues are all NaN."""
    return np.full(len(m), np.nan), np.eye(len(m), dtype=complex)


def nan_factor_eig(f):
    """A factor's r eigenpairs, with NaN eigenvalues."""
    return np.full(f.shape[1], np.nan), np.eye(*f.shape, dtype=complex)


@pytest.mark.parametrize("route", ["factor", "eigh"])
def test_instrument_cp_gate_refuses_nan(monkeypatch, route):
    # The gate reads the outcome map's spectrum, from either route; the
    # rank-1 Kraus map of P0 takes the factor route, its bmat the eigh route.
    dmap = q.map_from_kraus([(1.0, P0)], 2)
    if route == "eigh":
        dmap = q.DynamicalMap(dmap.bmat)
    monkeypatch.setattr(channel, "factor_eig", nan_factor_eig)
    monkeypatch.setattr(channel, "sorted_eigh", nan_eig)
    assert np.isnan(dmap.min_eigenvalue)
    with pytest.raises(q.NotCompletelyPositive, match="outcome '0'"):
        q.Instrument(dim=2, maps=(("0", dmap),))


def test_pad_psd_gate_refuses_nan(monkeypatch):
    # The gate is psd_sqrt's, on the eigenvalues of the defect.
    inst = p0_instrument()
    monkeypatch.setattr(linalg, "hermitian_eig", nan_eig)
    with pytest.raises(q.OverComplete):
        q.pad_to_complete(inst)


def test_probability_range_gate_refuses_nan():
    # A NaN state never reaches it: every readout's input gate refuses it
    # first. The range gate itself still refuses a NaN trace.
    inst = basis_instrument()
    dil = q.build_instrument_dilation(inst)
    rho = np.diag([np.nan, 1.0])
    for readout in (
        lambda: q.measure_via_dilation(dil, rho),
        lambda: q.outcome_statistics(inst, rho),
        lambda: q.sample_outcomes(dil, rho, 100, 1),
    ):
        with pytest.raises(q.ValidationError, match="^density matrix contains non-finite entries$"):
            readout()
    raws = np.array([np.diag([np.nan, 1.0]), P1])
    with pytest.raises(q.ValidationError, match="outcome '0' has probability nan outside"):
        instrument._make_outcomes(("0", "1"), raws, q.POST_STATE_THRESHOLD)


@pytest.mark.parametrize("threshold", [-1.0, -1e-300, float("nan")])
def test_readout_refuses_a_negative_or_nan_threshold(threshold):
    # A threshold of -1 once gave the p = 0 outcome of |1><1| a post state,
    # raw / 0, and failed on its non-finite entries instead.
    inst = basis_instrument()
    dil = q.build_instrument_dilation(inst)
    excited = np.diag([0.0, 1.0])
    for readout in (
        lambda: q.measure_via_dilation(dil, excited, threshold),
        lambda: q.outcome_statistics(inst, excited, threshold),
    ):
        with pytest.raises(q.ValidationError, match="post-state threshold"):
            readout()


def reference_outcomes(labels, raws, threshold=q.POST_STATE_THRESHOLD):
    """The outcome-by-outcome readout, with a density-matrix check per post state.

    Each post state raw / p is checked to be Hermitian, of unit trace and
    positive semidefinite within max(DEFAULT_TOL, 1e-13 / p), the scale of
    rounding noise divided by a small probability. The readouts gate only
    their input, so equality with this reference shows every post state
    they return passes that check.
    """
    results = []
    for label, raw in zip(labels, raws):
        p = float(np.trace(raw).real)
        if p < -q.DEFAULT_TOL or p > 1.0 + q.DEFAULT_TOL:
            raise q.ValidationError(f"outcome {label!r} has probability {p} outside [0, 1]")
        p = min(max(p, 0.0), 1.0)
        post = None
        if p > threshold:
            mat = raw / p
            tol = max(q.DEFAULT_TOL, 1e-13 / p)
            assert q.max_abs(mat - q.dagger(mat)) <= tol
            assert abs(np.trace(mat) - 1.0) <= tol
            assert np.linalg.eigvalsh((mat + q.dagger(mat)) / 2).min() >= -tol
            post = mat
        results.append(
            q.OutcomeResult(label=label, probability=p, post_state=post, raw_unnormalized=raw)
        )
    return tuple(results)


def direct_raws(inst, rho):
    return np.stack([q.apply_map(dmap, rho) for _, dmap in inst.maps])


def assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.label == b.label
        assert a.probability == b.probability
        assert np.array_equal(a.raw_unnormalized, b.raw_unnormalized)
        assert (a.post_state is None) == (b.post_state is None)
        if b.post_state is not None:
            assert np.array_equal(a.post_state, b.post_state)
            assert not a.post_state.flags.writeable


@st.composite
def readout_cases(draw):
    """A split instrument (N 1..6, rank 1..N^2, 1..4 outcomes) and a state."""
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim * dim))
    mu = draw(st.integers(1, min(4, rank)))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = make_split_instrument(dim, mu, seed, rank=rank)
    return inst, q.random_density(dim, seed + 1), draw(st.integers(0, mu - 1))


@settings(max_examples=60, deadline=None)
@given(case=readout_cases())
def test_batched_readout_equals_the_outcome_by_outcome_loop(case):
    inst, rho, at = case
    dil = q.build_instrument_dilation(inst)
    for readout, raws in (
        (lambda t: q.measure_via_dilation(dil, rho, t), sector_states(dil, rho)),
        (lambda t: q.outcome_statistics(inst, rho, t), direct_raws(inst, rho)),
    ):
        assert_same_outcomes(readout(q.POST_STATE_THRESHOLD), reference_outcomes(inst.labels, raws))
        # A threshold equal to an outcome's probability leaves it no post state.
        threshold = reference_outcomes(inst.labels, raws)[at].probability
        got = readout(threshold)
        assert got[at].post_state is None
        assert_same_outcomes(got, reference_outcomes(inst.labels, raws, threshold))


def kraus_map(*ops):
    return q.map_from_kraus([(1.0, op) for op in ops], 2)


# Outcome maps with total effect I, and the non-states every readout refuses.
THREE_OUTCOMES = (
    ("ok", kraus_map(P0 / np.sqrt(3), np.array([[0.0, 1.0], [0.0, 0.0]]) / np.sqrt(3))),
    ("keep", kraus_map(IDENTITY2 / np.sqrt(3))),
    ("dephase", kraus_map(P0 / np.sqrt(3), P1 / np.sqrt(3))),
)
NOT_STATES = {
    "hermiticity": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "hermiticity_and_positivity": np.array([[1.2, 0.5], [0.0, -0.2]]),
    "positivity_and_range": np.diag([1.5, -0.5]),
}
READOUTS = {
    "measure": lambda inst, rho: q.measure_via_dilation(q.build_instrument_dilation(inst), rho),
    "statistics": q.outcome_statistics,
    "sample": lambda inst, rho: q.sample_outcomes(q.build_instrument_dilation(inst), rho, 100, 1),
}


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("readout", sorted(READOUTS))
@pytest.mark.parametrize("kind", sorted(NOT_STATES))
def test_every_readout_refuses_an_input_that_is_not_a_state(kind, readout, order):
    # The input gate is DensityMatrix's, so its error is the readout's, in
    # any outcome order.
    rho = NOT_STATES[kind]
    with pytest.raises(q.ValidationError, match="^density matrix must") as expected:
        q.DensityMatrix(rho)
    inst = q.Instrument(dim=2, maps=tuple(THREE_OUTCOMES[i] for i in order))
    with pytest.raises(q.ValidationError, match=f"^{re.escape(str(expected.value))}$"):
        READOUTS[readout](inst, rho)


@pytest.mark.parametrize("readout", sorted(READOUTS))
def test_a_readout_refuses_a_trace_defect_its_outputs_hide(readout):
    # Each post state of diag(1, 0.8) under the basis instrument is a valid
    # projector, so only a gate on the input can see the trace of 1.8.
    with pytest.raises(q.ValidationError, match=r"^density matrix must have unit trace \(trace 1\.8"):
        READOUTS[readout](basis_instrument(), np.diag([1.0, 0.8]))


def test_a_readout_accepts_every_state_the_gate_accepts():
    # Off Hermitian by 5e-11, within DEFAULT_TOL. Outcome "w" has p = 0.005,
    # and its post state carries that defect times about 5: no second gate
    # at the tolerance of the input may refuse it.
    rho = np.array([[0.99, 0.0], [5e-11, 0.01]])
    a, b = 0.05025, 0.5
    inst = q.Instrument(dim=2, maps=(
        ("w", kraus_map(np.diag([a, b]))),
        ("rest", kraus_map(np.diag([np.sqrt(1 - a * a), np.sqrt(1 - b * b)]))),
    ))
    dil = q.build_instrument_dilation(inst)
    via = q.measure_via_dilation(dil, rho)
    direct = q.outcome_statistics(inst, rho)
    for outcomes in (via, direct):
        post = outcomes[0].post_state
        assert q.max_abs(post - q.dagger(post)) > q.DEFAULT_TOL
    for x, y in zip(via, direct):
        assert abs(x.probability - y.probability) <= 1e-12
    counts = q.sample_outcomes(dil, rho, 1000, 7)
    assert sum(counts.values()) == 1000


def test_a_post_state_is_gated_when_it_is_read_out_again():
    # rho is a state within DEFAULT_TOL, but outcome "w" has p = 1e-11, so
    # its post state, about diag(6, -5), carries the input's -5e-11 divided
    # by p. It comes back as a plain read-only array, not a DensityMatrix,
    # and a readout given it refuses it.
    rho = np.diag([1.0 + 5e-11, -5e-11])
    q.DensityMatrix(rho)
    inst = q.Instrument(dim=2, maps=(
        ("w", kraus_map(np.diag([np.sqrt(6e-11), 1.0]))),
        ("rest", kraus_map(np.diag([np.sqrt(1 - 6e-11), 0.0]))),
    ))
    dil = q.build_instrument_dilation(inst)
    for outcomes in (q.measure_via_dilation(dil, rho), q.outcome_statistics(inst, rho)):
        post = outcomes[0].post_state
        assert type(post) is np.ndarray and not post.flags.writeable
        assert np.linalg.eigvalsh(post).min() < -4.0
        for readout in READOUTS.values():
            with pytest.raises(q.ValidationError, match="^density matrix must be positive semidefinite"):
                readout(inst, post)


def test_each_readout_makes_one_eigvalsh_call(monkeypatch):
    # An array state costs one (N, N) call, the input gate's; a
    # DensityMatrix has passed it and costs none.
    inst = make_split_instrument(4, 4, 18_000)
    dil = q.build_instrument_dilation(inst)
    rho = q.random_density(4, 18_001)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for readout in (
        lambda state: q.measure_via_dilation(dil, state),
        lambda state: q.outcome_statistics(inst, state),
        lambda state: q.sample_outcomes(dil, state, 1000, 1),
    ):
        for state, expected in ((rho.mat, [(4, 4)]), (rho, [])):
            calls.clear()
            readout(state)
            assert calls == expected


def test_each_map_is_eigendecomposed_once(monkeypatch):
    n, mu = 3, 3
    channel_map = q.random_cptp(n, n * n, 18_200)
    # Effects summing to 0.8 I: the set needs a discard outcome.
    maps = tuple(
        (label, q.DynamicalMap(0.8 * dmap.bmat))
        for label, dmap in make_split_instrument(n, mu, 18_201).maps
    )
    calls = {"eigh": [], "eigvalsh": [], "svd": []}
    eigh, eigvalsh, svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls["eigh"].append(m.shape) or eigh(m))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda m: calls["eigvalsh"].append(m.shape) or eigvalsh(m)
    )
    monkeypatch.setattr(
        np.linalg, "svd", lambda m, **kw: calls["svd"].append(m.shape) or svd(m, **kw)
    )

    # Full Kraus rank: one eigh of B. Kraus rank 2: one thin SVD of its factor.
    for dmap, expected in (
        (channel_map, {"eigh": [(n * n, n * n)], "eigvalsh": [], "svd": []}),
        (q.random_cptp(n, 2, 18_202), {"eigh": [], "eigvalsh": [], "svd": [(n * n, 2)]}),
    ):
        for log in calls.values():
            log.clear()
        q.check_properties(dmap)
        dec = q.canonical_decompose(dmap)
        q.build_dilation_unitary(dec)
        assert calls == expected
        vals, vecs = dmap.spectrum
        assert not vals.flags.writeable and not vecs.flags.writeable
        assert not np.shares_memory(dec.weights, vals)
        assert not np.shares_memory(dec.ops, vecs)

    for log in calls.values():
        log.clear()
    padded = q.pad_to_complete(q.Instrument(dim=n, maps=maps))
    q.build_instrument_dilation(padded)
    # One eigh per outcome map and the defect's square root; the rank-1
    # discard map is one SVD.
    assert calls == {
        "eigh": [(n * n, n * n)] * mu + [(n, n)], "eigvalsh": [], "svd": [(n * n, 1)]
    }


def reference_counts(dil, rho, shots, seed):
    """Sampling through the full readout: measure_via_dilation, then one draw."""
    outcomes = q.measure_via_dilation(dil, rho)
    p = np.array([o.probability for o in outcomes])
    counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    return {o.label: int(c) for o, c in zip(outcomes, counts)}


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


@settings(max_examples=80, deadline=None)
@given(case=sampling_cases(), shots=st.integers(1, 2**62), seed=st.integers(0, 2**32 - 1))
def test_sample_counts_equal_the_full_readouts_draw(case, shots, seed):
    inst, rho = case
    dil = q.build_instrument_dilation(inst)
    counts = q.sample_outcomes(dil, rho, shots, seed)
    assert list(counts.items()) == list(reference_counts(dil, rho, shots, seed).items())


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), mu=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_outcome_statistics_equal_the_per_map_loop(dim, mu, seed):
    mu = min(mu, dim * dim)
    inst = make_split_instrument(dim, mu, seed)
    rho = q.random_density(dim, seed + 1)
    raws = np.stack([o.raw_unnormalized for o in q.outcome_statistics(inst, rho)])
    assert np.array_equal(raws, direct_raws(inst, rho))


@pytest.mark.parametrize("shots", [10.5, 10.0, True, np.float64(3.0), "10", None])
def test_sample_refuses_shots_that_are_not_whole_numbers(plus_state, shots):
    dil = q.build_instrument_dilation(basis_instrument())
    with pytest.raises(q.ValidationError, match="whole number"):
        q.sample_outcomes(dil, plus_state, shots, 5)


def test_sample_accepts_numpy_integer_shots(plus_state):
    dil = q.build_instrument_dilation(basis_instrument())
    for shots in (np.int64(1000), np.uint8(200), np.int32(7)):
        counts = q.sample_outcomes(dil, plus_state, shots, 5)
        assert counts == q.sample_outcomes(dil, plus_state, int(shots), 5)
        assert sum(counts.values()) == shots


def test_prechecked_results_stay_frozen(plus_state):
    (outcome, _) = q.measure_via_dilation(q.build_instrument_dilation(basis_instrument()), plus_state)
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.probability = None
    with pytest.raises(ValueError, match="read-only"):
        outcome.post_state[0, 0] = 0.0
