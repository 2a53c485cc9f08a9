"""Channel dilations: isometry construction, completion, evolution, verification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
import qdilate.dilation
from qdilate.dilation import sector_states
from qdilate.linalg import complete_to_unitary

from conftest import (
    IDENTITY2,
    P0,
    P1,
    another_completion,
    joint_state_through,
    make_split_instrument,
)


def identity_decomposition():
    return q.canonical_decompose(q.map_from_kraus([(1.0, IDENTITY2)], 2))


def dephasing_map():
    return q.map_from_kraus([(1.0, P0), (1.0, P1)], 2)


def amplitude_damping_map():
    k0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]], dtype=complex)
    return q.map_from_kraus([(1.0, k0), (1.0, k1)], 2)


def test_identity_channel_isometry_is_identity():
    iso = q.build_dilation_isometry(identity_decomposition())
    assert iso.shape == (2, 2)
    assert q.max_abs(iso - IDENTITY2) < 1e-12


def test_identity_channel_unitary_is_identity():
    du = q.build_dilation_unitary(identity_decomposition())
    assert du.anc_dim == 1
    assert q.max_abs(du.u - IDENTITY2) < 1e-12


def test_dephasing_isometry_copies_basis_index():
    dec = q.canonical_decompose(dephasing_map())
    iso = q.build_dilation_isometry(dec)
    expected = np.zeros((4, 2), dtype=complex)
    expected[0 * 2 + 0, 0] = 1.0
    expected[1 * 2 + 1, 1] = 1.0
    assert q.max_abs(iso - expected) < 1e-12


def test_dephasing_unitary_kills_off_diagonals(plus_state):
    dec = q.canonical_decompose(dephasing_map())
    du = q.build_dilation_unitary(dec)
    assert du.u.shape == (4, 4)
    assert q.max_abs(q.dagger(du.u) @ du.u - np.eye(4)) < 1e-10
    _, reduced = q.simulate_via_dilation(du, plus_state)
    assert q.max_abs(reduced - np.diag([0.5, 0.5])) < 1e-10


def test_transpose_map_rejected_as_not_completely_positive():
    swap = np.zeros((4, 4))
    for r in range(2):
        for rp in range(2):
            swap[r * 2 + rp, rp * 2 + r] = 1.0
    dec = q.canonical_decompose(q.DynamicalMap(swap))
    with pytest.raises(q.NotCompletelyPositive):
        q.build_dilation_isometry(dec)


def test_non_trace_preserving_map_rejected():
    dec = q.canonical_decompose(q.map_from_kraus([(1.0, P0)], 2))
    with pytest.raises(q.NotTracePreserving):
        q.build_dilation_isometry(dec)


def test_isometry_columns_are_orthonormal_for_random_channels():
    for seed, (dim, rank) in enumerate([(2, 3), (3, 4), (4, 7), (3, 9)]):
        dec = q.canonical_decompose(q.random_cptp(dim, rank, 4000 + seed))
        iso = q.build_dilation_isometry(dec)
        assert q.max_abs(q.dagger(iso) @ iso - np.eye(dim)) < 1e-9


def test_unitary_first_slot_columns_match_isometry():
    dec = q.canonical_decompose(q.random_cptp(3, 5, 51))
    iso = q.build_dilation_isometry(dec)
    du = q.build_dilation_unitary(dec)
    for rp in range(3):
        col = du.u[:, rp * du.anc_dim + 0]
        assert q.max_abs(col - iso[:, rp]) < 1e-12


def test_amplitude_damping_reduced_state_matches_direct_route(excited_state):
    dmap = amplitude_damping_map()
    du = q.build_dilation_unitary(q.canonical_decompose(dmap))
    _, reduced = q.simulate_via_dilation(du, excited_state)
    assert q.max_abs(reduced - np.diag([0.5, 0.5])) < 1e-10
    assert q.max_abs(reduced - q.apply_map(dmap, excited_state)) < 1e-10


def test_dilation_reproduces_random_channels():
    worst = 0.0
    for case in range(12):
        dim = 2 + case % 3
        rank = 1 + case % (dim * dim)
        dmap = q.random_cptp(dim, rank, 5000 + case)
        du = q.build_dilation_unitary(q.canonical_decompose(dmap))
        assert du.anc_dim <= dim * dim
        for t in range(3):
            rho = q.random_density(dim, 6000 + 10 * case + t)
            _, reduced = q.simulate_via_dilation(du, rho)
            worst = max(worst, q.max_abs(reduced - q.apply_map(dmap, rho)))
    assert worst < 1e-9


def test_joint_state_purity_is_preserved():
    dmap = q.random_cptp(3, 6, 52)
    du = q.build_dilation_unitary(q.canonical_decompose(dmap))
    rho = q.random_density(3, 53)
    joint, _ = q.simulate_via_dilation(du, rho)
    anc0 = np.zeros((du.anc_dim, du.anc_dim), dtype=complex)
    anc0[0, 0] = 1.0
    initial = np.kron(rho.mat, anc0)
    assert abs(np.trace(joint @ joint) - np.trace(initial @ initial)) < 1e-9
    assert abs(np.trace(joint) - 1.0) < 1e-10


def test_completion_choice_does_not_affect_reduced_state():
    for case in range(6):
        dim = 2 + case % 2
        rank = 2 + case % (dim * dim - 1)
        dmap = q.random_cptp(dim, rank, 7000 + case)
        dec = q.canonical_decompose(dmap)
        du = q.build_dilation_unitary(dec)
        other = another_completion(du, 8000 + case)
        # With more than one term the isometry is rectangular, so the two
        # unitaries genuinely differ in their free columns.
        assert q.max_abs(du.u - other) > 1e-6
        rho = q.random_density(dim, 9000 + case)
        red_det, red_rnd = (
            q.partial_trace_ancilla(joint_state_through(u, rho, du.anc_dim), du.anc_dim)
            for u in (du.u, other)
        )
        assert q.max_abs(red_det - red_rnd) < 1e-10


@pytest.mark.parametrize("random_completion", [False, True])
def test_simulate_matches_full_unitary_evolution(random_completion):
    for case in range(8):
        dim = 2 + case % 3
        rank = 1 + (5 * case) % (dim * dim)
        dec = q.canonical_decompose(q.random_cptp(dim, rank, 10_000 + case))
        du = q.build_dilation_unitary(dec)
        u = another_completion(du, 11_000 + case) if random_completion else du.u
        rho = q.random_density(dim, 12_000 + case)
        joint, reduced = q.simulate_via_dilation(du, rho)
        ref = joint_state_through(u, rho, du.anc_dim)
        assert q.max_abs(joint - ref) <= 1e-12
        assert q.max_abs(reduced - q.partial_trace_ancilla(ref, du.anc_dim)) <= 1e-12


@st.composite
def split_instruments(draw):
    dim = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim * dim))
    mu = draw(st.integers(1, min(3, rank)))
    return make_split_instrument(dim, mu, draw(st.integers(0, 2**32 - 1)), rank=rank)


@settings(max_examples=60, deadline=None)
@given(
    inst=split_instruments(),
    seed=st.integers(0, 2**32 - 1),
    random_completion=st.booleans(),
)
def test_sector_states_match_full_unitary_sectors(inst, seed, random_completion):
    dil = q.build_instrument_dilation(inst)
    u = another_completion(dil, seed) if random_completion else dil.u
    rho = q.random_density(inst.dim, seed)
    joint = joint_state_through(u, rho, dil.anc_dim)
    j4 = joint.reshape(inst.dim, dil.anc_dim, inst.dim, dil.anc_dim)
    states = sector_states(dil, rho)
    assert len(states) == len(dil.sectors)
    for sector, state in zip(dil.sectors, states):
        window = slice(sector.start, sector.stop)
        assert q.max_abs(state - np.einsum("rasa->rs", j4[:, window, :, window])) <= 1e-12
    reduced = q.partial_trace_ancilla(joint, dil.anc_dim)
    assert q.max_abs(sum(states) - reduced) <= 1e-12


def einsum_sector_states(dil, rho):
    """The sector-by-sector einsum readout, the reference for the GEMM kernel."""
    v3 = dil.isometry.reshape(dil.sys_dim, dil.anc_dim, dil.sys_dim)
    states = []
    for sector in dil.sectors:
        block = v3[:, sector.start : sector.stop, :]
        x = np.einsum("rap,pq->raq", block, rho.mat)
        states.append(np.einsum("raq,saq->rs", x, block.conj()))
    return np.array(states)


@pytest.mark.parametrize("dim, mu", [(1, 1), (2, 3), (4, 4), (8, 2), (12, 3), (16, 1)])
def test_gemm_sector_states_equal_the_einsum_readout(dim, mu):
    inst = make_split_instrument(dim, mu, 19_000 + dim, rank=dim * dim)
    # An outcome that never occurs owns an empty sector.
    never = ("never", q.DynamicalMap(np.zeros((dim * dim, dim * dim))))
    inst = q.Instrument(dim=dim, maps=inst.maps[:1] + (never,) + inst.maps[1:])
    dil = q.build_instrument_dilation(inst)
    rho = q.random_density(dim, 19_100 + dim)
    states = sector_states(dil, rho)
    assert states.shape == (mu + 1, dim, dim)
    assert not states[1].any()
    # Tolerance fixed from the dtype: a few eps, for states of unit trace.
    assert q.max_abs(states - einsum_sector_states(dil, rho)) <= 16 * np.finfo(float).eps


def joint_route_max_error(dmap, trials, seed):
    """verify_dilation's figure through the D x D joint state and a partial trace."""
    du = q.build_dilation_unitary(q.canonical_decompose(dmap))
    worst = 0.0
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rho = q.random_density(dmap.dim, np.random.default_rng(stream))
        _, reduced = q.simulate_via_dilation(du, rho)
        worst = max(worst, q.max_abs(reduced - q.apply_map(dmap, rho)))
    return worst


def test_verify_dilation_agrees_with_joint_state_route():
    for case in range(8):
        dim = 2 + case % 4
        rank = 1 + (7 * case) % (dim * dim)
        dmap = q.random_cptp(dim, rank, 18_000 + case)
        report = q.verify_dilation(dmap, trials=5, seed=case)
        assert abs(report.max_error - joint_route_max_error(dmap, 5, case)) <= 1e-12


def negative_noise_map(weight):
    """A rank-2 CPTP qubit map plus one HS-orthogonal term of the given weight."""
    dmap = q.random_cptp(2, 2, 13_000)
    vals, vecs = q.hermitian_eig(dmap.bmat)
    assert abs(vals[-1]) < 1e-14
    extra = vecs[:, -1].reshape(2, 2)
    dec = q.canonical_decompose(dmap)
    terms = [*zip(dec.weights, dec.ops), (weight, extra)]
    return q.map_from_kraus(terms, 2)


def test_cp_verdicts_agree_on_noise_level_negative_weight():
    dmap = negative_noise_map(-5e-11)
    assert q.check_properties(dmap).completely_positive
    assert q.build_dilation_unitary(q.canonical_decompose(dmap)).anc_dim == 3
    inst = q.Instrument(dim=2, maps=(("all", dmap),))
    assert q.build_instrument_dilation(inst).anc_dim == 3


def test_cp_verdicts_agree_on_negative_weight_beyond_noise():
    dmap = negative_noise_map(-5e-9)
    assert not q.check_properties(dmap).completely_positive
    with pytest.raises(q.NotCompletelyPositive):
        q.build_dilation_unitary(q.canonical_decompose(dmap))
    with pytest.raises(q.NotCompletelyPositive):
        q.Instrument(dim=2, maps=(("all", dmap),))


def test_simulate_rejects_wrong_state_dimension():
    du = q.build_dilation_unitary(identity_decomposition())
    with pytest.raises(q.DimensionMismatch):
        q.simulate_via_dilation(du, np.eye(3) / 3)


def test_verify_dilation_identity_channel_is_exact():
    dmap = q.map_from_kraus([(1.0, IDENTITY2)], 2)
    report = q.verify_dilation(dmap, trials=5, seed=3)
    assert report.trials == 5
    assert report.max_error <= 1e-12


def test_verify_dilation_deterministic_under_seed():
    dmap = q.random_cptp(3, 4, 54)
    a = q.verify_dilation(dmap, trials=4, seed=9)
    b = q.verify_dilation(dmap, trials=4, seed=9)
    assert a == b
    assert a.max_error <= 1e-9


def test_dilation_unitary_type_rejects_non_unitary():
    with pytest.raises(q.NotIsometry):
        q.Dilation(
            sys_dim=2, anc_dim=1, isometry=np.ones((2, 2)), sectors=(q.Sector("all", 0, 1),)
        )


def test_dilation_unitary_type_rejects_oversized_ancilla():
    with pytest.raises(q.ValidationError):
        q.Dilation(
            sys_dim=2, anc_dim=5, isometry=np.eye(10, 2), sectors=(q.Sector("all", 0, 5),)
        )


@pytest.mark.parametrize(
    "sectors",
    [
        ((0, 2), (3, 4)),  # gap
        ((0, 2), (1, 4)),  # overlap
        ((0, 3), (3, 2)),  # reversed range
        ((0, 2), (2, 3)),  # stops short of anc_dim
        ((0, 2), (2, 5)),  # runs past anc_dim
    ],
)
def test_dilation_type_rejects_sectors_that_do_not_partition_the_ancilla(sectors):
    with pytest.raises(q.ValidationError):
        q.Dilation(
            sys_dim=2,
            anc_dim=4,
            isometry=np.eye(8, 2),
            sectors=tuple(q.Sector(f"s{i}", a, b) for i, (a, b) in enumerate(sectors)),
        )


def test_dilation_type_bounds_ancilla_by_sector_count():
    # Two sectors allow at most 2 * 2^2 = 8 ancilla slots; three allow 12.
    two = (q.Sector("a", 0, 4), q.Sector("b", 4, 9))
    with pytest.raises(q.ValidationError):
        q.Dilation(sys_dim=2, anc_dim=9, isometry=np.eye(18, 2), sectors=two)
    three = (q.Sector("a", 0, 4), q.Sector("b", 4, 8), q.Sector("c", 8, 9))
    dil = q.Dilation(sys_dim=2, anc_dim=9, isometry=np.eye(18, 2), sectors=three)
    assert dil.unitarity_residual == 0.0


def test_dilation_type_rejects_empty_ancilla():
    with pytest.raises(q.DimensionMismatch):
        q.Dilation(sys_dim=2, anc_dim=0, isometry=np.zeros((0, 2)), sectors=())


def test_isometry_equals_the_term_by_term_stacking():
    # Reference: sqrt(w_a) L_a block by block, sector after sector.
    for case in range(6):
        inst = make_split_instrument(2 + case % 3, 1 + case % 3, 20_000 + case)
        decs = [q.canonical_decompose(dmap) for _, dmap in inst.maps]
        blocks = [
            math.sqrt(max(w, 0.0)) * op for dec in decs for w, op in zip(dec.weights, dec.ops)
        ]
        n = inst.dim
        ref = np.array(blocks).transpose(1, 0, 2).reshape(n * len(blocks), n)
        assert np.array_equal(q.build_instrument_dilation(inst).isometry, ref)
        if len(decs) == 1:
            assert np.array_equal(q.build_dilation_isometry(decs[0]), ref)


def test_dilation_type_rejects_nan_isometry():
    with pytest.raises(q.NotIsometry):
        q.Dilation(
            sys_dim=1, anc_dim=1, isometry=np.array([[np.nan]]), sectors=(q.Sector("a", 0, 1),)
        )


def test_unitary_read_refuses_a_nan_residual(monkeypatch):
    du = q.build_dilation_unitary(identity_decomposition())
    monkeypatch.setattr(qdilate.dilation, "_unitarity_residual", lambda u: float("nan"))
    with pytest.raises(q.NotIsometry):
        du.u


def test_not_trace_preserving_is_a_not_isometry():
    # max|V^dagger V - I| = 3 is above the trace bound: the physical reason
    # is raised, and callers that catch NotIsometry still catch it.
    with pytest.raises(q.NotTracePreserving) as caught:
        q.Dilation(
            sys_dim=2, anc_dim=1, isometry=2 * IDENTITY2, sectors=(q.Sector("all", 0, 1),)
        )
    assert isinstance(caught.value, q.NotIsometry)


def test_zero_map_is_not_trace_preserving():
    dec = q.canonical_decompose(q.map_from_kraus([(0.0, IDENTITY2)], 2))
    assert dec.rank == 0
    with pytest.raises(q.NotTracePreserving):
        q.build_dilation_isometry(dec)
    with pytest.raises(q.NotTracePreserving):
        q.build_dilation_unitary(dec)


def test_isometry_is_checked_once_per_build(monkeypatch):
    calls = []

    def counting(iso):
        calls.append(iso.shape)
        return defect(iso)

    defect = qdilate.dilation._isometry_defect
    monkeypatch.setattr(qdilate.dilation, "_isometry_defect", counting)
    dec = q.canonical_decompose(q.random_cptp(3, 5, 67))
    q.build_dilation_unitary(dec)
    assert calls == [(15, 3)]
    inst = make_split_instrument(3, 2, 69, rank=6)
    q.build_instrument_dilation(inst)
    assert calls == [(15, 3), (18, 3)]


def test_dilation_owns_a_read_only_isometry():
    dec = q.canonical_decompose(q.random_cptp(2, 3, 68))
    iso = q.build_dilation_isometry(dec).copy()
    sectors = [q.Sector("channel", 0, 3)]
    dil = q.Dilation(sys_dim=2, anc_dim=3, isometry=iso, sectors=sectors)
    iso *= 3
    assert not dil.isometry.flags.writeable
    assert not np.shares_memory(dil.isometry, iso)
    reduced = q.simulate_via_dilation(dil, np.eye(2) / 2).reduced
    assert abs(np.trace(reduced) - 1.0) <= 1e-12
    # A read-only array is copied too: its owner can make it writeable again.
    iso /= 3
    iso.flags.writeable = False
    dil = q.Dilation(sys_dim=2, anc_dim=3, isometry=iso, sectors=sectors)
    assert not np.shares_memory(dil.isometry, iso)


def test_builds_hand_their_isometry_over_without_a_copy(monkeypatch):
    adopted = []
    owned = qdilate.dilation._owned

    def recording(m, given):
        out = owned(m, given)
        adopted.append(out is m)
        return out

    monkeypatch.setattr(qdilate.dilation, "_owned", recording)
    du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(3, 5, 69)))
    dil = q.build_instrument_dilation(make_split_instrument(3, 2, 70, rank=6))
    assert adopted == [True, True]
    assert not du.isometry.flags.writeable and not dil.isometry.flags.writeable


def test_channel_dilation_is_one_sector_with_stored_residual():
    du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(3, 5, 55)))
    assert [(s.start, s.stop) for s in du.sectors] == [(0, 5)]
    u = du.u
    assert du.unitarity_residual == q.max_abs(q.dagger(u) @ u - np.eye(15))
    assert du.unitarity_residual <= 1e-10


def test_dilation_type_rejects_isometry_off_by_less_than_the_trace_tolerance():
    # V^dagger V = (1 + 1e-9)^2 I: off the identity by 2e-9, above DEFAULT_TOL,
    # the one bound at which the Dilation validator calls a map trace-preserving.
    dec = q.canonical_decompose(q.random_cptp(3, 4, 56))
    iso = q.build_dilation_isometry(dec) * (1 + 1e-9)
    with pytest.raises(q.NotTracePreserving):
        q.Dilation(sys_dim=3, anc_dim=4, isometry=iso, sectors=[q.Sector("channel", 0, 4)])


@pytest.mark.parametrize("dim, rank", [(1, 1), (2, 1), (3, 3), (5, 5), (7, 7), (6, 36)])
def test_unitarity_residual_equals_the_full_gram_product(dim, rank):
    # D = 9, 25 and 49 leave a remainder when U^dagger U is cut into bands.
    du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(dim, rank, 57 + dim)))
    u = du.u
    assert du.unitarity_residual == q.max_abs(q.dagger(u) @ u - np.eye(len(u)))


class CompletionRan(Exception):
    pass


def test_builds_and_readouts_never_complete_the_unitary(monkeypatch):
    def refuse(*args, **kwargs):
        raise CompletionRan

    monkeypatch.setattr(qdilate.dilation, "complete_to_unitary", refuse)
    dmap = q.random_cptp(3, 5, 58)
    rho = q.random_density(3, 59)
    du = q.build_dilation_unitary(q.canonical_decompose(dmap))
    q.simulate_via_dilation(du, rho)
    assert q.verify_dilation(dmap, trials=3, seed=61).max_error <= 1e-9
    dil = q.build_instrument_dilation(make_split_instrument(3, 2, 62))
    q.measure_via_dilation(dil, rho)
    q.sample_outcomes(dil, rho, shots=100, seed=63)
    for lazy in (du, dil):
        with pytest.raises(CompletionRan):
            lazy.u
        with pytest.raises(CompletionRan):
            lazy.unitarity_residual


def test_unitary_is_the_completion_of_the_isometry_in_slot_order():
    for dil in (
        q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(3, 7, 65))),
        q.build_instrument_dilation(make_split_instrument(2, 2, 66)),
    ):
        n, anc = dil.sys_dim, dil.anc_dim
        # complete_to_unitary's column order: (r', 0) for every r', then
        # (r', a != 0) with r' slow.
        order = [r * anc for r in range(n)]
        order += [r * anc + a for r in range(n) for a in range(1, anc)]
        assert np.array_equal(dil.u[:, order], complete_to_unitary(dil.isometry))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_building_and_reading_the_unitary_holds_under_three_copies():
    n = 6
    dec = q.canonical_decompose(q.random_cptp(n, n * n, 67))
    peak = traced_peak(lambda: q.build_dilation_unitary(dec).u)
    assert peak <= 2.6 * 16 * (n**3) ** 2


def test_verify_dilation_memory_does_not_grow_with_trials():
    dmap = q.random_cptp(2, 4, 69)
    assert traced_peak(lambda: q.verify_dilation(dmap, trials=2000, seed=70)) < 0.25 * 2**20


def test_reduced_evolution_never_forms_the_joint_state():
    n = 12
    du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(n, n * n, 71)))
    rho = q.random_density(n, 72)
    size = n * du.anc_dim
    assert size == 1728
    # The joint state alone takes 16 D^2 bytes; X = V rho and conj(V) take 32 D N.
    joint_bytes = 16 * size**2
    for read in (lambda: q.simulate_via_dilation(du, rho).reduced,
                 lambda: q.simulate_via_dilation(du, rho)[1]):
        assert traced_peak(read) < joint_bytes / 16


def test_joint_state_is_formed_once_on_read():
    dec = q.canonical_decompose(q.random_cptp(3, 7, 73))
    du = q.build_dilation_unitary(dec)
    rho = q.random_density(3, 74)
    ev = q.simulate_via_dilation(du, rho)
    assert isinstance(ev, q.Evolution) and len(ev) == 2
    assert ev[1] is ev[-1] is ev.reduced
    assert "joint" not in vars(ev)
    joint = ev[0]
    assert joint is ev.joint is ev[-2]
    unpacked_joint, unpacked_reduced = ev
    assert unpacked_joint is joint and unpacked_reduced is ev.reduced
    v = du.isometry
    assert np.array_equal(joint, v @ rho.mat @ q.dagger(v))
    with pytest.raises(IndexError):
        ev[2]


def test_joint_state_ignores_later_writes_to_the_input_state():
    du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(3, 5, 75)))
    rho = q.random_density(3, 76).mat.copy()
    v = du.isometry
    expected = v @ rho @ q.dagger(v)
    ev = q.simulate_via_dilation(du, rho)
    rho[:] = 0.0
    assert np.array_equal(ev.joint, expected)


def test_channel_reduced_state_is_its_one_sector_state():
    for dim, rank in [(1, 1), (2, 3), (4, 16), (6, 20)]:
        du = q.build_dilation_unitary(q.canonical_decompose(q.random_cptp(dim, rank, 77 + dim)))
        rho = q.random_density(dim, 78 + dim)
        assert np.array_equal(q.simulate_via_dilation(du, rho).reduced, sector_states(du, rho)[0])


def test_padded_instrument_reduced_state_sums_its_outcomes():
    inst = make_split_instrument(4, 3, 79, rank=16)
    padded = q.pad_to_complete(q.Instrument(dim=4, maps=inst.maps[:2]))
    dil = q.build_instrument_dilation(padded)
    assert len(dil.sectors) == 3
    rho = q.random_density(4, 80)
    ev = q.simulate_via_dilation(dil, rho)
    raws = sum(o.raw_unnormalized for o in q.measure_via_dilation(dil, rho))
    assert q.max_abs(ev.reduced - raws) <= 1e-15
    assert q.max_abs(ev.reduced - q.partial_trace_ancilla(ev.joint, dil.anc_dim)) <= 1e-12


@st.composite
def evolution_cases(draw):
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim * dim))
    mu = draw(st.integers(1, min(3, rank)))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_split_instrument(dim, mu, seed, rank=rank), seed


@settings(max_examples=60, deadline=None)
@given(case=evolution_cases())
def test_evolution_matches_the_summed_map_and_the_full_unitary(case):
    inst, seed = case
    if len(inst.maps) == 1:
        dil = q.build_dilation_unitary(q.canonical_decompose(inst.maps[0][1]))
    else:
        dil = q.build_instrument_dilation(inst)
    summed = q.DynamicalMap(sum(dmap.bmat for _, dmap in inst.maps))
    rho = q.random_density(inst.dim, seed)
    ev = q.simulate_via_dilation(dil, rho)
    assert q.max_abs(ev.reduced - q.apply_map(summed, rho)) <= 1e-12
    assert q.max_abs(ev[0] - joint_state_through(dil.u, rho, dil.anc_dim)) <= 1e-12
