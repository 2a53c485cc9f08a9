"""Acceptance gate: nine criteria, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the test results.
"""

import numpy as np
import pytest

import qdilate as q
from qdilate.dilation import sector_states

from conftest import (
    P1,
    another_completion,
    channel_path,
    instrument_path,
    joint_state_through,
    make_projective_instrument,
    make_split_instrument,
    state_path,
)


def report_line(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def channel_corpus():
    """200 seeded CPTP maps over dims 2..4 and every Kraus rank, with dilations."""
    combos = [(dim, rank) for dim in (2, 3, 4) for rank in range(1, dim * dim + 1)]
    cases = []
    for i in range(200):
        dim, rank = combos[i % len(combos)]
        dmap = q.random_cptp(dim, rank, 20_000 + i)
        dec = q.canonical_decompose(dmap)
        du = q.build_dilation_unitary(dec)
        worst = 0.0
        for t in range(10):
            rho = q.random_density(dim, np.random.default_rng((20_000 + i, t)))
            (reduced,) = sector_states(du, rho)
            worst = max(worst, q.max_abs(reduced - q.apply_map(dmap, rho)))
        cases.append({"dim": dim, "dmap": dmap, "dec": dec, "du": du, "max_error": worst})
    return cases


@pytest.fixture(scope="module")
def instrument_corpus():
    """100 seeded complete instruments (2 to 4 outcomes, dims 2 and 3)."""
    cases = []
    mus = (2, 3, 4)
    dims = (2, 3)
    for i in range(100):
        mu = mus[i % 3]
        dim = dims[(i // 3) % 2]
        if i % 4 == 3 and mu <= dim:
            inst = make_projective_instrument(dim, mu, 30_000 + i)
        else:
            inst = make_split_instrument(dim, mu, 30_000 + i)
        dil = q.build_instrument_dilation(inst)
        states = [
            q.random_density(dim, np.random.default_rng((30_000 + i, t)))
            for t in range(5)
        ]
        cases.append({"dim": dim, "mu": mu, "inst": inst, "dil": dil, "states": states})
    return cases


def test_criterion_1_dilation_matches_direct_application(channel_corpus):
    worst = max(case["max_error"] for case in channel_corpus)
    report_line(
        1,
        f"dilated evolution matches direct application on 200 random channels "
        f"(max err {worst:.3e} <= 1e-9)",
        worst <= 1e-9,
    )


def test_criterion_2_every_completion_is_unitary(channel_corpus, instrument_corpus):
    worst = 0.0
    for case in channel_corpus:
        u = case["du"].u
        worst = max(worst, q.max_abs(q.dagger(u) @ u - np.eye(u.shape[0])))
    for case in instrument_corpus:
        u = case["dil"].u
        worst = max(worst, q.max_abs(q.dagger(u) @ u - np.eye(u.shape[0])))
    report_line(
        2,
        f"every completed unitary has residual at most 1e-10 (worst {worst:.3e})",
        worst <= 1e-10,
    )


def test_criterion_3_ancilla_bounds(channel_corpus, instrument_corpus):
    violations = 0
    for case in channel_corpus:
        if case["du"].anc_dim > case["dim"] ** 2:
            violations += 1
    for case in instrument_corpus:
        if case["dil"].anc_dim > case["mu"] * case["dim"] ** 2:
            violations += 1
    report_line(
        3,
        f"ancilla dimension bounds hold on all 300 dilations ({violations} violations)",
        violations == 0,
    )


def test_criterion_4_instrument_statistics_match_direct_route(instrument_corpus):
    worst_p = 0.0
    worst_post = 0.0
    worst_total = 0.0
    for case in instrument_corpus:
        for rho in case["states"]:
            direct = q.outcome_statistics(case["inst"], rho)
            dilated = q.measure_via_dilation(case["dil"], rho)
            total = sum(o.probability for o in dilated)
            worst_total = max(worst_total, abs(total - 1.0))
            for a, b in zip(direct, dilated):
                worst_p = max(worst_p, abs(a.probability - b.probability))
                if a.probability > 1e-6:
                    worst_post = max(
                        worst_post, q.max_abs(a.post_state.mat - b.post_state.mat)
                    )
    ok = worst_p <= 1e-9 and worst_post <= 1e-8 and worst_total <= 1e-9
    report_line(
        4,
        "instrument dilation statistics match direct statistics on 100 random "
        f"instruments (|dp| {worst_p:.3e}, post {worst_post:.3e}, "
        f"sum defect {worst_total:.3e})",
        ok,
    )


def test_criterion_5_padding_completes_without_changing_statistics():
    inst = q.load_instrument(instrument_path("p0_projection.json"))
    padded = q.pad_to_complete(inst)
    defect_norm = q.max_abs(q.check_completeness(padded)[1])
    dec = q.canonical_decompose(padded.maps[padded.padded_index][1])
    kraus = np.sqrt(dec.weights[0]) * dec.ops[0]
    kraus_err = q.max_abs(kraus - P1)
    stats_equal = True
    for seed in range(3):
        rho = q.random_density(2, 40_000 + seed)
        original = q.outcome_statistics(inst, rho)
        kept = q.outcome_statistics(padded, rho)[: inst.num_outcomes]
        for a, b in zip(original, kept):
            if a.probability != b.probability or not np.array_equal(
                a.raw_unnormalized, b.raw_unnormalized
            ):
                stats_equal = False
    ok = defect_norm <= 1e-10 and kraus_err <= 1e-10 and stats_equal
    report_line(
        5,
        "padding completes the projection instrument with the complement "
        f"projector and identical retained statistics (defect {defect_norm:.3e}, "
        f"kraus err {kraus_err:.3e})",
        ok,
    )


def test_criterion_6_decomposition_round_trip_and_negative_weight(channel_corpus):
    worst = 0.0
    maps = [(case["dmap"], case["dec"]) for case in channel_corpus]
    for name in ("identity", "bit_flip", "dephasing", "amplitude_damping", "transpose"):
        dmap = q.load_channel(channel_path(f"{name}.json"))
        maps.append((dmap, q.canonical_decompose(dmap)))
    for dmap, dec in maps:
        rebuilt = q.map_from_kraus(zip(dec.weights, dec.ops), dmap.dim)
        worst = max(worst, q.max_abs(rebuilt.bmat - dmap.bmat))
    transpose_dec = maps[-1][1]
    negatives = transpose_dec.weights[transpose_dec.weights < 0]
    negative_ok = len(negatives) == 1 and abs(negatives[0] + 1.0) <= 1e-9
    rejected = False
    try:
        q.build_dilation_isometry(transpose_dec)
    except q.NotCompletelyPositive:
        rejected = True
    ok = worst <= 1e-9 and negative_ok and rejected
    report_line(
        6,
        f"decompositions reconstruct their maps (max err {worst:.3e}); the "
        "transpose map shows one weight of -1 and is rejected for dilation",
        ok,
    )


def test_criterion_7_completion_independence():
    worst = 0.0
    for i in range(20):
        dim = 2 + i % 3
        rank = 1 + i % (dim * dim)
        dec = q.canonical_decompose(q.random_cptp(dim, rank, 50_000 + i))
        du = q.build_dilation_unitary(dec)
        rho = q.random_density(dim, 52_000 + i)
        red_det, red_rnd = (
            q.partial_trace_ancilla(joint_state_through(u, rho, du.anc_dim), du.anc_dim)
            for u in (du.u, another_completion(du, 51_000 + i))
        )
        worst = max(worst, q.max_abs(red_det - red_rnd))
    report_line(
        7,
        "reduced dynamics through two different full unitaries agree on 20 "
        f"map/state pairs (max diff {worst:.3e} <= 1e-10)",
        worst <= 1e-10,
    )


def test_criterion_8_sampling_consistency():
    inst = q.load_instrument(instrument_path("computational_basis.json"))
    rho = q.load_state(state_path("plus.json"))
    dil = q.build_instrument_dilation(inst)
    shots = 100_000
    counts = q.sample_outcomes(dil, rho, shots=shots, seed=77)
    rerun = q.sample_outcomes(dil, rho, shots=shots, seed=77)
    bound = 4 * np.sqrt(0.5 * 0.5 * shots)
    within = all(abs(counts[label] - 0.5 * shots) <= bound for label in ("0", "1"))
    ok = within and counts == rerun and sum(counts.values()) == shots
    report_line(
        8,
        f"sampled histogram {counts} lies within the binomial bound and is "
        "bit-identical on rerun",
        ok,
    )


def test_criterion_9_hand_checkable_fixtures():
    damping = q.load_channel(channel_path("amplitude_damping.json"))
    excited = q.load_state(state_path("excited.json"))
    dephasing = q.load_channel(channel_path("dephasing.json"))
    plus = q.load_state(state_path("plus.json"))
    half = np.diag([0.5, 0.5])
    worst = 0.0
    for dmap, rho in ((damping, excited), (dephasing, plus)):
        direct = q.apply_map(dmap, rho)
        du = q.build_dilation_unitary(q.canonical_decompose(dmap))
        (reduced,) = sector_states(du, rho)
        worst = max(worst, q.max_abs(direct - half), q.max_abs(reduced - half))
    report_line(
        9,
        "damping and dephasing land on the half-mixed state via both routes "
        f"(max err {worst:.3e} <= 1e-10)",
        worst <= 1e-10,
    )
