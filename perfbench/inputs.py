"""Seeded input generation for the qdilate benchmark, in plain numpy.

Nothing here calls into qdilate: a change to the package's own random helpers
(``random_cptp``, ``random_density``) cannot change a workload. Every
workload has a fixed *size mix* (a cycle of job shapes that repeats in the same
order for every seed); the seed only draws the matrices, states and seeds
that fill those shapes. So two seeds give different inputs
with the same mix, and one seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Job shapes of `dilation_build`. Kinds: "channel" (N, rank), "split" (a
# rank-r channel cut into K outcomes), "padded" (a split channel with its last
# outcome dropped, completed by pad_to_complete). Full rank is over-represented;
# N=7-8 full rank are the deliberate tail. The N=4 full-rank jobs sit at the
# middle of the cost range, so the median job is one of them and not a lone
# job that noise could swap with its neighbours.
_DILATION_BUILD_BASE = (
    ("channel", 3, 1, 1), ("channel", 3, 9, 1), ("split", 3, 9, 3),
    ("channel", 4, 4, 1), ("channel", 4, 16, 1), ("padded", 4, 8, 2),
    ("channel", 5, 25, 1), ("split", 5, 25, 5), ("channel", 3, 5, 1),
    ("channel", 4, 16, 1), ("channel", 6, 36, 1), ("channel", 4, 1, 1),
    ("split", 4, 16, 4), ("channel", 8, 8, 1), ("padded", 3, 6, 3),
    ("channel", 4, 16, 1), ("channel", 5, 12, 1), ("channel", 7, 49, 1),
    ("channel", 3, 9, 1), ("channel", 5, 2, 1), ("channel", 4, 16, 1),
    ("padded", 5, 10, 2), ("channel", 6, 6, 1), ("split", 6, 36, 3),
    ("channel", 4, 16, 1), ("channel", 5, 25, 1), ("channel", 7, 7, 1),
    ("channel", 3, 3, 1), ("padded", 6, 12, 3), ("channel", 4, 16, 1),
    ("channel", 4, 8, 1), ("split", 7, 14, 2), ("channel", 6, 1, 1),
    ("channel", 8, 32, 1), ("channel", 4, 16, 1), ("channel", 5, 5, 1),
    ("padded", 7, 14, 2), ("channel", 6, 36, 1), ("split", 8, 16, 4),
    ("channel", 4, 16, 1), ("channel", 6, 18, 1), ("channel", 7, 24, 1),
)
# One cycle is the base twice, with N=8 at full rank (D=512, seconds per job
# with the current completion code) in the first half only, so that single
# job does not hold most of a run's time.
DILATION_BUILD_CYCLE = _DILATION_BUILD_BASE + (("channel", 8, 64, 1),) + _DILATION_BUILD_BASE

# Dilations `instrument_readout` builds once during set-up.
# Kinds: "projective" (K = N rank-1 projectors), "split", "padded", "channel".
READOUT_POOL = (
    ("projective", 2, 1, 2),
    ("projective", 4, 1, 4),
    ("projective", 8, 1, 8),
    ("split", 3, 9, 3),
    ("split", 5, 25, 5),
    ("split", 8, 32, 4),
    ("padded", 4, 8, 2),
    ("padded", 6, 18, 3),
    ("channel", 4, 16, 1),
    ("channel", 6, 36, 1),
    ("channel", 8, 64, 1),
)

# One cycle of `instrument_readout` jobs, as indices into READOUT_POOL.
# The N=8, D=512 channel runs once per cycle.
READOUT_CYCLE = (0, 3, 8, 1, 6, 4, 9, 2, 7, 5, 10, 3, 1, 8, 6, 0, 4, 2, 9, 7, 5, 3)

# Shots per sample call: a log-uniform grid from 1e2 to 1e6, used in this
# order. Fixed, so every seed samples the same number of shots in total.
SHOTS = tuple(round(10 ** (2 + 0.5 * s)) for s in (0, 5, 2, 7, 4, 1, 8, 3, 6))

# Every dimension a `cli_reports` spec file is written for.
CLI_DIMS = (2, 3, 4, 5, 6)

# One cycle of `cli_reports` jobs: (subcommand, variant, N). File names and
# flags are filled in by `cli_jobs`. Weighted toward dilate and verify; the
# two `*_error` variants are expected error paths.
CLI_CYCLE = (
    ("dilate", "channel_kraus", 2), ("verify", "channel_dm", 3),
    ("check", "channel_kraus", 4), ("dilate", "channel_dm", 3),
    ("sample", "inst_kraus", 3), ("verify", "channel_kraus", 4),
    ("dilate", "inst_dm", 4), ("decompose", "channel_dm", 5),
    ("dilate", "channel_kraus", 4), ("measure", "inst_kraus", 5),
    ("verify", "channel_dm", 5), ("pad", "inst_incomplete", 3),
    ("dilate", "channel_dm", 5), ("random", "random", 4),
    ("verify", "channel_kraus", 2), ("dilate", "inst_error", 4),
    ("dilate", "channel_kraus", 6), ("check", "inst_dm", 5),
    ("measure", "inst_dm", 3), ("verify", "channel_dm", 6),
    ("dilate", "inst_kraus", 5), ("decompose", "channel_kraus", 3),
    ("dilate", "channel_kraus", 3), ("sample", "inst_dm", 6),
    ("verify", "channel_kraus", 5), ("check", "noncp", 3),
    ("dilate", "channel_dm", 2), ("measure", "inst_incomplete_direct", 4),
    ("verify", "channel_dm", 4), ("dilate", "noncp_error", 3),
    ("dilate", "channel_kraus", 5), ("decompose", "channel_dm", 6),
    ("dilate", "inst_kraus", 3), ("sample", "inst_kraus", 5),
    ("verify", "channel_kraus", 3), ("pad", "inst_incomplete", 5),
    ("dilate", "channel_dm", 6), ("random", "random", 3),
    ("measure", "inst_dm", 6), ("dilate", "inst_dm", 6),
    ("verify", "channel_dm", 2),
)

# Trials per `verify` job, by N.
VERIFY_TRIALS = {2: 20, 3: 16, 4: 12, 5: 8, 6: 6}


def _period(cycle_len: int, sample_jobs: int) -> int:
    """Jobs after which a stream's shapes and its shot grid start over together."""
    return cycle_len * len(SHOTS) // math.gcd(sample_jobs, len(SHOTS))


# Jobs after which `instrument_readout` and `cli_reports` repeat their whole
# mix, shot counts included: 9 shape cycles and 3 shape cycles.
READOUT_PERIOD = _period(len(READOUT_CYCLE),
                         sum(READOUT_POOL[i][0] != "channel" for i in READOUT_CYCLE))
CLI_PERIOD = _period(len(CLI_CYCLE), sum(sub == "sample" for sub, _, _ in CLI_CYCLE))


def workload_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (seed, purpose)."""
    words = [int(seed)] + [ord(c) for c in tag]
    return np.random.default_rng(np.random.SeedSequence(words))


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns, Haar distributed."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_kraus(rng, n: int, rank: int) -> list:
    """`rank` operators K_j with sum K_j^dagger K_j = I, cut from one isometry."""
    iso = haar_isometry(rng, n * rank, n)
    return [iso[j * n : (j + 1) * n, :].copy() for j in range(rank)]


def projective_kraus(rng, n: int) -> list:
    """Rank-1 projectors onto a Haar-random orthonormal basis."""
    v = haar_isometry(rng, n, n)
    return [np.outer(v[:, i], v[:, i].conj()) for i in range(n)]


def random_state(rng, n: int) -> np.ndarray:
    """Full-rank density matrix from the Hilbert-Schmidt measure."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = x @ x.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def split_groups(ops: list, k: int) -> list:
    """Cut a list of operators into k contiguous, near-equal groups."""
    bounds = np.linspace(0, len(ops), k + 1).round().astype(int)
    return [ops[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def dynamical_matrix(ops: list) -> np.ndarray:
    """B = sum_j vec(K_j) vec(K_j)^dagger with row-major vec."""
    m = np.stack([k.reshape(-1) for k in ops], axis=1)
    return m @ m.conj().T


def kraus_apply(ops: list, rho: np.ndarray) -> np.ndarray:
    """Reference route: sum_j K_j rho K_j^dagger."""
    return sum(k @ rho @ k.conj().T for k in ops)


def outcome_groups(rng, kind: str, n: int, rank: int, k: int) -> list:
    """Kraus groups, one per outcome, for a job or pool shape.

    A "channel" is one group; "padded" drops the last group of a split, so the
    set is incomplete and its defect is what padding must supply.
    """
    if kind == "projective":
        return [[p] for p in projective_kraus(rng, n)]
    groups = split_groups(random_kraus(rng, n, rank), k)
    return groups[:-1] if kind == "padded" else groups


def anc_dim(kind: str, n: int, rank: int, k: int) -> int:
    """Ancilla dimension of this shape's dilation (padding adds at most N)."""
    if kind == "projective":
        return n
    if kind == "padded":
        return rank - len(split_groups(list(range(rank)), k)[-1]) + n
    return rank


def dilation_build_jobs(seed: int):
    """Endless job stream for `dilation_build`: shapes cycle, content is fresh."""
    rng = workload_rng(seed, "dilation_build")
    for kind, n, rank, k in itertools.cycle(DILATION_BUILD_CYCLE):
        yield {
            "kind": kind,
            "n": n,
            "groups": outcome_groups(rng, kind, n, rank, k),
            "states": [random_state(rng, n) for _ in range(2)],
        }


def readout_pool(seed: int) -> list:
    """Kraus groups of every dilation `instrument_readout` builds in set-up."""
    rng = workload_rng(seed, "readout_pool")
    return [
        {"kind": kind, "n": n, "groups": outcome_groups(rng, kind, n, rank, k)}
        for kind, n, rank, k in READOUT_POOL
    ]


def readout_jobs(seed: int):
    """Endless job stream for `instrument_readout`: one fresh state per job."""
    rng = workload_rng(seed, "readout_jobs")
    sample_calls = 0
    for idx in itertools.cycle(READOUT_CYCLE):
        kind, n, _, _ = READOUT_POOL[idx]
        job = {"pool": idx, "n": n, "state": random_state(rng, n)}
        if kind != "channel":
            job["shots"] = SHOTS[sample_calls % len(SHOTS)]
            job["sample_seed"] = int(rng.integers(2**31))
            sample_calls += 1
        yield job


def _kraus_doc(ops: list) -> list:
    return [{"weight": 1.0, "matrix": encode(k)} for k in ops]


def encode(m: np.ndarray) -> list:
    """[re, im] nested lists, the spec-file matrix encoding."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _payload(ops: list, form: str) -> dict:
    if form == "kraus":
        return {"representation": "kraus", "data": _kraus_doc(ops)}
    return {"representation": "dynamical_matrix", "data": encode(dynamical_matrix(ops))}


def _channel_doc(ops: list, form: str, n: int) -> dict:
    return {"format_version": "1", "dim": n, **_payload(ops, form)}


def _instrument_doc(groups: list, form: str, n: int) -> dict:
    outcomes = [{"label": f"o{i}", **_payload(g, form)} for i, g in enumerate(groups)]
    return {"format_version": "1", "dim": n, "outcomes": outcomes}


def cli_specs(seed: int) -> dict:
    """Spec documents for `cli_reports`, keyed by file stem.

    Per N: a full-rank channel in each form, a complete instrument in each
    form, an incomplete instrument, a non-CP map (a rotated transpose, which is
    trace preserving but not completely positive) and a state. The Kraus ops
    are kept alongside so the benchmark can check reports against them.
    """
    rng = workload_rng(seed, "cli_specs")
    specs = {}
    for n in CLI_DIMS:
        ch_k = random_kraus(rng, n, n * n)
        ch_d = random_kraus(rng, n, n * n)
        inst_k = split_groups(random_kraus(rng, n, n * n), 3)
        inst_d = split_groups(random_kraus(rng, n, 2 * n), 2)
        incomplete = split_groups(random_kraus(rng, n, 2 * n), 3)[:-1]
        v = haar_isometry(rng, n, n)
        swap = np.zeros((n * n, n * n), dtype=complex)
        for r in range(n):
            for s in range(n):
                swap[r * n + s, s * n + r] = 1.0
        vv = np.kron(v, v.conj())
        specs[f"channel_kraus_N{n}"] = (_channel_doc(ch_k, "kraus", n), [ch_k])
        specs[f"channel_dm_N{n}"] = (_channel_doc(ch_d, "dynamical_matrix", n), [ch_d])
        specs[f"inst_kraus_N{n}"] = (_instrument_doc(inst_k, "kraus", n), inst_k)
        specs[f"inst_dm_N{n}"] = (_instrument_doc(inst_d, "dynamical_matrix", n), inst_d)
        specs[f"inst_incomplete_N{n}"] = (_instrument_doc(incomplete, "kraus", n), incomplete)
        noncp = {
            "format_version": "1",
            "dim": n,
            "representation": "dynamical_matrix",
            "data": encode(vv @ swap @ vv.conj().T),
        }
        specs[f"noncp_N{n}"] = (noncp, None)
        rho = random_state(rng, n)
        specs[f"state_N{n}"] = ({"format_version": "1", "dim": n, "matrix": encode(rho)}, rho)
    return specs


def cli_jobs(seed: int):
    """Endless job stream for `cli_reports`: argv pieces plus the expectation.

    Paths are file stems; the benchmark maps them to files it wrote in set-up.
    """
    rng = workload_rng(seed, "cli_jobs")
    sample_calls = 0
    for sub, variant, n in itertools.cycle(CLI_CYCLE):
        job = {"sub": sub, "variant": variant, "n": n, "expect_error": None}
        if variant.startswith("channel"):
            job["channel"] = f"{variant}_N{n}"
        elif variant == "noncp":
            job["channel"] = f"noncp_N{n}"
        elif variant == "noncp_error":
            job["channel"] = f"noncp_N{n}"
            job["expect_error"] = "NotCompletelyPositive"
        elif variant == "inst_error":
            job["instrument"] = f"inst_incomplete_N{n}"
            job["expect_error"] = "Incomplete"
        elif variant == "inst_incomplete_direct":
            job["instrument"] = f"inst_incomplete_N{n}"
        elif variant.startswith("inst"):
            job["instrument"] = f"{variant}_N{n}"
        if sub in ("measure", "sample"):
            job["state"] = f"state_N{n}"
        if sub == "verify":
            job["trials"] = VERIFY_TRIALS[n]
        if sub in ("verify", "sample", "random"):
            job["seed"] = int(rng.integers(2**31))
        if sub == "sample":
            job["shots"] = SHOTS[sample_calls % len(SHOTS)]
            sample_calls += 1
        if sub == "random":
            job["rank"] = n * n
        yield job
