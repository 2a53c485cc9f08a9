"""The three benchmark workloads: set-up, one job, and the job's correctness gate.

Each workload is a closed loop with one client: `run(job)` returns only when
the job is done, and the next job is sent after it. All library calls go
through attribute lookups on the package (``q.canonical_decompose(...)``), so
the traced run sees them. `check(job, out)` returns a list of failure
messages; an empty list means the job passed.
"""

from __future__ import annotations

import collections
import json
import math
from pathlib import Path

import numpy as np

import inputs

# Largest entrywise gap allowed between the dilation route, the direct route
# and the benchmark's own Kraus-sum reference, and for probability sums.
AGREE_TOL = 1e-9
# Largest unitarity residual or reconstruction error a report may state.
REPORT_TOL = 1e-9
# Width of the sampled-count band, in binomial standard deviations.
SAMPLE_SIGMAS = 7.0


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _kraus_terms(ops):
    return [(1.0, k) for k in ops]


def _build_instrument(q, n, groups, padded):
    maps = tuple((f"o{i}", q.map_from_kraus(_kraus_terms(g), n)) for i, g in enumerate(groups))
    inst = q.Instrument(dim=n, maps=maps)
    return q.pad_to_complete(inst) if padded else inst


def _check_outcomes(groups, rho, via, direct, fails):
    """Dilation readout against the direct route and the Kraus-sum reference."""
    if [o.label for o in via] != [o.label for o in direct]:
        fails.append("outcome labels differ between routes")
        return
    for o_via, o_dir in zip(via, direct):
        if abs(o_via.probability - o_dir.probability) > AGREE_TOL:
            fails.append(f"probability of {o_via.label} differs by "
                         f"{abs(o_via.probability - o_dir.probability):.3e}")
        if _max_abs(o_via.raw_unnormalized - o_dir.raw_unnormalized) > AGREE_TOL:
            fails.append(f"outcome {o_via.label} state differs between routes")
    for g, o_dir in zip(groups, direct):
        if _max_abs(o_dir.raw_unnormalized - inputs.kraus_apply(g, rho)) > AGREE_TOL:
            fails.append(f"direct outcome {o_dir.label} differs from the Kraus-sum reference")
    total = sum(o.probability for o in via)
    if abs(total - 1.0) > AGREE_TOL:
        fails.append(f"outcome probabilities sum to {total!r}")


def _check_sectors(n, sizes, fails):
    if any(s > n * n for s in sizes):
        fails.append(f"ancilla sector sizes {sizes} exceed N^2 = {n * n}")


def _check_counts(counts, probs, shots, fails):
    """Counts sum to shots and each lies in a wide binomial band."""
    if sum(counts.values()) != shots:
        fails.append(f"counts sum to {sum(counts.values())}, not {shots}")
    if list(counts) != list(probs):
        fails.append("sampled labels differ from the outcome labels")
        return
    for label, p in probs.items():
        p = min(max(p, 0.0), 1.0)
        band = SAMPLE_SIGMAS * math.sqrt(shots * p * (1 - p)) + 1.0
        if abs(counts[label] - shots * p) > band:
            fails.append(f"count {counts[label]} of {label} outside {shots * p:.1f} +- {band:.1f}")


def _check_channel(ops, rho, reduced, direct, fails):
    if _max_abs(reduced - direct) > AGREE_TOL:
        fails.append(f"dilation differs from apply_map by {_max_abs(reduced - direct):.3e}")
    ref = inputs.kraus_apply(ops, rho)
    if _max_abs(direct - ref) > AGREE_TOL:
        fails.append(f"apply_map differs from the Kraus-sum reference by {_max_abs(direct - ref):.3e}")


class DilationBuild:
    """Fresh channel or instrument per job: decompose, complete, check on 2 states."""

    name = "dilation_build"
    cycle_jobs = len(inputs.DILATION_BUILD_CYCLE)

    def __init__(self, q, seed: int, workdir: Path):
        self.q = q
        self.jobs = inputs.dilation_build_jobs(seed)

    def setup(self):
        # Warm-up: one small job of each kind, drawn from a stream of its own
        # so the timed jobs are the same whatever the warm-up does.
        warm = inputs.workload_rng(0, "warmup")
        for kind, k in (("channel", 1), ("split", 2), ("padded", 2)):
            groups = inputs.outcome_groups(warm, kind, 3, 4, k)
            job = {"kind": kind, "n": 3, "groups": groups,
                   "states": [inputs.random_state(warm, 3)]}
            self.run(job)

    def run(self, job):
        q, n, groups = self.q, job["n"], job["groups"]
        if job["kind"] == "channel":
            dmap = q.map_from_kraus(_kraus_terms(groups[0]), n)
            props = q.check_properties(dmap)
            du = q.build_dilation_unitary(q.canonical_decompose(dmap))
            pairs = [(q.simulate_via_dilation(du, rho)[1], q.apply_map(dmap, rho))
                     for rho in job["states"]]
            return {"props": props, "sizes": [du.anc_dim], "pairs": pairs}
        inst = _build_instrument(q, n, groups, job["kind"] == "padded")
        dil = q.build_instrument_dilation(inst)
        results = [(q.measure_via_dilation(dil, rho), q.outcome_statistics(inst, rho))
                   for rho in job["states"]]
        return {"sizes": [s.size for s in dil.sectors], "results": results}

    def check(self, job, out):
        fails = []
        n, groups = job["n"], job["groups"]
        _check_sectors(n, out["sizes"], fails)
        if job["kind"] == "channel":
            props = out["props"]
            if not (props.trace_preserving and props.completely_positive):
                fails.append("check_properties does not report a CPTP map")
            for rho, (reduced, direct) in zip(job["states"], out["pairs"]):
                _check_channel(groups[0], rho, reduced, direct, fails)
        else:
            for rho, (via, direct) in zip(job["states"], out["results"]):
                _check_outcomes(groups, rho, via, direct, fails)
        return fails

    @classmethod
    def mix(cls) -> dict:
        shapes = collections.Counter(
            f"{kind} N={n} rank={r} K={k} D={n * inputs.anc_dim(kind, n, r, k)}"
            for kind, n, r, k in inputs.DILATION_BUILD_CYCLE
        )
        return {"cycle_jobs": cls.cycle_jobs, "states_per_job": 2,
                "shapes": dict(sorted(shapes.items()))}


class InstrumentReadout:
    """Dilations built in set-up; each job sends one fresh state through one."""

    name = "instrument_readout"
    cycle_jobs = inputs.READOUT_PERIOD

    def __init__(self, q, seed: int, workdir: Path):
        self.q = q
        self.seed = seed
        self.jobs = inputs.readout_jobs(seed)
        self.pool = []

    def setup(self):
        q = self.q
        for entry in inputs.readout_pool(self.seed):
            n, groups = entry["n"], entry["groups"]
            if entry["kind"] == "channel":
                dmap = q.map_from_kraus(_kraus_terms(groups[0]), n)
                du = q.build_dilation_unitary(q.canonical_decompose(dmap))
                self.pool.append({**entry, "dmap": dmap, "du": du, "sizes": [du.anc_dim]})
            else:
                inst = _build_instrument(q, n, groups, entry["kind"] == "padded")
                dil = q.build_instrument_dilation(inst)
                self.pool.append({**entry, "inst": inst, "dil": dil,
                                  "sizes": [s.size for s in dil.sectors]})
        warm = inputs.workload_rng(0, "warmup")
        for idx, entry in enumerate(self.pool):
            job = {"pool": idx, "n": entry["n"], "state": inputs.random_state(warm, entry["n"])}
            if "inst" in entry:
                job.update(shots=100, sample_seed=0)
            self.run(job)

    def run(self, job):
        q, entry, rho = self.q, self.pool[job["pool"]], job["state"]
        if "du" in entry:
            return {"reduced": q.simulate_via_dilation(entry["du"], rho)[1],
                    "direct": q.apply_map(entry["dmap"], rho)}
        return {"via": q.measure_via_dilation(entry["dil"], rho),
                "direct": q.outcome_statistics(entry["inst"], rho),
                "counts": q.sample_outcomes(entry["dil"], rho, job["shots"], job["sample_seed"])}

    def check(self, job, out):
        fails = []
        entry, rho = self.pool[job["pool"]], job["state"]
        n, groups = entry["n"], entry["groups"]
        _check_sectors(n, entry["sizes"], fails)
        if "du" in entry:
            _check_channel(groups[0], rho, out["reduced"], out["direct"], fails)
            return fails
        _check_outcomes(groups, rho, out["via"], out["direct"], fails)
        probs = {o.label: o.probability for o in out["direct"]}
        _check_counts(out["counts"], probs, job["shots"], fails)
        return fails

    @classmethod
    def mix(cls) -> dict:
        repeats = cls.cycle_jobs // len(inputs.READOUT_CYCLE)
        uses = collections.Counter(inputs.READOUT_CYCLE * repeats)
        pool = [
            {"kind": kind, "N": n, "K": n if kind == "projective" else k,
             "D_max": n * inputs.anc_dim(kind, n, r, k), "jobs_per_cycle": uses[i]}
            for i, (kind, n, r, k) in enumerate(inputs.READOUT_POOL)
        ]
        return {"cycle_jobs": cls.cycle_jobs, "pool": pool,
                "shots_cycle": list(inputs.SHOTS)}


class CliReports:
    """One in-process `qdilate.cli.run_command([...,"--out",tmp])` per job."""

    name = "cli_reports"
    cycle_jobs = inputs.CLI_PERIOD

    def __init__(self, q, seed: int, workdir: Path):
        self.q = q
        self.seed = seed
        self.workdir = workdir
        self.jobs = inputs.cli_jobs(seed)
        self.refs = {}
        self.out = workdir / "report.json"

    def _path(self, stem: str) -> str:
        return str(self.workdir / f"{stem}.json")

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for stem, (doc, ref) in inputs.cli_specs(self.seed).items():
            with open(self._path(stem), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.refs[stem] = ref
        self.run({"sub": "dilate", "variant": "channel_kraus", "n": 2,
                  "channel": "channel_kraus_N2", "expect_error": None})

    def argv(self, job) -> list:
        argv = [job["sub"]]
        for flag in ("channel", "instrument", "state"):
            if flag in job:
                argv += [f"--{flag}", self._path(job[flag])]
        if job["variant"] == "inst_incomplete_direct":
            argv.append("--direct")
        for flag in ("trials", "shots", "seed"):
            if flag in job:
                argv += [f"--{flag}", str(job[flag])]
        if job["sub"] == "random":
            argv += ["--dim", str(job["n"]), "--kraus-rank", str(job["rank"])]
        if job["sub"] in ("pad", "random"):
            argv += ["--spec-out", self._path("spec_out")]
        return argv + ["--out", str(self.out)]

    def run(self, job):
        return self.q.cli.run_command(self.argv(job))

    def check(self, job, code):
        with open(self.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if job["expect_error"] is not None:
            got = report.get("error", {}).get("code")
            if code != 1 or got != job["expect_error"]:
                return [f"expected exit 1 with {job['expect_error']}, got {code} with {got}"]
            return []
        if code != 0 or report.get("status") != "ok":
            return [f"exit {code}, status {report.get('status')}: {report.get('error')}"]
        fails = []
        getattr(self, f"_check_{job['sub']}")(job, report["results"], fails)
        return fails

    def _rho(self, job):
        return self.refs[f"state_N{job['n']}"]

    def _check_check(self, job, res, fails):
        if "instrument" in job:
            if not res["complete"]:
                fails.append("complete instrument reported incomplete")
        elif res["completely_positive"] != (job["variant"] != "noncp") or not res["trace_preserving"]:
            fails.append(f"wrong properties {res}")

    def _check_decompose(self, job, res, fails):
        n = job["n"]
        if res["reconstruction_error"] > REPORT_TOL or res["num_terms"] != n * n:
            fails.append(f"decompose: {res['num_terms']} terms, error {res['reconstruction_error']}")

    def _check_dilate(self, job, res, fails):
        n = job["n"]
        if res["unitarity_residual"] > REPORT_TOL:
            fails.append(f"unitarity residual {res['unitarity_residual']}")
        anc = res["anc_dim"]
        u = np.array(res["unitary"], dtype=float)
        u = u[..., 0] + 1j * u[..., 1]
        if u.shape != (n * anc, n * anc):
            fails.append(f"unitary shape {u.shape} for N={n}, anc={anc}")
            return
        if _max_abs(u.conj().T @ u - np.eye(n * anc)) > REPORT_TOL:
            fails.append("reported unitary is not unitary")
        # Columns (r', 0) carry the isometry; U(rho (x) |0><0|)U^dagger = V rho V^dagger.
        v = u[:, ::anc]
        rho = self._rho(job)
        joint = (v @ rho @ v.conj().T).reshape(n, anc, n, anc)
        if "channel" in job:
            _check_sectors(n, [anc], fails)
            groups, slots = self.refs[job["channel"]], [(0, anc)]
        else:
            groups = self.refs[job["instrument"]]
            slots = [(s["start"], s["stop"]) for s in res["sectors"]]
            _check_sectors(n, [b - a for a, b in slots], fails)
        for g, (a, b) in zip(groups, slots):
            raw = np.einsum("rasa->rs", joint[:, a:b, :, a:b])
            if _max_abs(raw - inputs.kraus_apply(g, rho)) > AGREE_TOL:
                fails.append("reported unitary does not reproduce the Kraus-sum reference")

    def _check_verify(self, job, res, fails):
        if res["trials"] != job["trials"] or res["max_error"] > AGREE_TOL:
            fails.append(f"verify: {res['trials']} trials, max error {res['max_error']}")

    def _ref_probs(self, job):
        rho = self._rho(job)
        groups = self.refs[job["instrument"]]
        return {f"o{i}": float(np.trace(inputs.kraus_apply(g, rho)).real)
                for i, g in enumerate(groups)}

    def _check_measure(self, job, res, fails):
        probs = self._ref_probs(job)
        got = {o["label"]: o["probability"] for o in res["outcomes"]}
        if list(got) != list(probs):
            fails.append(f"measure labels {list(got)}")
            return
        if max(abs(got[k] - probs[k]) for k in probs) > AGREE_TOL:
            fails.append("measure probabilities differ from the Kraus-sum reference")
        if abs(res["total_probability"] - sum(probs.values())) > AGREE_TOL:
            fails.append(f"total probability {res['total_probability']}")
        if job["variant"] != "inst_incomplete_direct" and abs(res["total_probability"] - 1) > AGREE_TOL:
            fails.append(f"complete instrument total probability {res['total_probability']}")

    def _check_sample(self, job, res, fails):
        _check_counts(res["counts"], self._ref_probs(job), job["shots"], fails)

    def _check_pad(self, job, res, fails):
        groups = self.refs[job["instrument"]]
        if res["was_complete"] or res["padded_index"] != len(groups):
            fails.append(f"pad: was_complete {res['was_complete']}, index {res['padded_index']}")
        if res["defect_norm_after"] > 1e-8:
            fails.append(f"pad left a defect of {res['defect_norm_after']}")

    def _check_random(self, job, res, fails):
        if not (res["trace_preserving"] and res["completely_positive"]):
            fails.append("random channel is not CPTP")

    @classmethod
    def mix(cls) -> dict:
        cycle = inputs.CLI_CYCLE * (cls.cycle_jobs // len(inputs.CLI_CYCLE))
        subs = collections.Counter(sub for sub, _, _ in cycle)
        dims = collections.Counter(n for _, _, n in cycle)
        errors = sum(v.endswith("_error") for _, v, _ in cycle)
        return {"cycle_jobs": cls.cycle_jobs, "subcommands": dict(subs),
                "N": {str(n): c for n, c in sorted(dims.items())},
                "expected_errors": errors, "forms": ["kraus", "dynamical_matrix"],
                "spec_dims": list(inputs.CLI_DIMS), "verify_trials": inputs.VERIFY_TRIALS,
                "shots_cycle": list(inputs.SHOTS)}


WORKLOADS = {w.name: w for w in (DilationBuild, InstrumentReadout, CliReports)}
