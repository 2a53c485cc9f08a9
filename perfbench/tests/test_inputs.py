"""Checks on the benchmark's seeded inputs and its correctness gate.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402

DILATION_JOBS = 2 * len(inputs.DILATION_BUILD_CYCLE)
READOUT_JOBS = 2 * len(inputs.READOUT_CYCLE)
CLI_JOBS = 3 * len(inputs.CLI_CYCLE)


def _take(stream, k):
    return list(itertools.islice(stream, k))


def _streams(seed):
    return {
        "dilation_build": _take(inputs.dilation_build_jobs(seed), DILATION_JOBS),
        "readout_pool": inputs.readout_pool(seed),
        "readout_jobs": _take(inputs.readout_jobs(seed), READOUT_JOBS),
        "cli_specs": inputs.cli_specs(seed),
        "cli_jobs": _take(inputs.cli_jobs(seed), CLI_JOBS),
    }


def _arrays(obj):
    """Every ndarray in a nested structure, in a fixed order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _arrays(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def _shape(obj):
    """The size mix of a structure: arrays become shapes, seeds drop out."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape)
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()
                if k not in ("seed", "sample_seed", "data", "matrix")}
    if isinstance(obj, (list, tuple)):
        return [_shape(v) for v in obj]
    return obj


def _scalars(obj):
    if isinstance(obj, np.ndarray):
        return None
    if isinstance(obj, dict):
        return {k: _scalars(v) for k, v in obj.items() if not isinstance(v, np.ndarray)}
    if isinstance(obj, (list, tuple)):
        return [_scalars(v) for v in obj]
    return obj


def test_same_seed_gives_identical_inputs():
    a, b = _streams(7), _streams(7)
    for name in a:
        arrays_a, arrays_b = list(_arrays(a[name])), list(_arrays(b[name]))
        assert len(arrays_a) == len(arrays_b), name
        assert all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b)), name
        assert _scalars(a[name]) == _scalars(b[name]), name


def test_other_seed_gives_other_inputs_with_the_same_mix():
    a, b = _streams(7), _streams(8)
    for name in a:
        assert _shape(a[name]) == _shape(b[name]), name
        arrays_a, arrays_b = list(_arrays(a[name])), list(_arrays(b[name]))
        differ = sum(not np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b))
        assert differ >= 0.9 * len(arrays_a), name
    for name in ("readout_jobs", "cli_jobs"):
        shots = sorted({j["shots"] for j in a[name] if "shots" in j})
        assert shots == sorted(inputs.SHOTS), name
        seeds = [j.get("seed", j.get("sample_seed")) for j in a[name]]
        assert seeds != [j.get("seed", j.get("sample_seed")) for j in b[name]], name


def test_generated_channels_are_trace_preserving():
    for job in _take(inputs.dilation_build_jobs(3), len(inputs.DILATION_BUILD_CYCLE)):
        total = sum(k.conj().T @ k for g in job["groups"] for k in g)
        n = job["n"]
        if job["kind"] == "padded":
            assert np.all(np.linalg.eigvalsh(np.eye(n) - total) > -1e-12)
        else:
            assert np.allclose(total, np.eye(n), atol=1e-12)
        for rho in job["states"]:
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > 0


@pytest.fixture(scope="module")
def qdilate():
    return pytest.importorskip("qdilate")


def test_gate_passes_correct_jobs_and_flags_wrong_ones(qdilate, tmp_path):
    from workloads import DilationBuild

    wl = DilationBuild(qdilate, 5, tmp_path)
    jobs = _take(wl.jobs, 3)  # a rank-1 channel, a full-rank channel, a split instrument
    for job in jobs:
        assert wl.check(job, wl.run(job)) == []
    channel_out = wl.run(jobs[1])
    reduced, direct = channel_out["pairs"][0]
    channel_out["pairs"][0] = (reduced + 1e-6, direct)
    assert wl.check(jobs[1], channel_out)
    split_out = wl.run(jobs[2])
    split_out["sizes"] = [jobs[2]["n"] ** 2 + 1]
    assert wl.check(jobs[2], split_out)


def test_gate_flags_counts_outside_the_binomial_band():
    from workloads import _check_counts

    fails = []
    _check_counts({"a": 500, "b": 500}, {"a": 0.5, "b": 0.5}, 1000, fails)
    assert fails == []
    _check_counts({"a": 700, "b": 300}, {"a": 0.5, "b": 0.5}, 1000, fails)
    assert fails


def test_printed_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    class NoSpans:
        spans = []
        missing = []

    layer, missing = run.layer_metrics(NoSpans(), 1, 1.0, 1.0)
    e2e = run.end_to_end_metrics(1.0, 1.0, [0.001, 0.002], 1.0)
    for printed, listed in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: v["unit"] for k, v in printed.items()} == {m["name"]: m["unit"] for m in listed}
    assert len(missing) == len(layer) - 5  # only the trace.* metrics are always reached


def test_loops_stop_at_the_end_of_a_cycle():
    import run

    class Counting:
        cycle_jobs = 7
        jobs = itertools.count()

        def run(self, job):
            return job

        def check(self, job, out):
            return []

    class NoRecorder:
        job = None

        def install(self):
            pass

        def uninstall(self):
            pass

    latencies, scaled, _ = run.timed_loop(run.Runner(Counting()), 0.0, run.speed.SpeedScale())
    assert len(latencies) >= run.MIN_JOBS and len(latencies) % Counting.cycle_jobs == 0
    assert len(scaled) == len(latencies)
    jobs, _, _ = run.traced_loop(run.Runner(Counting()), NoRecorder(), 0.0)
    assert jobs >= run.MIN_TRACED_JOBS and jobs % Counting.cycle_jobs == 0


def test_speed_scale_divides_by_the_local_kernel_time(monkeypatch):
    import speed

    timings = iter([[0.004] * 3, [0.004] * 3, [0.006] * 3])
    monkeypatch.setattr(speed, "probe", lambda reps=speed.REPS: next(timings))
    scale = speed.SpeedScale()  # warm-up probe, then the first boundary
    # Kernel times at the block's ends are 4 ms and 6 ms: median 5 ms.
    assert scale.scale([1.0, 2.0]) == pytest.approx([speed.REF_S / 0.005, 2 * speed.REF_S / 0.005])


def test_shapes_and_shots_repeat_every_cycle():
    from workloads import CliReports, InstrumentReadout

    def shape(job):
        return {k: v for k, v in job.items() if k not in ("state", "sample_seed", "seed")}

    for jobs, cycle in ((inputs.readout_jobs(1), InstrumentReadout.cycle_jobs),
                        (inputs.cli_jobs(1), CliReports.cycle_jobs)):
        jobs = [shape(j) for j in _take(jobs, 2 * cycle)]
        assert jobs[:cycle] == jobs[cycle:]
