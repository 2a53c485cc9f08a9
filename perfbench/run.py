"""qdilate benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload dilation_build --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed. Each run is a closed loop with one client in one process. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Earlier stdout
lines carry the provenance and a summary; the same data, plus the recorded
spans of a traced run, are written under ``.perfbench_work/``.

The end-to-end timings are scaled to a reference machine speed measured
around them (see ``speed.py``); the summary line carries the raw wall times.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread (at most nproc): steadier timings on a shared machine, and
# the same thread count on every run. Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is repeated this many times per run; setup_s reports the median.
SETUP_REPS = 3
# The imports are timed once in this process and once in each of this many
# fresh interpreters, half before the set-ups and half after the timed phase,
# so the samples span the run; setup_s uses the median import time.
IMPORT_PROBES = 8
# What a fresh interpreter runs to time the imports this process made:
# run.py's own module-level imports, the package and the workloads.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import run; run.import_package(); import workloads; print(time.perf_counter() - t)"
)
# Busy time of a block of jobs between two kernel timings (see speed.py).
BLOCK_S = 0.1
# Every run times at least this many jobs, so p90 has >= 10 samples beyond it.
MIN_JOBS = 100
# A traced run times at least this many job pairs.
MIN_TRACED_JOBS = 50
# System dimensions that get a per-N self-time breakdown.
PER_N_DIMS = range(2, 9)
PER_N_FUNCTIONS = (
    "linalg.complete_to_unitary",
    "channel.canonical_decompose",
    "dilation.simulate_via_dilation",
)
CLI_SUBCOMMANDS = ("check", "decompose", "dilate", "verify", "measure", "sample", "pad", "random")
# Per-layer counts summed from span attributes and reported per traced job.
SUMMED_ATTRS = (
    ("linalg.complete_to_unitary", "cols", "1/job"),
    ("dilation.simulate_via_dilation", "joint_bytes", "B/job"),
    ("instrument.sample_outcomes", "shots", "1/job"),
    ("cli.save_report", "bytes", "B/job"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import qdilate from this checkout's src/, or exit non-zero."""
    if not (SRC / "qdilate" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'qdilate'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qdilate
    import qdilate.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(qdilate.__file__).resolve().parent != (SRC / "qdilate").resolve():
        sys.stderr.write(f"perfbench: imported qdilate from {qdilate.__file__}, not {SRC}\n")
        sys.exit(2)
    return qdilate


def probe_import_s() -> float:
    """Import time in a fresh interpreter; waits for it to exit."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).resolve().parent)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the build is then unknown
        return "unknown"


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median_cycle_s(latencies, cycle):
    """Time of the median cycle: the sum over the cycle's job slots of each
    slot's median latency across the run's cycles. One slow job in one cycle
    (a pause of the machine) then moves it less than it moves the mean."""
    return sum(statistics.median(latencies[i::cycle]) for i in range(cycle))


class Runner:
    """Executes jobs one at a time and counts failures; failures are never fatal."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def execute(self, job):
        """Run one job; return (seconds, passed)."""
        start = time.perf_counter()
        try:
            out = self.wl.run(job)
        except Exception:
            elapsed = time.perf_counter() - start
            self._report(traceback.format_exc())
            return elapsed, False
        elapsed = time.perf_counter() - start
        try:
            fails = self.wl.check(job, out)
        except Exception:
            fails = [traceback.format_exc()]
        if fails:
            self._report("; ".join(fails))
        return elapsed, not fails

    def _report(self, text):
        if self.reported < 5:
            sys.stderr.write(f"perfbench: job {self.attempted} failed: {text}\n")
        self.reported += 1

    def count(self, passed):
        self.attempted += 1
        self.failed += not passed


def timed_loop(runner, seconds, scale):
    """Run whole cycles of jobs until `seconds` of busy time and MIN_JOBS jobs have passed.

    Busy time is the sum of job latencies: input generation and the
    correctness gate run between jobs and are not counted. The loop stops only
    at the end of a cycle, so the measured jobs have the workload's size mix
    whatever the machine's speed. After every BLOCK_S of busy time, `scale`
    (a `speed.SpeedScale`) scales the block's latencies to the reference
    speed. Returns the wall latencies, the scaled ones and the busy time.
    """
    cycle = runner.wl.cycle_jobs
    busy = block_busy = 0.0
    latencies, scaled, block = [], [], []
    while busy < seconds or len(latencies) < MIN_JOBS or len(latencies) % cycle:
        dt, passed = runner.execute(next(runner.wl.jobs))
        runner.count(passed)
        busy += dt
        latencies.append(dt)
        block.append(dt)
        block_busy += dt
        if block_busy >= BLOCK_S:
            scaled += scale.scale(block)
            block, block_busy = [], 0.0
    if block:
        scaled += scale.scale(block)
    return latencies, scaled, busy


def traced_loop(runner, recorder, seconds):
    """Run each job twice, traced and untraced, alternating which goes first.

    Like `timed_loop`, it stops only at the end of a cycle, so the per-job
    layer figures are taken over the same size mix on every run.
    """
    cycle = runner.wl.cycle_jobs
    busy = {True: 0.0, False: 0.0}
    jobs = 0
    while busy[True] + busy[False] < seconds or jobs < MIN_TRACED_JOBS or jobs % cycle:
        job = next(runner.wl.jobs)
        passed = True
        for traced in ((False, True) if jobs % 2 == 0 else (True, False)):
            if traced:
                recorder.job = jobs
                recorder.install()
            try:
                dt, ok = runner.execute(job)
            finally:
                recorder.uninstall()
            busy[traced] += dt
            passed = passed and ok
        runner.count(passed)
        jobs += 1
    return jobs, busy[True], busy[False]


def end_to_end_metrics(setup_s, jobs_per_s, latencies, success_rate):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
        "job_p50_ms": {"value": 1e3 * percentile(latencies, 0.5), "unit": "ms"},
        "job_p90_ms": {"value": 1e3 * percentile(latencies, 0.9), "unit": "ms"},
        "success_rate": {"value": success_rate, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def layer_metrics(recorder, jobs, traced_busy, untraced_busy):
    """Per-layer metrics from the spans; missing ones read 0 and are listed."""
    from spans import TRACED

    metrics, missing = {}, []
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[3], []).append(span)

    def put(name, value, unit, reached):
        metrics[name] = {"value": value, "unit": unit}
        if not reached and name not in missing:
            missing.append(name)

    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        spans = by_name.get(name, [])
        put(f"{name}.calls", len(spans) / jobs, "1/job", bool(spans))
        put(f"{name}.self_s", sum(s[6] for s in spans) / jobs, "s/job", bool(spans))
    for name, attr, unit in SUMMED_ATTRS:
        spans = by_name.get(name, [])
        put(f"{name}.{attr}", sum(s[7][attr] for s in spans if s[7]) / jobs, unit, bool(spans))
    for name in PER_N_FUNCTIONS:
        for n in PER_N_DIMS:
            selfs = [s[6] for s in by_name.get(name, []) if s[7] and s[7]["N"] == n]
            put(f"{name}.self_s.N{n}", statistics.fmean(selfs) if selfs else 0, "s/call", bool(selfs))
    for sub in CLI_SUBCOMMANDS:
        spans = [s for s in by_name.get("cli.run_command", []) if s[7] and s[7]["sub"] == sub]
        p50 = statistics.median(1e3 * (s[5] - s[4]) for s in spans) if spans else 0
        put(f"cli.run_command.{sub}.p50_ms", p50, "ms", bool(spans))
    put("trace.jobs", jobs, "count", True)
    put("trace.jobs_per_s", jobs / traced_busy, "1/s", True)
    put("trace.untraced_jobs_per_s", jobs / untraced_busy, "1/s", True)
    put("trace.overhead", traced_busy / untraced_busy - 1, "ratio", True)
    metrics["trace.missing"] = {"value": len(missing), "unit": "count"}
    return metrics, missing


def main(argv=None):
    args = parse_args(argv)
    q = import_package()
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    # Each set-up sample is scaled by the kernel times just before and after it.
    import_times = [time.perf_counter() - T_START]
    scale = speed.SpeedScale()
    scaled_import = scale.scale(import_times)
    for _ in range(IMPORT_PROBES // 2):
        import_times.append(probe_import_s())
        scaled_import += scale.scale(import_times[-1:])

    out_dir = ROOT / ".perfbench_work"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    setup_times, scaled_setup = [], []
    try:
        for _ in range(SETUP_REPS):
            workload = None  # free the previous set-up's dilations first
            start = time.perf_counter()
            workload = WORKLOADS[args.workload](q, args.seed, workdir)
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            scaled_setup += scale.scale(setup_times[-1:])

        runner = Runner(workload)
        if args.trace:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            jobs, traced_busy, untraced_busy = traced_loop(runner, recorder, args.seconds)
            metrics, missing = layer_metrics(recorder, jobs, traced_busy, untraced_busy)
            summary = {"jobs": jobs, "traced_busy_s": traced_busy,
                       "untraced_busy_s": untraced_busy, "missing": missing,
                       "absent_functions": recorder.missing}
        else:
            latencies, scaled, busy = timed_loop(runner, args.seconds, scale)
            for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2):
                import_times.append(probe_import_s())
                scaled_import += scale.scale(import_times[-1:])
            setup_s = statistics.median(scaled_import) + statistics.median(scaled_setup)
            cycle = workload.cycle_jobs
            metrics = end_to_end_metrics(setup_s, cycle / median_cycle_s(scaled, cycle), scaled,
                                         1 - runner.failed / runner.attempted)
            wall = {
                "setup_s": statistics.median(import_times) + statistics.median(setup_times),
                "jobs_per_s": len(latencies) / busy,
                "job_p50_ms": 1e3 * percentile(latencies, 0.5),
                "job_p90_ms": 1e3 * percentile(latencies, 0.9),
            }
            summary = {"jobs": len(latencies), "busy_s": busy,
                       "error_rate": runner.failed / runner.attempted, "wall": wall,
                       "kernel_ms": [1e3 * t for t in statistics.quantiles(scale.samples, n=4)],
                       "kernel_ref_ms": 1e3 * speed.REF_S}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(np),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "import_s": import_times,
        "setup_reps_s": setup_times,
        "mix": WORKLOADS[args.workload].mix(),
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "summary": summary, "result": result}, fh, indent=1)
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    print("provenance " + json.dumps(provenance))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
