"""Bit-identical unitaries and reports at any BLAS thread count.

Each run builds dilations in a fresh interpreter with the BLAS and OpenMP
thread counts fixed before numpy loads, and prints hashes of everything it
built; runs at 1 and 2 threads must print the same lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import qdilate as q

from conftest import instrument_path, state_path

PROBE = r"""
import contextlib, hashlib, io, sys
import qdilate as q
from qdilate.cli import run_command

def digest(data):
    return hashlib.sha256(data).hexdigest()

for n in (5, 8):
    dec = q.canonical_decompose(q.random_cptp(n, n * n, 100 + n))
    rho = q.random_density(n, 200 + n)
    dil = q.build_dilation_unitary(dec)
    _, reduced = q.simulate_via_dilation(dil, rho)
    print(n, digest(dil.u.tobytes()), dil.unitarity_residual.hex(),
          digest(reduced.tobytes()))
for argv in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv.split())
    print(code, digest(buf.getvalue().encode()))
"""


def run_probe(threads: int, argvs) -> str:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    src = str(Path(q.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argvs],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_unitaries_and_reports_do_not_depend_on_blas_threads(tmp_path):
    spec = tmp_path / "random.json"
    q.save_channel_spec(spec, q.random_cptp(4, 16, 7))
    inst = instrument_path("computational_basis.json")
    plus = state_path("plus.json")
    argvs = [
        f"dilate --channel {spec}",
        f"verify --channel {spec} --trials 3 --seed 1",
        f"dilate --instrument {inst}",
        f"measure --instrument {inst} --state {plus}",
        f"sample --instrument {inst} --state {plus} --shots 1000 --seed 7",
    ]
    one = run_probe(1, argvs)
    assert len(one.splitlines()) == 2 + len(argvs)
    assert one == run_probe(2, argvs)
