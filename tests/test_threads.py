"""Bit-identical unitaries, readouts and reports at any BLAS thread count.

Each run builds dilations in a fresh interpreter with the BLAS and OpenMP
thread counts fixed before numpy loads, and prints hashes of everything it
built; runs at 1 and 2 threads must print the same lines. That includes
rank-deficient Kraus maps, a channel and a split instrument at N = 5 and 8,
which are decomposed by a thin SVD (LAPACK's zgesdd) rather than eigh. So
must the dynamical matrices ``map_from_kraus`` forms in one BLAS product, at
N = 8, 12 and 16 with full-rank signed Kraus sums, and the direct route's
GEMVs on them: ``apply_map`` of each map, and ``outcome_statistics`` of the
two-outcome instrument of its positive and negative parts (formed elementwise
from B and the full-rank map of the weights' magnitudes), on a state formed
without LAPACK (x x^dagger / tr). The sector readout
at N = 12 and 16 reads an isometry and a state saved by a 1-thread process:
building them (random_cptp's QR, canonical_decompose's eigh) changes bits
with the thread count at N >= 12, and the readout must not add to that. So
must the reduced state of ``simulate_via_dilation``, one GEMM over the whole
ancilla, on that isometry as a one-sector dilation and on the split
instruments at N = 5 and 8.
"""

import os
import subprocess
import sys
from pathlib import Path

import qdilate as q

from conftest import instrument_path, state_path

SAVE = r"""
import sys
import numpy as np
import qdilate as q

arrays = {}
for n in (12, 16):
    dec = q.canonical_decompose(q.random_cptp(n, n * n, 300 + n))
    arrays[f"iso{n}"] = q.build_dilation_unitary(dec).isometry
    arrays[f"rho{n}"] = q.random_density(n, 400 + n).mat
np.savez(sys.argv[1], **arrays)
"""

PROBE = r"""
import contextlib, hashlib, io, sys
import numpy as np
import qdilate as q
from qdilate.cli import run_command
from qdilate.dilation import Sector, sector_states

def digest(data):
    return hashlib.sha256(data).hexdigest()

for n in (5, 8):
    dmap = q.random_cptp(n, n * n, 100 + n)
    dec = q.canonical_decompose(dmap)
    rho = q.random_density(n, 200 + n)
    dil = q.build_dilation_unitary(dec)
    _, reduced = q.simulate_via_dilation(dil, rho)
    print(n, digest(dil.u.tobytes()), dil.unitarity_residual.hex(),
          digest(reduced.tobytes()))
    half = q.Instrument(dim=n, maps=(("half", q.DynamicalMap(dmap.bmat / 2)),))
    outcomes = q.measure_via_dilation(q.build_instrument_dilation(q.pad_to_complete(half)), rho)
    print(n, [(o.label, o.probability.hex(), digest(o.raw_unnormalized.tobytes()),
               digest(o.post_state.tobytes())) for o in outcomes])
    low = q.canonical_decompose(q.random_cptp(n, n, 150 + n))
    low_dil = q.build_dilation_unitary(low)
    print(n, digest(low.weights.tobytes()), digest(low.ops.tobytes()),
          digest(low_dil.u.tobytes()), digest(q.simulate_via_dilation(low_dil, rho)[1].tobytes()))
    split = q.Instrument(dim=n, maps=tuple(
        (str(i), q.map_from_kraus(zip(low.weights[i::2], low.ops[i::2]), n)) for i in range(2)))
    split_dil = q.build_instrument_dilation(split)
    outcomes = q.measure_via_dilation(split_dil, rho)
    print(n, [(o.label, o.probability.hex(), digest(o.raw_unnormalized.tobytes()))
              for o in outcomes], digest(q.simulate_via_dilation(split_dil, rho).reduced.tobytes()))
for n in (8, 12, 16):
    rng = np.random.default_rng(500 + n)
    shape = (n * n, n, n)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weights = rng.standard_normal(n * n)
    dmap = q.map_from_kraus(zip(weights, ops), n)
    print(n, digest(dmap.bmat.tobytes()))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    rho /= rho.trace().real
    # The map's positive and negative parts, (|B| +- B) / 2 with |B| the map of
    # the |weights|, scaled to a total effect of trace 1.
    absolute = q.map_from_kraus(zip(np.abs(weights), ops), n).bmat
    scale = 0.5 / absolute.trace().real
    halves = q.Instrument(dim=n, maps=(("+", q.DynamicalMap(scale * (absolute + dmap.bmat))),
                                       ("-", q.DynamicalMap(scale * (absolute - dmap.bmat)))))
    print(n, digest(q.apply_map(dmap, rho).tobytes()),
          [(o.probability.hex(), digest(o.raw_unnormalized.tobytes()))
           for o in q.outcome_statistics(halves, rho)])
saved = np.load(sys.argv[1])
for n in (12, 16):
    iso = saved[f"iso{n}"]
    nu = len(iso) // n
    cuts = [0, nu // 5, nu // 2, nu]
    sectors = [Sector(str(i), a, b) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    dil = q.Dilation(sys_dim=n, anc_dim=nu, isometry=iso, sectors=sectors)
    channel = q.Dilation(sys_dim=n, anc_dim=nu, isometry=iso, sectors=[Sector("channel", 0, nu)])
    print(n, digest(sector_states(dil, saved[f"rho{n}"]).tobytes()),
          digest(q.simulate_via_dilation(channel, saved[f"rho{n}"]).reduced.tobytes()))
for argv in sys.argv[2:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv.split())
    print(code, digest(buf.getvalue().encode()))
"""


def run_probe(threads: int, script: str, args) -> str:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    src = str(Path(q.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
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
    saved = tmp_path / "readout_inputs.npz"
    run_probe(1, SAVE, [str(saved)])
    args = [str(saved), *argvs]
    one = run_probe(1, PROBE, args)
    assert len(one.splitlines()) == 16 + len(argvs)
    assert one == run_probe(2, PROBE, args)
