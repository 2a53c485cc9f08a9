"""Command line front end emitting deterministic JSON reports.

Subcommands: check (map/instrument properties), decompose (eigen-terms),
dilate (build the unitary), verify (dilation vs direct application), measure
(outcome table), sample (seeded histogram), pad (complete an instrument),
random (seeded CPTP generator). Every report is a pure function of the input
files and flags; stochastic subcommands require an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys

from .channel import (
    TRUNCATION_TOL,
    canonical_decompose,
    check_properties,
    map_from_kraus,
    random_cptp,
)
from .dilation import build_dilation_unitary, verify_dilation
from .errors import ParseError, QDilateError
from .instrument import (
    POST_STATE_THRESHOLD,
    build_instrument_dilation,
    check_completeness,
    measure_via_dilation,
    outcome_statistics,
    pad_to_complete,
    sample_outcomes,
)
from .io import (
    load_channel,
    load_instrument,
    load_state,
    save_channel_spec,
    save_instrument_spec,
    write_json,
)
from .linalg import DEFAULT_TOL, max_abs


def _digest(path) -> dict:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc
    return {"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()}


def _load(kind: str, path, inputs: dict):
    """Read a channel, instrument or state file, recording its digest in ``inputs``."""
    inputs[kind] = _digest(path)
    loader = {"channel": load_channel, "instrument": load_instrument, "state": load_state}[kind]
    return loader(path)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text}")
    return value


def _seed_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text}")
    return value


def _outcome_rows(outcomes) -> list:
    return [
        {"label": o.label, "probability": o.probability, "post_state": o.post_state}
        for o in outcomes
    ]


def _cmd_check(args, inputs, options):
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    options["tol"] = tol
    if args.channel is not None:
        dmap = _load("channel", args.channel, inputs)
        props = check_properties(dmap, tol)
        return {
            "kind": "channel",
            "dim": dmap.dim,
            "hermiticity_preserving": props.hermiticity_preserving,
            "trace_preserving": props.trace_preserving,
            "completely_positive": props.completely_positive,
            "min_eigenvalue": props.min_eigenvalue,
            "trace_defect": props.trace_defect,
        }
    inst = _load("instrument", args.instrument, inputs)
    complete, defect = check_completeness(inst, tol)
    return {
        "kind": "instrument",
        "dim": inst.dim,
        "num_outcomes": inst.num_outcomes,
        "labels": list(inst.labels),
        "complete": complete,
        "defect_norm": max_abs(defect),
    }


def _cmd_decompose(args, inputs, options):
    trunc_tol = args.trunc_tol if args.trunc_tol is not None else TRUNCATION_TOL
    options["trunc_tol"] = trunc_tol
    dmap = _load("channel", args.channel, inputs)
    dec = canonical_decompose(dmap, trunc_tol)
    rebuilt = map_from_kraus(zip(dec.weights, dec.ops), dec.dim)
    return {
        "dim": dec.dim,
        "num_terms": dec.rank,
        "weights": dec.weights.tolist(),
        "reconstruction_error": max_abs(rebuilt.bmat - dmap.bmat),
    }


def _cmd_dilate(args, inputs, options):
    if args.channel is not None:
        kind = "channel"
        dil = build_dilation_unitary(canonical_decompose(_load("channel", args.channel, inputs)))
    else:
        kind = "instrument"
        dil = build_instrument_dilation(_load("instrument", args.instrument, inputs))
    return {
        "kind": kind,
        "sys_dim": dil.sys_dim,
        "anc_dim": dil.anc_dim,
        "sectors": [
            {"label": s.label, "start": s.start, "stop": s.stop} for s in dil.sectors
        ],
        "unitarity_residual": dil.unitarity_residual,
        "unitary": dil.u,
    }


def _cmd_verify(args, inputs, options):
    options["trials"] = args.trials
    options["seed"] = args.seed
    dmap = _load("channel", args.channel, inputs)
    report = verify_dilation(dmap, args.trials, args.seed)
    return {"dim": dmap.dim, "trials": report.trials, "max_error": report.max_error}


def _cmd_measure(args, inputs, options):
    threshold = args.threshold if args.threshold is not None else POST_STATE_THRESHOLD
    options["threshold"] = threshold
    options["route"] = "direct" if args.direct else "dilation"
    inst = _load("instrument", args.instrument, inputs)
    rho = _load("state", args.state, inputs)
    if args.direct:
        outcomes = outcome_statistics(inst, rho, threshold)
    else:
        dil = build_instrument_dilation(inst)
        outcomes = measure_via_dilation(dil, rho, threshold)
    return {
        "dim": inst.dim,
        "outcomes": _outcome_rows(outcomes),
        "total_probability": float(sum(o.probability for o in outcomes)),
    }


def _cmd_sample(args, inputs, options):
    options["shots"] = args.shots
    options["seed"] = args.seed
    inst = _load("instrument", args.instrument, inputs)
    rho = _load("state", args.state, inputs)
    dil = build_instrument_dilation(inst)
    counts = sample_outcomes(dil, rho, args.shots, args.seed)
    return {"dim": inst.dim, "shots": args.shots, "counts": counts}


def _cmd_pad(args, inputs, options):
    inst = _load("instrument", args.instrument, inputs)
    padded = pad_to_complete(inst)
    if args.spec_out is not None:
        options["spec_out"] = str(args.spec_out)
        save_instrument_spec(args.spec_out, padded)
    return {
        "dim": inst.dim,
        "was_complete": inst.complete,
        "padded_index": padded.padded_index,
        "labels": list(padded.labels),
        "defect_norm_before": max_abs(inst.defect),
        "defect_norm_after": max_abs(padded.defect),
    }


def _cmd_random(args, inputs, options):
    options["dim"] = args.dim
    options["kraus_rank"] = args.kraus_rank
    options["seed"] = args.seed
    dmap = random_cptp(args.dim, args.kraus_rank, args.seed)
    props = check_properties(dmap, DEFAULT_TOL)
    if args.spec_out is not None:
        options["spec_out"] = str(args.spec_out)
        save_channel_spec(
            args.spec_out,
            dmap,
            metadata={"name": f"random_cptp_dim{args.dim}_rank{args.kraus_rank}_seed{args.seed}"},
        )
    return {
        "dim": args.dim,
        "kraus_rank": args.kraus_rank,
        "trace_preserving": props.trace_preserving,
        "completely_positive": props.completely_positive,
        "min_eigenvalue": props.min_eigenvalue,
    }


_HANDLERS = {
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "dilate": _cmd_dilate,
    "verify": _cmd_verify,
    "measure": _cmd_measure,
    "sample": _cmd_sample,
    "pad": _cmd_pad,
    "random": _cmd_random,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report destination (default stdout)")
    parser = argparse.ArgumentParser(
        prog="qdilate",
        description="Realize quantum channels and instruments as system+ancilla unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="report map or instrument properties")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--channel", help="channel spec file")
    target.add_argument("--instrument", help="instrument spec file")
    p.add_argument("--tol", type=_nonnegative_float, default=None, help="property tolerance")

    p = sub.add_parser("decompose", parents=[common], help="eigen-decompose a channel")
    p.add_argument("--channel", required=True, help="channel spec file")
    p.add_argument(
        "--trunc-tol", type=_nonnegative_float, default=None, help="relative weight cutoff"
    )

    p = sub.add_parser("dilate", parents=[common], help="build the dilation unitary")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--channel", help="channel spec file")
    target.add_argument("--instrument", help="instrument spec file")

    p = sub.add_parser("verify", parents=[common], help="compare dilation against direct application")
    p.add_argument("--channel", required=True, help="channel spec file")
    p.add_argument("--trials", type=_positive_int, default=10, help="random states to test")
    p.add_argument("--seed", type=_seed_int, required=True, help="state generator seed")

    p = sub.add_parser("measure", parents=[common], help="outcome table for a state")
    p.add_argument("--instrument", required=True, help="instrument spec file")
    p.add_argument("--state", required=True, help="state spec file")
    p.add_argument(
        "--threshold", type=_nonnegative_float, default=None, help="post-state probability floor"
    )
    p.add_argument(
        "--direct",
        action="store_true",
        help="apply maps directly instead of the dilation route (works on incomplete sets)",
    )

    p = sub.add_parser("sample", parents=[common], help="seeded outcome histogram")
    p.add_argument("--instrument", required=True, help="instrument spec file")
    p.add_argument("--state", required=True, help="state spec file")
    p.add_argument("--shots", type=_positive_int, required=True, help="number of draws")
    p.add_argument("--seed", type=_seed_int, required=True, help="sampler seed")

    p = sub.add_parser("pad", parents=[common], help="complete an instrument with a discard map")
    p.add_argument("--instrument", required=True, help="instrument spec file")
    p.add_argument("--spec-out", default=None, help="write the padded instrument here")

    p = sub.add_parser("random", parents=[common], help="emit a seeded random CPTP channel")
    p.add_argument("--dim", type=_positive_int, required=True, help="system dimension")
    p.add_argument("--kraus-rank", type=_positive_int, required=True, help="number of Kraus blocks")
    p.add_argument("--seed", type=_seed_int, required=True, help="generator seed")
    p.add_argument("--spec-out", default=None, help="write the channel spec here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing and usage errors leave it unchanged.
    return build_parser()


def save_report(report: dict, path=None) -> None:
    """Serialize a report with stable field order and full float precision.

    The text is that of ``json.dumps(report, indent=2)``; matrices in the
    report are ndarrays, streamed row by row.
    """
    if path is None:
        write_json(report, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(report, fh)


def run_command(argv) -> int:
    """Parse arguments, run one subcommand, emit its report, return exit status."""
    args = _parser().parse_args(argv)
    inputs = {}
    options = {}
    report = {"command": args.command, "inputs": inputs, "options": options}
    try:
        results = _HANDLERS[args.command](args, inputs, options)
        report["results"] = results
        report["status"] = "ok"
        code = 0
    except QDilateError as exc:
        report["status"] = "error"
        report["error"] = {"code": type(exc).__name__, "message": str(exc)}
        code = 1
    save_report(report, args.out)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
