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
import sys

from .channel import canonical_decompose, check_properties, map_from_kraus, random_cptp
from .dilation import build_dilation_unitary, verify_dilation
from .errors import ParseError, QDilateError
from .instrument import (
    build_instrument_dilation,
    check_completeness,
    measure_via_dilation,
    outcome_statistics,
    pad_to_complete,
    sample_outcomes,
)
from .io import (
    _channel_from_document,
    _instrument_from_document,
    _parse_document,
    _state_from_document,
    save_channel_spec,
    save_instrument_spec,
    write_json,
)
from .linalg import max_abs


_FROM_DOCUMENT = {
    "channel": _channel_from_document,
    "instrument": _instrument_from_document,
    "state": _state_from_document,
}


def _load(kind: str, path, inputs: dict):
    """Read a channel, instrument or state file, recording its digest in ``inputs``.

    The file is read once: the digest names the bytes that were parsed.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc
    inputs[kind] = {"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()}
    return _FROM_DOCUMENT[kind](_parse_document(blob, path), path)


def _save_spec(save, path, *args, **kwargs) -> None:
    """Write a spec file, reporting a path that cannot be written as a ParseError."""
    try:
        save(path, *args, **kwargs)
    except OSError as exc:
        raise ParseError(f"{path}: cannot write ({exc})") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
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
    if args.channel is not None:
        dmap = _load("channel", args.channel, inputs)
        props = check_properties(dmap)
        return {
            "kind": "channel",
            "dim": dmap.dim,
            "trace_preserving": props.trace_preserving,
            "completely_positive": props.completely_positive,
            "min_eigenvalue": props.min_eigenvalue,
            "trace_defect": props.trace_defect,
        }
    inst = _load("instrument", args.instrument, inputs)
    complete, defect = check_completeness(inst)
    return {
        "kind": "instrument",
        "dim": inst.dim,
        "num_outcomes": inst.num_outcomes,
        "labels": list(inst.labels),
        "complete": complete,
        "defect_norm": max_abs(defect),
    }


def _cmd_decompose(args, inputs, options):
    dmap = _load("channel", args.channel, inputs)
    dec = canonical_decompose(dmap)
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
    options["route"] = "direct" if args.direct else "dilation"
    inst = _load("instrument", args.instrument, inputs)
    rho = _load("state", args.state, inputs)
    if args.direct:
        outcomes = outcome_statistics(inst, rho)
    else:
        dil = build_instrument_dilation(inst)
        outcomes = measure_via_dilation(dil, rho)
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
        _save_spec(save_instrument_spec, args.spec_out, padded)
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
    props = check_properties(dmap)
    if args.spec_out is not None:
        options["spec_out"] = str(args.spec_out)
        _save_spec(
            save_channel_spec,
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

    p = sub.add_parser("decompose", parents=[common], help="eigen-decompose a channel")
    p.add_argument("--channel", required=True, help="channel spec file")

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
    report are ndarrays, streamed a block of rows at a time.
    """
    if path is None:
        write_json(report, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(report, fh)


def _fail(report: dict, exc: QDilateError) -> int:
    """Make ``report`` an error report of ``exc``, dropping any results; exit status 1."""
    report.pop("results", None)
    report["status"] = "error"
    report["error"] = {"code": type(exc).__name__, "message": str(exc)}
    return 1


def run_command(argv) -> int:
    """Parse arguments, run one subcommand, emit its report, return exit status.

    A report that cannot be written to ``--out`` is replaced by an error
    report, a ParseError, on stdout.
    """
    args = _parser().parse_args(argv)
    inputs = {}
    options = {}
    report = {"command": args.command, "inputs": inputs, "options": options}
    try:
        report["results"] = _HANDLERS[args.command](args, inputs, options)
        report["status"] = "ok"
        code = 0
    except QDilateError as exc:
        code = _fail(report, exc)
    try:
        save_report(report, args.out)
    except OSError as exc:
        if args.out is None:
            raise
        code = _fail(report, ParseError(f"{args.out}: cannot write ({exc})"))
        save_report(report)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
