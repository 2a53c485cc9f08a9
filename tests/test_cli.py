"""Command line interface: subcommands, reports, exit codes, determinism."""

import hashlib
import json

import pytest

import qdilate as q
from qdilate.cli import run_command

from conftest import channel_path, instrument_path, state_path


def load_written(path):
    """Parse a report or spec file, checking it against the stdlib encoder."""
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    return doc


def run_to_report(tmp_path, args, expect_code=0):
    out = tmp_path / "report.json"
    code = run_command([*args, "--out", str(out)])
    assert code == expect_code
    return load_written(out)


def test_check_channel_reports_transpose_as_non_cp(tmp_path):
    report = run_to_report(
        tmp_path, ["check", "--channel", str(channel_path("transpose.json"))]
    )
    assert report["status"] == "ok"
    results = report["results"]
    assert results["trace_preserving"] is True
    assert results["completely_positive"] is False
    assert abs(results["min_eigenvalue"] + 1.0) < 1e-9


def test_check_instrument_reports_incompleteness(tmp_path):
    report = run_to_report(
        tmp_path, ["check", "--instrument", str(instrument_path("p0_projection.json"))]
    )
    assert report["results"]["complete"] is False
    assert abs(report["results"]["defect_norm"] - 1.0) < 1e-12


def test_decompose_reports_weights(tmp_path):
    report = run_to_report(
        tmp_path, ["decompose", "--channel", str(channel_path("transpose.json"))]
    )
    weights = sorted(report["results"]["weights"])
    assert abs(weights[0] + 1.0) < 1e-9
    assert report["results"]["num_terms"] == 4
    assert report["results"]["reconstruction_error"] < 1e-9


def decompose_and_dilate(tmp_path, spec) -> tuple:
    """The num_terms of ``decompose`` and the anc_dim of ``dilate --channel`` on a CPTP spec."""
    results = run_to_report(tmp_path, ["check", "--channel", spec])["results"]
    assert results["trace_preserving"] and results["completely_positive"]
    num_terms = run_to_report(tmp_path, ["decompose", "--channel", spec])["results"]["num_terms"]
    anc_dim = run_to_report(tmp_path, ["dilate", "--channel", spec])["results"]["anc_dim"]
    return num_terms, anc_dim


@pytest.mark.parametrize(
    "name", ["amplitude_damping.json", "bit_flip.json", "dephasing.json", "identity.json"]
)
def test_decompose_describes_the_decomposition_dilate_builds(tmp_path, name):
    num_terms, anc_dim = decompose_and_dilate(tmp_path, str(channel_path(name)))
    assert num_terms == anc_dim


@pytest.mark.parametrize("dim, rank", [(3, 2), (3, 3), (3, 9), (4, 2), (4, 4), (4, 16)])
def test_decompose_and_dilate_drop_the_same_eigen_noise(tmp_path, dim, rank):
    # Read back as a dynamical matrix, the map takes the eigh route: its
    # N^2 - rank zero eigenvalues come out as rounding noise, which the one
    # truncation bound drops for both subcommands.
    spec = str(tmp_path / "random.json")
    run_to_report(
        tmp_path,
        ["random", "--dim", str(dim), "--kraus-rank", str(rank), "--seed", "5",
         "--spec-out", spec],
    )
    assert decompose_and_dilate(tmp_path, spec) == (rank, rank)


def test_dilate_channel_reports_unitary(tmp_path):
    report = run_to_report(
        tmp_path, ["dilate", "--channel", str(channel_path("dephasing.json"))]
    )
    results = report["results"]
    assert results["sys_dim"] == 2
    assert results["anc_dim"] == 2
    assert results["unitarity_residual"] <= 1e-10
    u = q.decode_matrix(results["unitary"], "report unitary")
    assert u.shape == (4, 4)


def test_dilate_zero_channel_fails_as_not_trace_preserving(tmp_path):
    spec = tmp_path / "zero.json"
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec.write_text(
        json.dumps(
            {
                "format_version": "1",
                "dim": 2,
                "representation": "kraus",
                "data": [{"weight": 0.0, "matrix": identity}],
            }
        )
    )
    report = run_to_report(tmp_path, ["dilate", "--channel", str(spec)], expect_code=1)
    assert report["error"]["code"] == "NotTracePreserving"


def test_dilate_instrument_reports_sectors(tmp_path):
    report = run_to_report(
        tmp_path,
        ["dilate", "--instrument", str(instrument_path("computational_basis.json"))],
    )
    results = report["results"]
    assert results["anc_dim"] == 2
    assert results["sectors"] == [
        {"label": "0", "start": 0, "stop": 1},
        {"label": "1", "start": 1, "stop": 2},
    ]
    assert results["unitarity_residual"] <= 1e-10


def test_verify_fixture_channel(tmp_path):
    report = run_to_report(
        tmp_path,
        [
            "verify",
            "--channel",
            str(channel_path("dephasing.json")),
            "--trials",
            "8",
            "--seed",
            "5",
        ],
    )
    assert report["results"]["max_error"] <= 1e-10


def test_verify_reports_are_byte_identical_for_same_seed(tmp_path):
    args = [
        "verify",
        "--channel",
        str(channel_path("amplitude_damping.json")),
        "--trials",
        "4",
        "--seed",
        "12",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_command([*args, "--out", str(out1)]) == 0
    assert run_command([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    load_written(out1)


def test_measure_basis_instrument_on_plus(tmp_path):
    report = run_to_report(
        tmp_path,
        [
            "measure",
            "--instrument",
            str(instrument_path("computational_basis.json")),
            "--state",
            str(state_path("plus.json")),
        ],
    )
    outcomes = report["results"]["outcomes"]
    assert [o["label"] for o in outcomes] == ["0", "1"]
    for o in outcomes:
        assert abs(o["probability"] - 0.5) < 1e-10
    assert abs(report["results"]["total_probability"] - 1.0) < 1e-9


def test_measure_direct_route_works_on_incomplete_instrument(tmp_path):
    report = run_to_report(
        tmp_path,
        [
            "measure",
            "--instrument",
            str(instrument_path("p0_projection.json")),
            "--state",
            str(state_path("plus.json")),
            "--direct",
        ],
    )
    assert report["options"]["route"] == "direct"
    assert abs(report["results"]["total_probability"] - 0.5) < 1e-10


def test_measure_dilation_route_fails_on_incomplete_instrument(tmp_path):
    report = run_to_report(
        tmp_path,
        [
            "measure",
            "--instrument",
            str(instrument_path("p0_projection.json")),
            "--state",
            str(state_path("plus.json")),
        ],
        expect_code=1,
    )
    assert report["status"] == "error"
    assert report["error"]["code"] == "Incomplete"


def test_sample_is_deterministic(tmp_path):
    args = [
        "sample",
        "--instrument",
        str(instrument_path("computational_basis.json")),
        "--state",
        str(state_path("plus.json")),
        "--shots",
        "2000",
        "--seed",
        "33",
    ]
    r1 = run_to_report(tmp_path, args)
    r2 = run_to_report(tmp_path, args)
    assert r1 == r2
    counts = r1["results"]["counts"]
    assert counts["0"] + counts["1"] == 2000


def test_sample_refuses_shots_beyond_int64(tmp_path):
    args = [
        "sample",
        "--instrument",
        str(instrument_path("computational_basis.json")),
        "--state",
        str(state_path("plus.json")),
        "--shots",
        "100000000000000000000",
        "--seed",
        "33",
    ]
    report = run_to_report(tmp_path, args, expect_code=1)
    assert report["status"] == "error"
    assert report["error"]["code"] == "ValidationError"


def test_pad_writes_complete_spec(tmp_path):
    spec_out = tmp_path / "padded.json"
    report = run_to_report(
        tmp_path,
        [
            "pad",
            "--instrument",
            str(instrument_path("p0_projection.json")),
            "--spec-out",
            str(spec_out),
        ],
    )
    assert report["results"]["was_complete"] is False
    assert report["results"]["padded_index"] == 1
    assert report["results"]["defect_norm_after"] <= 1e-10
    load_written(spec_out)
    loaded = q.load_instrument(spec_out)
    assert loaded.complete
    assert loaded.padded_index == 1


def test_random_emits_loadable_cptp_spec(tmp_path):
    spec_out = tmp_path / "random.json"
    report = run_to_report(
        tmp_path,
        [
            "random",
            "--dim",
            "3",
            "--kraus-rank",
            "4",
            "--seed",
            "44",
            "--spec-out",
            str(spec_out),
        ],
    )
    assert report["results"]["trace_preserving"] is True
    assert report["results"]["completely_positive"] is True
    load_written(spec_out)
    dmap = q.load_channel(spec_out)
    verify = q.verify_dilation(dmap, trials=3, seed=0)
    assert verify.max_error <= 1e-9


def test_random_refuses_a_dim_too_large_to_hold(tmp_path, monkeypatch):
    def must_not_build(terms, dim):
        raise AssertionError("the dynamical matrix would be allocated")

    monkeypatch.setattr(q.channel, "map_from_kraus", must_not_build)
    args = ["random", "--dim", "200", "--kraus-rank", "1", "--seed", "1"]
    report = run_to_report(tmp_path, args, expect_code=1)
    assert report["error"]["code"] == "ValidationError"
    assert report["error"]["message"].startswith(
        "dim 200 needs a 25,600,000,000-byte dynamical matrix"
    )


def test_random_spec_is_byte_identical_for_same_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["random", "--dim", "2", "--kraus-rank", "2", "--seed", "9"]
    run_to_report(tmp_path, [*base, "--spec-out", str(a)])
    run_to_report(tmp_path, [*base, "--spec-out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "field, message",
    [
        ("weight", "kraus term 0 weight is too large for a float"),
        ("entry", "kraus term 0[0][0]: entry is too large for a float"),
    ],
)
def test_integer_too_large_for_a_float_is_a_parse_error(tmp_path, field, message):
    huge = 10**400
    pair = [huge, 0.0] if field == "entry" else [1.0, 0.0]
    weight = huge if field == "weight" else 1.0
    spec = tmp_path / "huge.json"
    spec.write_text(
        json.dumps(
            {
                "format_version": "1",
                "dim": 1,
                "representation": "kraus",
                "data": [{"weight": weight, "matrix": [[pair]]}],
            }
        )
    )
    report = run_to_report(tmp_path, ["check", "--channel", str(spec)], expect_code=1)
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["message"].endswith(message)


def text_mode_message(path) -> str:
    """The invalid-JSON message for ``path`` read as UTF-8 text and parsed by json.load."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)
    except (ValueError, RecursionError) as exc:
        return f"{path}: invalid JSON ({exc})"
    raise AssertionError(f"{path} parses")


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(b'{"format_version": "1", "dim": \xff}', id="not_utf8"),
        pytest.param(b'{"dim": "' + b"x" * 9000 + b'\xc3(", "a": 1}', id="not_utf8_past_8k"),
        pytest.param(b'{"format_version": "1", "dim": ' + b"7" * 5000 + b"}", id="long_int"),
        pytest.param(b"[" * 100_000, id="deep_nesting"),
        pytest.param(b'{\r\n  "format_version": "1",\r\n  "dim": 2,,\r\n}', id="crlf"),
        pytest.param(b'{\r  "format_version": "1",\r\r\n  "dim": 2,,\r}', id="lone_cr"),
        pytest.param(b'{"label": "a\rb"}', id="cr_in_string"),
        pytest.param(b'\xef\xbb\xbf{"format_version": "1"}', id="bom"),
    ],
)
def test_unreadable_document_is_a_parse_error(tmp_path, payload):
    # The message is the one a UTF-8 text-mode read and json.load give: line,
    # column and character offsets count newlines as text mode translates them.
    spec = tmp_path / "bad.json"
    spec.write_bytes(payload)
    report = run_to_report(tmp_path, ["check", "--channel", str(spec)], expect_code=1)
    assert report["status"] == "error"
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["message"] == text_mode_message(spec)
    with pytest.raises(q.ParseError) as info:
        q.load_channel(spec)
    assert str(info.value) == text_mode_message(spec)


@pytest.mark.parametrize(
    "args",
    [
        ["dilate", "--channel", str(channel_path("amplitude_damping.json"))],
        ["measure", "--instrument", str(instrument_path("computational_basis.json")),
         "--state", str(state_path("plus.json"))],
    ],
    ids=["dilate", "measure"],
)
def test_each_input_file_is_opened_once(tmp_path, monkeypatch, args):
    inputs = {arg for arg in args if arg.endswith(".json")}
    opened = []
    real_open = open

    def counting_open(file, *rest, **kwargs):
        opened.append(str(file))
        return real_open(file, *rest, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    report = run_to_report(tmp_path, args)
    assert sorted(p for p in opened if p in inputs) == sorted(inputs)
    for kind, digest in report["inputs"].items():
        with real_open(digest["path"], "rb") as fh:
            assert digest["sha256"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize(
    "args",
    [
        ["pad", "--instrument", str(instrument_path("p0_projection.json"))],
        ["random", "--dim", "2", "--kraus-rank", "2", "--seed", "3"],
    ],
    ids=["pad", "random"],
)
def test_unwritable_spec_out_gives_error_report(tmp_path, args):
    spec_out = tmp_path / "missing" / "spec.json"
    report = run_to_report(tmp_path, [*args, "--spec-out", str(spec_out)], expect_code=1)
    assert report["options"]["spec_out"] == str(spec_out)
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["message"].startswith(f"{spec_out}: cannot write (")
    assert "results" not in report


@pytest.mark.parametrize("kind", ["missing directory", "a directory", "under a file"])
@pytest.mark.parametrize(
    "args",
    [
        ["check", "--channel", str(channel_path("identity.json"))],
        ["check", "--channel", str(channel_path("missing.json"))],
    ],
    ids=["ok", "error"],
)
def test_unwritable_out_gives_error_report_on_stdout(tmp_path, capsys, args, kind):
    (tmp_path / "file").write_text("kept\n")
    out = {
        "missing directory": tmp_path / "missing" / "report.json",
        "a directory": tmp_path,
        "under a file": tmp_path / "file" / "report.json",
    }[kind]
    assert run_command([*args, "--out", str(out)]) == 1
    text = capsys.readouterr().out
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    assert report["command"] == "check" and report["options"] == {}
    assert report["status"] == "error" and "results" not in report
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["message"].startswith(f"{out}: cannot write (")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_reports_after_usage_errors_are_unchanged(tmp_path):
    args = ["dilate", "--channel", str(channel_path("bit_flip.json"))]
    before = run_to_report(tmp_path, args)
    for bad in (["frobnicate"], ["dilate"], ["verify", "--channel", "x", "--seed", "-1"]):
        with pytest.raises(SystemExit):
            run_command(bad)
    assert run_to_report(tmp_path, args) == before


def test_missing_input_file_gives_error_report(tmp_path):
    report = run_to_report(
        tmp_path, ["check", "--channel", str(tmp_path / "nope.json")], expect_code=1
    )
    assert report["status"] == "error"
    assert report["error"]["code"] == "ParseError"


def test_inputs_carry_digests(tmp_path):
    report = run_to_report(
        tmp_path, ["check", "--channel", str(channel_path("identity.json"))]
    )
    digest = report["inputs"]["channel"]["sha256"]
    assert isinstance(digest, str) and len(digest) == 64


def test_usage_errors_exit_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        run_command(["verify", "--channel", str(channel_path("identity.json"))])
    with pytest.raises(SystemExit):
        run_command(["frobnicate"])
    with pytest.raises(SystemExit):
        run_command(
            [
                "verify",
                "--channel",
                str(channel_path("identity.json")),
                "--seed",
                "-3",
            ]
        )


def test_check_instrument_defaults_to_the_one_bound(tmp_path):
    report = run_to_report(
        tmp_path, ["check", "--instrument", str(instrument_path("computational_basis.json"))]
    )
    assert report["options"] == {}
    assert report["results"]["complete"] is True


MEASURE_EXCITED = [
    "measure",
    "--instrument",
    str(instrument_path("computational_basis.json")),
    "--state",
    str(state_path("excited.json")),
]


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--channel", str(channel_path("identity.json")), "--tol", "1e-6"],
        ["check", "--instrument", str(instrument_path("p0_projection.json")), "--tol", "1e-6"],
        ["decompose", "--channel", str(channel_path("identity.json")), "--trunc-tol", "0.5"],
        [*MEASURE_EXCITED, "--threshold", "0"],
    ],
    ids=["check-channel", "check-instrument", "decompose", "measure"],
)
def test_tolerance_flags_are_usage_errors(tmp_path, capsys, args):
    # The library bounds decide every verdict, cutoff and post state, so a
    # per-call bound is an unrecognized argument and writes no report.
    with pytest.raises(SystemExit):
        run_command([*args, "--out", str(tmp_path / "report.json")])
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "args, options",
    [
        (["check", "--channel", str(channel_path("amplitude_damping.json"))], {}),
        (["decompose", "--channel", str(channel_path("amplitude_damping.json"))], {}),
        (MEASURE_EXCITED, {"route": "dilation"}),
        ([*MEASURE_EXCITED, "--direct"], {"route": "direct"}),
    ],
    ids=["check", "decompose", "measure-dilation", "measure-direct"],
)
def test_reports_record_no_tolerance_options(tmp_path, args, options):
    report = run_to_report(tmp_path, args)
    assert report["options"] == options
    if args[0] == "measure":
        # The p = 0 outcome "0" of |1><1| gets no post state at the one bound.
        rows = report["results"]["outcomes"]
        assert [row["post_state"] is None for row in rows] == [True, False]
