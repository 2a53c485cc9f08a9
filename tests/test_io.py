"""File formats: complex encoding, loading, validation, round trips."""

import json
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import _floattext
from qdilate.cli import run_command
from qdilate.io import write_json

from conftest import IDENTITY2, P0, channel_path, instrument_path, state_path


def test_encode_decode_matrix_round_trip():
    rng = np.random.default_rng(70)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    decoded = q.decode_matrix(q.encode_matrix(m), "round trip")
    assert np.array_equal(decoded, m)


# Malformed matrices and the ParseError message naming what is wrong.
MALFORMED = [
    ([[1.0, 2.0]], "m[0][0]: expected a [re, im] pair"),
    ([[[1.0, 2.0, 3.0]]], "m[0][0]: expected a [re, im] pair"),
    ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "m[1]: row length 2 differs from 1"),
    ("nope", "m: expected a non-empty list of rows"),
    ([[["a", 1.0]]], "m[0][0]: expected a [re, im] pair"),
    ([[[None, 1.0]]], "m[0][0]: expected a [re, im] pair"),
    (None, "m: expected a non-empty list of rows"),
    ([[[[1.0, 0.0], [0.0, 1.0]]]], "m[0][0]: expected a [re, im] pair"),
    ([], "m: expected a non-empty list of rows"),
    ([[[1.0, 0.0], [10**400, 0.5]]], "m[0][1]: entry is too large for a float"),
]


def test_decode_matrix_rejects_malformed_entries():
    for obj, message in MALFORMED:
        with pytest.raises(q.ParseError) as info:
            q.decode_matrix(obj, "m")
        assert str(info.value) == message


def test_shipped_channel_fixtures_load(tmp_path):
    for name in (
        "identity.json",
        "bit_flip.json",
        "dephasing.json",
        "amplitude_damping.json",
        "transpose.json",
    ):
        dmap = q.load_channel(channel_path(name))
        assert dmap.dim == 2


def test_identity_fixture_equals_constructed_map():
    loaded = q.load_channel(channel_path("identity.json"))
    built = q.map_from_kraus([(1.0, IDENTITY2)], 2)
    assert q.max_abs(loaded.bmat - built.bmat) == 0.0


def test_channel_round_trip_is_exact(tmp_path):
    dmap = q.random_cptp(3, 5, 71)
    path = tmp_path / "channel.json"
    q.save_channel_spec(path, dmap)
    loaded = q.load_channel(path)
    assert np.array_equal(loaded.bmat, dmap.bmat)


def test_load_channel_rejects_non_hermitian_dynamical_matrix(tmp_path):
    doc = {
        "format_version": "1",
        "dim": 2,
        "representation": "dynamical_matrix",
        "data": q.encode_matrix(np.triu(np.ones((4, 4)), 1) + np.eye(4)),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(q.ValidationError):
        q.load_channel(path)


@pytest.mark.parametrize("defect, loads", [(1e-9, False), (1e-11, True)])
def test_dynamical_matrix_files_share_the_hermiticity_bound(tmp_path, defect, loads):
    # The identity channel's B with one entry off its mirror by `defect`:
    # files are held to DEFAULT_TOL, like every other dynamical matrix.
    bmat = q.map_from_kraus([(1.0, IDENTITY2)], 2).bmat.copy()
    bmat[0, 3] += defect
    doc = {
        "format_version": "1",
        "dim": 2,
        "representation": "dynamical_matrix",
        "data": q.encode_matrix(bmat),
    }
    path = tmp_path / "near_hermitian.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = run_command(["check", "--channel", str(path), "--out", str(out)])
    report = json.loads(out.read_text())
    if loads:
        assert np.array_equal(q.load_channel(path).bmat, bmat)
        assert (code, report["status"]) == (0, "ok")
    else:
        with pytest.raises(q.ValidationError, match="must be Hermitian"):
            q.load_channel(path)
        assert (code, report["error"]["code"]) == (1, "ValidationError")


def test_load_channel_rejects_wrong_shapes(tmp_path):
    doc = {
        "format_version": "1",
        "dim": 2,
        "representation": "kraus",
        "data": [{"weight": 1.0, "matrix": q.encode_matrix(np.eye(3))}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(q.ValidationError):
        q.load_channel(path)
    doc["representation"] = "dynamical_matrix"
    doc["data"] = q.encode_matrix(np.eye(9))
    path.write_text(json.dumps(doc))
    with pytest.raises(q.ValidationError):
        q.load_channel(path)


def test_load_channel_structural_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(q.ParseError):
        q.load_channel(path)
    path.write_text(json.dumps({"format_version": "99", "dim": 2}))
    with pytest.raises(q.ParseError):
        q.load_channel(path)
    path.write_text(json.dumps({"format_version": "1", "dim": -1}))
    with pytest.raises(q.ParseError):
        q.load_channel(path)
    path.write_text(
        json.dumps({"format_version": "1", "dim": 2, "representation": "magic", "data": []})
    )
    with pytest.raises(q.ParseError):
        q.load_channel(path)


def test_instrument_round_trip_keeps_labels_and_padding(tmp_path):
    inst = q.pad_to_complete(
        q.Instrument(dim=2, maps=(("0", q.map_from_kraus([(1.0, P0)], 2)),))
    )
    path = tmp_path / "inst.json"
    q.save_instrument_spec(path, inst)
    loaded = q.load_instrument(path)
    assert loaded.labels == inst.labels
    assert loaded.padded_index == inst.padded_index
    assert loaded.complete
    for (_, a), (_, b) in zip(inst.maps, loaded.maps):
        assert np.array_equal(a.bmat, b.bmat)


def test_shipped_instrument_fixtures_load():
    basis = q.load_instrument(instrument_path("computational_basis.json"))
    assert basis.labels == ("0", "1")
    assert basis.complete
    partial = q.load_instrument(instrument_path("p0_projection.json"))
    assert partial.labels == ("0",)
    assert not partial.complete


def test_load_instrument_rejects_duplicate_labels(tmp_path):
    payload = {
        "label": "same",
        "representation": "kraus",
        "data": [{"weight": 1.0, "matrix": q.encode_matrix(P0)}],
    }
    doc = {"format_version": "1", "dim": 2, "outcomes": [payload, dict(payload)]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(q.ValidationError):
        q.load_instrument(path)


def test_shipped_state_fixtures_load(plus_state):
    plus = q.load_state(state_path("plus.json"))
    assert q.max_abs(plus.mat - plus_state.mat) == 0.0
    excited = q.load_state(state_path("excited.json"))
    assert q.max_abs(excited.mat - np.diag([0.0, 1.0])) == 0.0


def test_state_round_trip(tmp_path):
    rho = q.random_density(3, 72)
    path = tmp_path / "state.json"
    q.save_state_spec(path, rho)
    assert np.array_equal(q.load_state(path).mat, rho.mat)


def test_load_state_rejects_invalid_state(tmp_path):
    doc = {
        "format_version": "1",
        "dim": 2,
        "matrix": q.encode_matrix(np.diag([0.7, 0.7])),
    }
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(q.ValidationError):
        q.load_state(path)


SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, 1e-5, 1e16, 1e22, np.nan, np.inf, -np.inf,
    # Powers of two, whose rounding windows are lopsided, and the floats next
    # to where repr switches between its positional and exponent layouts.
    0.5, 2.0**-30, 2.0**60, 2.0**-1022,
    float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e-4, 1)),
    float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, 2e16)),
)


@st.composite
def complex_arrays(draw):
    shape = draw(
        st.one_of(
            st.just((1, 1)),
            st.tuples(st.just(1), st.integers(1, 5)),
            st.tuples(st.integers(1, 5), st.just(1)),
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            # Wide rows, so each row's template spans many [re, im] pairs.
            st.one_of(
                st.tuples(st.just(1), st.integers(6, 64)),
                st.tuples(st.integers(1, 8), st.integers(1, 8)),
            ),
        )
    )
    parts = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    flat = draw(st.lists(parts, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1]))
    return np.array(flat, dtype=float).view(complex).reshape(shape)


def json_trees(leaves):
    keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=12,
    )


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())


def encode_arrays(tree):
    """The tree json.dumps sees once every array is an encode_matrix list."""
    if isinstance(tree, np.ndarray):
        return q.encode_matrix(tree)
    if isinstance(tree, (list, tuple)):
        return [encode_arrays(v) for v in tree]
    if isinstance(tree, dict):
        return {k: encode_arrays(v) for k, v in tree.items()}
    return tree


# At least 200 examples; a larger profile, such as conftest.py's "ci", raises it.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(tree=json_trees(st.one_of(SCALARS, complex_arrays())))
def test_write_json_equals_json_dumps_indent_2(tree):
    want = json.dumps(encode_arrays(tree), indent=2) + "\n"
    # Small arrays take float.__repr__'s path; with no minimum, the kernel's.
    for kernel_min in (_floattext._KERNEL_MIN, 0):
        buf = StringIO()
        with mock.patch.object(_floattext, "_KERNEL_MIN", kernel_min):
            write_json(tree, buf)
        assert buf.getvalue() == want


def test_write_json_refuses_arrays_that_are_not_matrices():
    with pytest.raises(TypeError, match="2-d"):
        write_json({"v": np.zeros(3)}, StringIO())


def decode_by_entry(obj):
    """Reference decoder: one complex() per [re, im] pair."""
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)


PAIR_PARTS = {
    "floats": st.floats(),
    "ints": st.integers(-(2**1023), 2**1023),
    "bools": st.booleans(),
    "mixed": st.one_of(st.floats(), st.integers(-(2**70), 2**70)),
}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(PAIR_PARTS)),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_decode_matrix_equals_the_entry_by_entry_reference(data, kind, shape):
    rows, cols = shape
    pair = st.lists(PAIR_PARTS[kind], min_size=2, max_size=2)
    row = st.lists(pair, min_size=cols, max_size=cols)
    obj = data.draw(st.lists(row, min_size=rows, max_size=rows))
    got = q.decode_matrix(obj, "m")
    want = decode_by_entry(obj)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

