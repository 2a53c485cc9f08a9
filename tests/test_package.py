"""The package's export list and the signatures that hold its bounds."""

import inspect

import pytest

import qdilate as q


def test_every_exported_name_resolves_once():
    assert len(set(q.__all__)) == len(q.__all__)
    missing = [name for name in q.__all__ if not hasattr(q, name)]
    assert missing == []


@pytest.mark.parametrize(
    "name, params",
    [
        ("check_properties", ["dmap"]),
        ("check_completeness", ["inst"]),
        ("canonical_decompose", ["dmap"]),
        ("measure_via_dilation", ["dil", "rho"]),
        ("outcome_statistics", ["inst", "rho"]),
    ],
)
def test_the_library_bounds_take_no_per_call_override(name, params):
    # DEFAULT_TOL, TRUNCATION_TOL and POST_STATE_THRESHOLD decide these
    # verdicts, cutoffs and post states; no caller can re-decide them.
    assert list(inspect.signature(getattr(q, name)).parameters) == params
