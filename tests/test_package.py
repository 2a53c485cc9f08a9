"""The package's export list."""

import qdilate as q


def test_every_exported_name_resolves_once():
    assert len(set(q.__all__)) == len(q.__all__)
    missing = [name for name in q.__all__ if not hasattr(q, name)]
    assert missing == []
