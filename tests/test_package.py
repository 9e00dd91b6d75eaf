"""The package namespace."""

import nilflow


def test_every_exported_name_resolves():
    missing = [name for name in nilflow.__all__ if not hasattr(nilflow, name)]
    assert missing == []
