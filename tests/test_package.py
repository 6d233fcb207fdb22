"""The package's public surface."""

from __future__ import annotations

import quasirep


def test_every_export_resolves():
    missing = [name for name in quasirep.__all__ if not hasattr(quasirep, name)]
    assert missing == []
