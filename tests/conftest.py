"""Makes the sibling helper modules importable from any invocation dir, and
holds the fixtures more than one test module uses."""

import sys
from pathlib import Path

import pytest

from bicmaps.series import MSeries

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def series_products(monkeypatch):
    """A one-element list counting series-by-series products from now on."""
    count = [0]
    real = MSeries.__mul__

    def counting(self, other):
        count[0] += isinstance(other, MSeries)
        return real(self, other)

    monkeypatch.setattr(MSeries, "__mul__", counting)
    monkeypatch.setattr(MSeries, "__rmul__", counting)
    return count
