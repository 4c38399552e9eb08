import pytest

from cwtower.homsearch import SquareTable


@pytest.fixture
def never_cellular(monkeypatch):
    """Make every search table's cellularity predicate false."""
    monkeypatch.setattr(SquareTable, "cellular", property(lambda table: False))
