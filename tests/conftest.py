import pytest

import cwtower.cli
import cwtower.factorization


@pytest.fixture
def never_cellular(monkeypatch):
    """Make the cellularity predicate false wherever it is read."""
    for module in (cwtower.cli, cwtower.factorization):
        monkeypatch.setattr(module, "is_cellular", lambda f: False)
