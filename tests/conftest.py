"""Fixtures shared by the test modules."""

import pytest

from meijergap.kernel import _series_rings


@pytest.fixture
def fresh_series_rings():
    """An empty residue-ring cache before and after the test: a test that
    patches what the rings are built from must neither read an entry built
    without its patch nor leave one built with it, and a test that counts
    cache misses and hits sees a cold cache."""
    _series_rings.cache_clear()
    yield
    _series_rings.cache_clear()
