import pytest

import wellround.boundary as boundary


@pytest.fixture
def cold_level_one():
    """The level-1 double complexes built afresh in the test, and dropped
    after it, so that no patched build outlives the test."""
    boundary._level_one.cache_clear()
    boundary._level_one_restriction.cache_clear()
    yield
    boundary._level_one.cache_clear()
    boundary._level_one_restriction.cache_clear()
