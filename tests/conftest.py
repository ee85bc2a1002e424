import pytest

from cascade_rd import discrete


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with no kept anchor or oracle table.

    A result kept by an earlier test, perhaps under a monkeypatched solver,
    would otherwise answer this one.
    """
    discrete._anchor.cache_clear()
    discrete._oracle_table.cache_clear()
