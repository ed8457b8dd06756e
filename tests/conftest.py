import pytest

from lamclock.combinators import standard_definitions


@pytest.fixture(scope="session")
def defs():
    return standard_definitions()
