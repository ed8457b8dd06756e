import sys

import pytest

from lamclock.combinators import standard_definitions


@pytest.fixture(scope="session")
def defs():
    return standard_definitions()


@pytest.fixture
def default_recursion_limit():
    """A fresh interpreter's recursion limit for one test, restored after it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)
