import contextlib
import sys
from unittest import mock

import pytest

import lamclock.compare as compare
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


@pytest.fixture(scope="session")
def search_bounds():
    """A context manager that sets ``compare``'s fixed search bound, the
    floor ``SIZE_LIMIT`` of the size rule, to its keyword argument.  It
    is not part of a profile cache's key, so both caches are emptied on
    entry and on exit: no verdict made under another floor is served.
    Session-scoped, so that Hypothesis tests may use it too."""

    def clear():
        compare._report.cache_clear()
        compare._simple_reduct.cache_clear()

    @contextlib.contextmanager
    def setting(**bounds):
        with contextlib.ExitStack() as patches:
            for name, value in bounds.items():
                patches.enter_context(mock.patch.object(compare, name, value))
            clear()
            try:
                yield
            finally:
                clear()

    return setting
