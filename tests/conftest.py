import tracemalloc

import pytest


def _traced(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced():
    """traced(fn, *args) -> (fn(*args), peak bytes allocated during the call)."""
    return _traced
