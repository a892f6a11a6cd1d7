import tracemalloc

import pytest


def _traced(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced
