import tracemalloc

import pytest


@pytest.fixture
def traced_growth():
    """``traced_growth(call, *args, **kwargs)`` runs the call under tracemalloc
    and returns its result and its traced peak above the memory traced when
    the call began, in bytes."""
    def measure(call, *args, **kwargs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak - start
    return measure
