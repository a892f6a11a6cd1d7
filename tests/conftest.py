import tracemalloc

import numpy as np
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


def _meixner_rows_mpmath(xi, n_max, sites):
    """phi_0..phi_n_max of Meixner (beta_m = 1) at the sites, [degree, site], by the orthonormal
    degree recurrence in 60 digits from phi_0(x) = sqrt((1 - xi) xi^x)."""
    import mpmath as mp
    out = np.empty((n_max + 1, len(sites)))
    with mp.workdps(60):
        c = mp.mpf(xi)
        a = [(n * (1 + c) + c) / (1 - c) for n in range(n_max)]
        b = [n * mp.sqrt(c) / (1 - c) for n in range(n_max + 1)]
        for j, x in enumerate(sites):
            prev, cur = mp.mpf(0), mp.sqrt((1 - c) * c ** int(x))
            out[0, j] = float(cur)
            for n in range(n_max):
                prev, cur = cur, ((int(x) - a[n]) * cur - b[n] * prev) / b[n + 1]
                out[n + 1, j] = float(cur)
    return out


@pytest.fixture
def meixner_rows_mpmath():
    return _meixner_rows_mpmath
