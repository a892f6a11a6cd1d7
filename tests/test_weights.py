import math

import numpy as np
import pytest

from pfkern.families import Charlier, DomainError, Krawtchouk, Meixner, truncate
from pfkern.wavefunctions import get_table

DESK = [
    Meixner(xi=0.5, beta_m=1.0),
    Meixner(xi=0.5, beta_m=2.0),
    Charlier(theta=1.0),
    Charlier(theta=4.0),
    Krawtchouk(M=60, p=0.4),
]


def weight(fam, x):
    return np.exp(fam.log_weight(x))


def test_weight_spot_values():
    assert weight(Charlier(theta=1.0), 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # (2)_1 / 1! * 0.5 = 1.0
    assert weight(Meixner(xi=0.5, beta_m=2.0), 1) == pytest.approx(1.0, rel=1e-14)
    # C(4,2) (1/2)^4 = 0.375
    assert weight(Krawtchouk(M=4, p=0.5), 2) == pytest.approx(0.375, rel=1e-14)


def test_weight_positive_and_domain():
    for fam in DESK:
        x = np.arange(0, 20 if not fam.finite else fam.M + 1)
        assert np.all(weight(fam, x) > 0)
    with pytest.raises(DomainError):
        Meixner(xi=1.5)
    with pytest.raises(DomainError):
        Charlier(theta=-1.0)
    with pytest.raises(DomainError):
        Krawtchouk(M=5, p=1.2)


def test_truncation_certificate():
    for fam in DESK:
        lat = truncate(fam)
        if fam.finite:
            assert lat.x_max == fam.M
            continue
        w = weight(fam, np.arange(lat.x_max + 1))
        assert w[-1] / w.max() < 1e-16
        # crude tail bound by geometric extension
        r = w[-1] / w[-2]
        assert r < 1.0
        assert w[-1] * r / (1 - r) < 1e-14 * w.sum()


@pytest.mark.parametrize("fam", DESK, ids=lambda f: repr(f))
def test_orthonormality_gram(fam):
    tab = get_table(fam, 30)
    G = tab.phi @ tab.phi.T
    assert np.max(np.abs(G - np.eye(31))) < 1e-9


def test_phi_normalization_and_orthogonality():
    fam = Charlier(theta=1.0)
    tab = get_table(fam, 30)
    for n in range(31):
        assert np.sum(tab.phi[n] ** 2) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.dot(tab.phi[0], tab.phi[1])) < 1e-10


def test_charlier_phi0_is_sqrt_weight():
    fam = Charlier(theta=1.0)
    x = np.arange(30)
    assert get_table(fam, 8).phi[0, x] == pytest.approx(np.sqrt(weight(fam, x)), abs=1e-13)


def norm_hn(fam, n):
    """Squared norm of the monic P_n, by the table's lattice summation."""
    return np.exp(get_table(fam, max(n, 8)).log_h[n])


def test_norm_hn_closed_forms():
    # closed forms are used as tests only
    assert norm_hn(Charlier(theta=1.0), 3) == pytest.approx(6.0, rel=1e-10)
    assert norm_hn(Charlier(theta=2.0), 2) == pytest.approx(8.0, rel=1e-10)
    assert norm_hn(Krawtchouk(M=4, p=0.5), 0) == pytest.approx(1.0, rel=1e-12)


def test_recurrence_exact_degree():
    # leading coefficient of monic P_n is 1, so P_n(x)/x^n -> 1
    fam = Charlier(theta=1.0)
    tab = get_table(fam, 6)
    # finite difference of order n of P_n equals n! (monic, exact degree)
    x = np.arange(12)
    w = weight(fam, x)
    for n in (2, 4, 6):
        vals = tab.phi[n, :12] / np.sqrt(w) * np.sqrt(np.exp(tab.log_h[n]))
        d = vals.copy()
        for _ in range(n):
            d = np.diff(d)
        assert d[0] == pytest.approx(math.factorial(n), rel=1e-8)


def test_duality_reflection_consistency():
    # entries filled by duality agree with an independent mpmath-free check:
    # evaluate the monic recurrence at a single deep-forbidden point in exact
    # rational-friendly parameters
    fam = Charlier(theta=1.0)
    tab = get_table(fam, 30)
    # p_30(0) = (-theta)^30 = 1, so phi_30(0) = sqrt(w(0)/h_30)
    expect = math.sqrt(weight(fam, 0) / norm_hn(fam, 30))
    assert tab.phi[30, 0] == pytest.approx(expect, rel=1e-10)


def _phi_mpmath(fam, n, x):
    """phi_n(x) at the working precision from the hypergeometric closed form
    of the monic polynomial and the closed-form monic norm h_n."""
    import mpmath as mp
    if isinstance(fam, Charlier):
        th = mp.mpf(fam.theta)
        p = (-th) ** n * mp.hyp2f0(-n, -x, -1 / th)
        log_w = -th + x * mp.log(th) - mp.loggamma(x + 1)
        log_h = mp.loggamma(n + 1) + n * mp.log(th)
    else:   # Meixner, beta_m = 1: w(x) = xi^x
        c = mp.mpf(fam.xi)
        p = mp.factorial(n) / (1 - 1 / c) ** n * mp.hyp2f1(-n, -x, 1, 1 - 1 / c)
        log_w = x * mp.log(c)
        log_h = 2 * mp.loggamma(n + 1) + n * mp.log(c) - (2 * n + 1) * mp.log(1 - c)
    return p * mp.exp((log_w - log_h) / 2)


@pytest.mark.parametrize("fam", [Charlier(theta=768.0), Meixner(xi=0.25)],
                         ids=["charlier", "meixner"])
def test_wave_table_against_mpmath(fam):
    # 400-digit values at n_max = 769, across the zone, its tails and, for
    # Meixner, the duality-filled left-forbidden corner (sites 0..50 at the
    # top degrees)
    import mpmath as mp
    from pfkern.wavefunctions import _bad_edges
    tab = get_table(fam, 769)
    sites = [0, 3, 50, 700, 1500, tab.lattice.x_max - 5]
    if fam.name == "meixner":
        deep, dual = _bad_edges(fam, 769, np.arange(tab.lattice.size, dtype=float))
        assert all(x < deep[769] and 769 > dual[x] for x in (0, 3, 50))
    worst = 0.0
    with mp.workdps(400):
        for n in (0, 1, 2, 100, 383, 384, 600, 768, 769):
            for x in sites:
                worst = max(worst, abs(float(_phi_mpmath(fam, n, x)) - tab.phi[n, x]))
    assert worst < 5e-13


def test_wave_table_peak_memory_is_one_table():
    # one pass per degree: phi is the only table-sized array of the build
    import tracemalloc
    tracemalloc.start()
    try:
        tab = get_table(Charlier(theta=768.0), 769)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tab.phi.nbytes


def test_wave_table_cache_is_keyed_on_the_lattice():
    # a lattice hint inside the truncated lattice keeps that lattice, and a
    # hint past it grows the lattice
    fam = Charlier(theta=96.0)
    lattice = get_table(fam, 40).lattice
    assert lattice.x_max > 150
    assert get_table(fam, 40, 150).lattice == lattice
    assert get_table(fam, 40, lattice.x_max + 1).lattice.x_max > lattice.x_max


def test_a_table_is_freed_with_its_last_reader():
    # no process-wide cache holds a table: once its reader drops it, the
    # table and its phi array are gone
    import gc
    import weakref
    tab = get_table(Charlier(theta=96.0), 40)
    refs = weakref.ref(tab), weakref.ref(tab.phi)
    del tab
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
