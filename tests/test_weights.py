import math

import numpy as np
import pytest

from pfkern.families import Charlier, DomainError, Krawtchouk, Meixner, log_gamma, truncate
from pfkern.wavefunctions import full_row, get_table, window_rows

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


def test_log_gamma_against_math_lgamma():
    # integers up to 10^7, the lattice bound `truncate` can reach, and
    # half-integers; one call per array, and the shape of the argument kept
    ints = np.unique(np.r_[1:20001, np.geomspace(1, 1e7, 4000).round()])
    for x in (ints, ints - 0.5, np.linspace(0.01, 12.0, 1200)):
        ref = np.array([math.lgamma(v) for v in x])
        assert np.max(np.abs(log_gamma(x) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14
    assert log_gamma(np.full((2, 3), 4.5)).shape == (2, 3) and log_gamma(5.0).shape == ()


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
        lat = truncate(fam, 0)
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
    # the window rows at the same sites, and the full row of the top degree
    rows = window_rows(fam, 769, sites)
    top = full_row(fam, 769, tab.lattice.size)
    worst = np.zeros(3)
    with mp.workdps(400):
        for n in (0, 1, 2, 100, 383, 384, 600, 768, 769):
            for i, x in enumerate(sites):
                exact = float(_phi_mpmath(fam, n, x))
                worst = np.maximum(worst, abs(exact - np.array(
                    [tab.phi[n, x], rows[n, i], top[x] if n == 769 else exact])))
    assert np.all(worst < 5e-13)


def test_wave_table_peak_memory_is_one_table(traced_peak):
    # one pass per degree: phi is the only table-sized array of the build
    tab, peak = traced_peak(lambda: get_table(Charlier(theta=768.0), 769))
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


@pytest.mark.parametrize("fam, n", [(Charlier(theta=30.0), 30), (Krawtchouk(M=20, p=0.4), 20)],
                         ids=["charlier", "krawtchouk"])
def test_wave_table_spare_rows_extend_its_buffer(fam, n):
    # spare rows follow phi in one buffer and change no value of it
    from pfkern.wavefunctions import table_lattice, wave_table
    lattice = table_lattice(fam, n + 1, 0)
    tab = wave_table(fam, n, lattice, 2)
    assert tab.rows.shape == (n + 3, lattice.size) and tab.n_max == n
    assert tab.phi.base is tab.rows and np.array_equal(tab.phi, wave_table(fam, n, lattice).phi)


def test_log_weight_takes_one_log_gamma_call(monkeypatch):
    # the scalar log Gamma(beta_m) or log M! is computed once, not on every call
    import pfkern.families as families
    calls, lg = [], families.log_gamma
    monkeypatch.setattr(families, "log_gamma", lambda x: calls.append(np.shape(x)) or lg(x))
    for fam in (Meixner(xi=0.3, beta_m=2.5), Krawtchouk(M=40, p=0.3)):
        first = fam.log_weight(np.arange(5.0))
        calls.clear()
        assert np.array_equal(fam.log_weight(np.arange(5.0)), first) and calls == [(2, 5)]


def test_truncate_weighs_each_site_once(monkeypatch):
    # each doubling of the search window adds the new sites' log weights only
    sites, lw = [], Charlier.log_weight
    monkeypatch.setattr(Charlier, "log_weight", lambda self, x: sites.append(x) or lw(self, x))
    lattice = truncate(Charlier(theta=2000.0), 0)
    assert len(sites) > 2 and np.array_equal(np.concatenate(sites), np.arange(sites[-1][-1] + 1))
    assert lattice.x_max < sites[-1][-1]


def _study_window(regime, A, where):
    """(family, N, window sites) of the bulk frame at u = where, or of the right edge frame."""
    from pfkern.harness import bulk_frame, edge_frame
    from pfkern.saddles import edge_data
    if where == "edge":
        fam, N = regime.family_and_N(A)
        return edge_frame(regime, A, edge_data(fam, N), np.linspace(-3.5, 1.5, 13))[:3]
    return bulk_frame(regime, A, where)[:3]


STUDY_WINDOWS = [("charlier", {"tau": 1.0}, 2.0), ("meixner", {"xi": 0.25}, 1.0),
                 ("krawtchouk", {"gamma": 0.25, "p": 0.4}, 0.3),
                 ("krawtchouk", {"gamma": 0.9, "p": 0.4}, 0.5)]


@pytest.mark.parametrize("A", [96, 768])
@pytest.mark.parametrize("where", ["bulk", "edge"])
@pytest.mark.parametrize("kind, params, u", STUDY_WINDOWS,
                         ids=["charlier", "meixner", "krawtchouk", "krawtchouk-gamma0.9"])
def test_window_rows_match_the_table(kind, params, u, where, A):
    # phi_0..phi_r at the studies' windows, with no table, against the table's
    # columns, relative to the largest entry of the block K they give
    from pfkern.harness import Regime
    from pfkern.kernels import oracle_lattice, rank_of
    from pfkern.wavefunctions import wave_table
    fam, N, xs = _study_window(Regime(kind, **params), A, u if where == "bulk" else "edge")
    r = rank_of(fam, N)
    table = wave_table(fam, r, oracle_lattice(fam, N, xs)).phi[:, xs]
    K = table[:r].T @ table[:r]
    assert np.max(np.abs(window_rows(fam, r, xs) - table)) <= 1e-11 * np.max(np.abs(K))


@pytest.mark.parametrize("p", [0.05, 0.95])
@pytest.mark.parametrize("where", ["bulk", "edge"])
def test_window_rows_at_extreme_p_against_exact_arithmetic(p, where):
    # gamma = 0.9 at p near 0 or 1: each site is past the zone of the top degrees,
    # where the rows come from the backward recurrence; 300-digit forward
    # recurrence as the reference
    import mpmath as mp
    from pfkern.harness import Regime
    from pfkern.kernels import rank_of
    from pfkern.saddles import bulk_support
    regime = Regime("krawtchouk", gamma=0.9, p=p)
    fam, N = regime.family_and_N(96)
    fam, N, xs = _study_window(regime, 96, sum(bulk_support(fam, N)) / 2
                               if where == "bulk" else "edge")
    r, M = rank_of(fam, N), fam.M
    with mp.workdps(300):
        pp, q = mp.mpf(p), 1 - mp.mpf(p)
        exact = np.empty((r + 1, xs.size))
        for j, x in enumerate(xs):
            prev, cur = mp.mpf(0), mp.sqrt(mp.binomial(M, x) * pp ** x * q ** (M - x))
            exact[0, j] = float(cur)
            for n in range(r):
                b_n, b_next = (mp.sqrt(k * pp * q * (M - k + 1)) for k in (n, n + 1))
                prev, cur = cur, ((x - pp * (M - n) - n * q) * cur - b_n * prev) / b_next
                exact[n + 1, j] = float(cur)
    assert np.max(np.abs(window_rows(fam, r, xs) - exact)) < 1e-13


@pytest.mark.parametrize("kind, params, u", STUDY_WINDOWS,
                         ids=["charlier", "meixner", "krawtchouk", "krawtchouk-gamma0.9"])
def test_full_row_matches_the_table_past_the_turning_point(kind, params, u):
    # phi_b, b = r - 1, over the whole oracle lattice in O(L): forward to the
    # turning point, Miller's backward recurrence past it
    from pfkern.harness import Regime
    from pfkern.kernels import beta1_indices, oracle_lattice
    from pfkern.wavefunctions import wave_table
    fam, N, xs = _study_window(Regime(kind, **params), 384, u)
    lattice = oracle_lattice(fam, N, xs)
    b = beta1_indices(fam, N)[1]
    want = wave_table(fam, b, lattice).phi[b]
    a_b, b2_b = fam.jacobi(float(b))
    assert a_b + 2 * np.sqrt(b2_b) < lattice.x_max or fam.finite   # a tail past the turning point
    assert np.max(np.abs(full_row(fam, b, lattice.size) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [16, 32, 64, 256])
@pytest.mark.parametrize("alpha", [0.25, 0.97, 1.0, 1.034445, 1.05, 8.0, 31.9])
def test_window_rows_at_the_hard_edge_against_mpmath(meixner_rows_mpmath, alpha, N):
    # the crossover's window, sites 0..40 at xi = 1 - alpha/(2N): Miller's start lies about
    # 40 / (1 - xi) degrees past n_max, and just above a_0 = xi/(1 - xi) the Meixner zone
    # holds sites whose dual zone edge is far later
    xi, xs = 1.0 - alpha / (2 * N), np.arange(41)
    err = np.max(np.abs(window_rows(Meixner(xi=xi), 2 * N, xs) - meixner_rows_mpmath(xi, 2 * N, xs)))
    assert err < (1e-13 if N <= 64 else 1e-12)
