import numpy as np
import pytest

from pfkern.families import (Charlier, DomainError, Krawtchouk, Meixner, QuadratureError,
                             TruncatedLattice, truncate)
from pfkern.kernels import rank_of
from pfkern.lattice_ops import apply_eps, build_d, build_epsilon_direct
from pfkern.kuznetsov import GaussianTest, m_h
from pfkern.symbols import (ContourSpec, _circle_rows, contour_rows, degree_integrand,
                            degree_prefactor, default_contour, eps_multiplier,
                            eps_phi_via_contour, inverse_eps_symbol, meixner_G, ratio_map,
                            symbol, unit_roots)
from pfkern.wavefunctions import get_table


def _nodes_and_weights(spec):
    """The circle's trapezoid nodes z and weights z / n, as `_circle_rows` takes them."""
    z = spec.radius * unit_roots(spec.node_count)
    return z, z / spec.node_count


# xi -> 1, small and large theta, p near 0 and 1, and N up to M
_CONTOUR_GRID = ([(Meixner(xi=xi), N) for xi in (0.01, 0.25, 0.64, 0.81, 0.9, 1 - 1.05 / 64,
                                                  0.99, 1 - 1e-6) for N in (1, 32)]
                 + [(Charlier(theta=th), N) for th in (1e-3, 0.05, 1.0, 96.0, 768.0)
                    for N in (1, 64, 800)]
                 + [(Krawtchouk(M=M, p=p), N) for M, p in ((20, 0.5), (64, 1e-3), (64, 0.4),
                                                          (64, 0.999), (600, 0.02), (600, 0.98))
                    for N in (1, M // 2, M - 1, M)])


@pytest.mark.parametrize("fam, N", _CONTOUR_GRID,
                         ids=[f"{f.name}-" + "-".join(f"{v:g}" for v in vars(f).values())
                              + f"-N{N}" for f, N in _CONTOUR_GRID])
def test_default_contours_lie_in_the_admissible_disc(fam, N):
    # every circle a block of rank r can extract on (degrees 0..r + 1, with and
    # without a multiplier) lies where the generating integrand is analytic
    # and has a power-of-two node count of at least 16
    if isinstance(fam, Meixner):
        lo, hi = fam.s, 1.0
    elif isinstance(fam, Charlier):
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 0.0, min(1.0 / fam.p, 1.0 / fam.q)
    for kind in ("single", "eps"):
        for n in range(rank_of(fam, N) + 2):
            radius, nodes = default_contour(fam, kind, n)
            assert lo < radius < hi, (kind, n, radius)
            assert nodes >= 16 and nodes & (nodes - 1) == 0, (kind, n, nodes)


def test_contour_nodes_come_from_shared_read_only_roots():
    a = 2.0 * np.pi * np.arange(64) / 64
    assert np.array_equal(unit_roots(64), np.exp(1j * a))
    roots = unit_roots(64)
    assert roots is unit_roots(64) and not roots.flags.writeable


def test_meixner_G_values():
    s = np.sqrt(0.5)
    assert meixner_G(0, 0.9 + 0j, s) == pytest.approx(1.0)
    assert meixner_G(1, 1.0 + 0j, s) == pytest.approx(1.0)
    for m in (1, 2, 5):
        assert meixner_G(m, s + 0j, s) == 0.0


def test_symbol_identities_on_grid():
    # Krawtchouk: m_K (R^2 - 1) == 1
    rng = np.random.default_rng(7)
    z = 0.3 + 0.5 * rng.random(100) * np.exp(2j * np.pi * rng.random(100))
    kr = Krawtchouk(M=60, p=0.4)
    r = ratio_map(kr, z)
    assert np.max(np.abs(symbol(kr, z) * (r * r - 1.0) - 1.0)) < 1e-14


def test_meixner_eps_symbol_at_zero():
    mx = Meixner(xi=0.5, beta_m=1.0)
    assert symbol(mx, np.array([1e-9 + 0j])) == pytest.approx(-1.0, abs=1e-8)


def test_inverse_eps_symbol_is_reciprocal_of_shift_difference():
    # (shift - shift^{-1}) * inverse_eps == 1 in the shift variable
    z = 0.4 * np.exp(2j * np.pi * np.linspace(0, 1, 37, endpoint=False))
    ch = Charlier(theta=2.0)
    d = (1 + z) - 1 / (1 + z)
    assert np.max(np.abs(d * inverse_eps_symbol(ch, z) - 1)) < 1e-14
    kr = Krawtchouk(M=30, p=0.3)
    r = ratio_map(kr, z)
    assert np.max(np.abs((r - 1 / r) * inverse_eps_symbol(kr, z) - 1)) < 1e-14
    mx = Meixner(xi=0.25, beta_m=1.0)
    d = (1 / z - z) / mx.s
    assert np.max(np.abs(d * inverse_eps_symbol(mx, z) - 1)) < 1e-14


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Krawtchouk(M=60, p=0.4)],
                         ids=lambda f: f.name)
def test_phi_contour_matches_recurrence(fam):
    tab = get_table(fam, 16, x_max=40 if not fam.finite else None)
    for n in (0, 1, 5, 15):
        xs = np.arange(0, 41)
        vals = contour_rows(fam, [n], xs)[0]
        assert np.max(np.abs(vals - tab.phi[n, :41])) < 1e-9


def test_phi_contour_matches_recurrence_meixner():
    fam = Meixner(xi=0.25, beta_m=1.0)
    tab = get_table(fam, 16, x_max=40)
    for n in (0, 1, 7, 15):
        xs = np.arange(0, 41)
        vals = contour_rows(fam, [n], xs)[0]
        assert np.max(np.abs(vals - tab.phi[n, :41])) < 1e-9


def test_meixner_beta2_contour_rejected():
    with pytest.raises(DomainError, match="beta_m = 1"):
        contour_rows(Meixner(xi=0.5, beta_m=2.0), [1], 3)


def test_radius_independence():
    fam = Charlier(theta=1.0)
    prefactor = degree_prefactor(fam, np.arange(7), [11])
    a = _circle_rows(fam, [6], [11], ContourSpec(radius=0.3, node_count=256), None, prefactor)
    b = _circle_rows(fam, [6], [11], ContourSpec(radius=0.8, node_count=256), None, prefactor)
    a, b = a[0, 0], b[0, 0]
    assert a == pytest.approx(b, abs=1e-10)


def test_charlier_phi0_contour_residue():
    # integrand e^{-theta t}/t has residue 1, so phi_0(x) = sqrt(w(x)/h_0)
    fam = Charlier(theta=1.0)
    for x in (0, 3, 9):
        assert contour_rows(fam, [0], x)[0, 0] == pytest.approx(
            np.exp(0.5 * fam.log_weight(x)), rel=1e-10)


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Meixner(xi=0.25, beta_m=1.0),
                                 Krawtchouk(M=60, p=0.4)], ids=lambda f: f.name)
def test_eps_phi_contour_vs_lattice(fam):
    # Meixner's eps is the contour multiplier; the other families apply the
    # lattice eps to their contour rows, as the contour route of gram_block does
    lat = truncate(fam, 0) if fam.finite else TruncatedLattice(x_max=160)
    tab = get_table(fam, 12, x_max=None if fam.finite else lat.x_max)
    eps = build_epsilon_direct(fam, lat).mat
    d = build_d(fam, lat).mat
    half = lat.x_max // 2

    def eps_phi(n, ys):
        if fam.name == "meixner":
            return eps_phi_via_contour(fam, n, ys)
        return apply_eps(fam, contour_rows(fam, [n], np.arange(lat.size))[0])[ys]

    for n in (0, 3, 8):
        truth = eps @ tab.phi[n, : lat.size]
        vals = eps_phi(n, np.arange(half + 1))
        assert np.max(np.abs(vals - truth[: half + 1])) < 1e-8
        # D applied to the contour image reproduces phi_n
        rec = d @ eps_phi(n, np.arange(lat.size))
        assert np.max(np.abs(rec[:half] - tab.phi[n, :half])) < 1e-8


def test_contour_rows_pick_the_eps_circle_exactly_with_a_multiplier():
    # Meixner xi = 0.25 extracts on 256 nodes, and its eps images on 2048
    fam = Meixner(xi=0.25, beta_m=1.0)
    xs, mult = np.arange(30), eps_multiplier(fam)
    single, eps = default_contour(fam, "single", 3), default_contour(fam, "eps", 3)
    assert (single.node_count, eps.node_count) == (256, 2048)
    for n in (0, 3, 7):
        assert {default_contour(fam, "single", n), default_contour(fam, "eps", n)} == {single, eps}
        assert np.array_equal(contour_rows(fam, [n], xs),
                              _circle_rows(fam, [n], xs, single, None, None))
        assert np.array_equal(contour_rows(fam, [n], xs, mult),
                              _circle_rows(fam, [n], xs, eps, mult, None))
        # a scalar site gives the float of the array call's entry
        one = eps_phi_via_contour(fam, n, 4)
        assert type(one) is float and one == eps_phi_via_contour(fam, n, xs)[4]


def _meixner_defining_sums(fam, spec, degrees, xs):
    """[n, x] sums sum_j core_j w_j z_j^-(x+1), core = sqrt(1 - s^2)/(1 - s z)
    ((z - s)/(1 - s z))^n, over the circle's nodes, and sum_j |term_j|, in
    extended precision."""
    z, w = (a.astype(np.clongdouble) for a in _nodes_and_weights(spec))
    s = np.longdouble(fam.s)
    Z = z ** -(np.asarray(xs)[:, None] + 1)
    ref, mag = [], []
    for n in degrees:
        core_w = np.sqrt(1 - s * s) / (1 - s * z) * ((z - s) / (1 - s * z)) ** n * w
        ref.append(Z @ core_w)
        mag.append(np.abs(Z) @ np.abs(core_w))
    return np.array(ref).real, np.array(mag)


@pytest.mark.parametrize("case", ["one", "crossover"])
def test_meixner_extraction_matches_defining_sum(case):
    # 'one': _circle_rows of one degree on a 64-node circle, sites beyond the
    # node count included (they alias onto x mod n in both).  'crossover':
    # contour_rows of the degrees 0..64 that share the 16384-node circle of
    # the hard-edge crossover, a running product FFT'd in chunks
    if case == "one":
        fam = Meixner(xi=0.36, beta_m=1.0)
        spec = ContourSpec(radius=0.8, node_count=64)
        degrees, xs = [5], np.array([0, 1, 7, 62, 63, 64, 65, 130, 200])
        got = _circle_rows(fam, degrees, xs, spec, None, None)
    else:
        fam = Meixner(xi=1 - 1.05 / 64)
        spec = default_contour(fam, "single", 0)
        degrees, xs = range(65), np.arange(41)
        assert spec.node_count == 16384
        assert {default_contour(fam, "single", n) for n in degrees} == {spec}
        got = contour_rows(fam, degrees, xs)
    ref, mag = _meixner_defining_sums(fam, spec, degrees, xs)
    assert np.all(np.abs(got - ref) <= 1e-13 * mag)
    if case == "one":
        # below the node count the sum is the wave function itself
        tab = get_table(fam, 6, x_max=40)
        assert np.max(np.abs(got[0, :3] - tab.phi[5, xs[:3]])) < 1e-12


def test_meixner_rows_memory_is_chunked(traced_peak):
    # 65 rows of 16384 nodes stacked would take 17 MB
    fam = Meixner(xi=1 - 1.05 / 64)
    rows, peak = traced_peak(lambda: contour_rows(fam, range(65), range(41)))
    assert rows.shape == (65, 41) and np.all(np.isfinite(rows))
    assert peak < 4 * 2 ** 20


def test_meixner_extraction_memory_is_linear(traced_peak):
    # xi = 0.99 takes 16384 nodes; a sites x nodes array would need 9.5 GB
    fam = Meixner(xi=0.99, beta_m=1.0)
    vals, peak = traced_peak(lambda: contour_rows(fam, [3], np.arange(36368))[0])
    assert vals.shape == (36368,) and np.all(np.isfinite(vals))
    assert peak < 64 * 2 ** 20


def _spliced(fam):
    test = GaussianTest(sigma=2.0)
    return eps_multiplier(fam, lambda z: m_h(test, z))


def _defining_sums(fam, xs, z, v):
    """sum_j exp(log c_j + x log a_j) v_j and sum_j |term_j| in extended
    precision, from the printed generating integrands."""
    zl = np.asarray(z, dtype=np.clongdouble)
    if isinstance(fam, Charlier):
        log_c, log_a = -np.longdouble(fam.theta) * zl, np.log(1 + zl)
    else:
        log_p = np.log(1 + np.longdouble(fam.p) * zl)
        log_c, log_a = fam.M * log_p, np.log(1 - np.longdouble(fam.q) * zl) - log_p
    xl = np.atleast_1d(xs).astype(np.longdouble)[:, None]
    terms = np.exp(log_c + xl * log_a) * np.asarray(v, dtype=np.clongdouble)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


_INTEGRAND_FAMILIES = [Charlier(theta=1.0), Charlier(theta=96.0), Krawtchouk(M=64, p=0.4),
                       Krawtchouk(M=200, p=0.4), Krawtchouk(M=200, p=0.6), Krawtchouk(M=600, p=0.4)]


@pytest.mark.parametrize("fam, rows", [(f, False) for f in _INTEGRAND_FAMILIES]
                         + [(Charlier(theta=1.0), True)],
                         ids=[f"{f.name}-{getattr(f, 'theta', getattr(f, 'M', 0))}"
                              + (f"-p{f.p}" if f.finite and f.p != 0.4 else "")
                              for f in _INTEGRAND_FAMILIES] + ["charlier-1.0-rows"])
@pytest.mark.parametrize("spliced", [False, True], ids=["plain", "spliced"])
def test_degree_integrand_matches_defining_sum(fam, rows, spliced):
    # the blocked product against the node sum it replaces, on each degree's
    # own circle: every degree up to 96, then every 8th.  The reference is
    # taken on every 8th site, offset by the degree, plus B - 1, B, B + 1 for
    # the internal block length B = floor(sqrt(L)).  A window far from 0 and
    # scalar sites are checked every 16th degree.  The last two families put
    # (1 + p z)^M below the double range at z = -r on the high-degree circles
    # while the terms at x near M there are the largest of the sum.  The
    # degrees of one circle are also summed as one stacked call.  'rows'
    # checks contour_rows, whose degrees >= 1 all share the clipped 0.97
    # circle at theta = 1, against the prefactor times the same references,
    # up to degree 96 (the prefactor sqrt(n!/x!) overflows past a few hundred).
    L = fam.M + 1 if fam.finite else 785
    xs, B = np.arange(L), int(np.sqrt(L))
    kind = "eps" if spliced else "single"
    degrees = np.r_[0:97] if rows else np.r_[0:min(L - 1, 96) + 1, 97:L:8]
    circles = {}
    for n in degrees:
        circles.setdefault(default_contour(fam, kind, n), []).append(n)
    if rows:
        got = dict(zip(degrees, contour_rows(fam, degrees, xs, _spliced(fam) if spliced else None)))
    for spec, ns in circles.items():
        z, w = _nodes_and_weights(spec)
        mult = _spliced(fam)(z) if spliced else 1.0
        V = mult * w * z ** (-np.array(ns)[:, None] - 1)
        stacked = degree_integrand(fam, xs, z, V)
        for n, v, row in zip(ns, V, stacked):
            sites = np.unique(np.r_[np.arange(n % 8, L, 8), B - 1, B, B + 1, L - 1])
            if rows:    # where the prefactor is a normal double, not a subnormal one
                sign, log_fact, half_log_h, site = degree_prefactor(fam, n, sites)
                logmag = site + log_fact - half_log_h
                normal = logmag > np.log(np.finfo(float).tiny)
                sites, scale = sites[normal], np.exp(logmag[normal])
                ref, mag = _defining_sums(fam, sites, z, v)
                assert np.all(np.abs(got[n][sites] - sign * scale * ref.real)
                              <= 1e-13 * scale * mag), (n, sites)
                continue
            checks = [(sites, degree_integrand(fam, xs, z, v)[sites], row[sites])]
            if n % 16 == 0:
                part = np.arange(max(L - 85, 1), L)[::3]
                checks.append((part, degree_integrand(fam, part, z, v)))
                for x in (0, B + 1, L - 1):
                    one = degree_integrand(fam, x, z, v)
                    assert np.ndim(one) == 0
                    checks.append(([x], np.atleast_1d(one)))
            for sites, *vals in checks:
                ref, mag = _defining_sums(fam, sites, z, v)
                for val in vals:
                    assert np.all(np.abs(val - ref) <= 1e-13 * mag), (n, sites)


def test_charlier_extraction_memory_is_linear(traced_peak):
    # one sites x nodes complex array alone would take 3.2 MB
    fam = Charlier(theta=96.0)
    spec, mult = default_contour(fam, "eps", 60), _spliced(fam)
    prefactor = degree_prefactor(fam, np.arange(61), np.arange(785))
    vals, peak = traced_peak(
        lambda: _circle_rows(fam, [60], np.arange(785), spec, mult, prefactor)[0])
    assert vals.shape == (785,) and np.all(np.isfinite(vals))
    assert peak < 2 ** 20


def test_overflowing_prefactor_is_refused():
    # the node sums of degree 400 are finite, but its prefactor 400! overflows
    with pytest.raises(QuadratureError, match="degree 400"):
        contour_rows(Charlier(theta=1.0), [400], range(5))


def test_nonfinite_extraction_is_refused():
    # e^(-theta z) overflows on the radius-0.97 circle once theta * 0.97 > 709;
    # Tier-1 turns any RuntimeWarning on the way into a failure
    fam = Charlier(theta=768.0)
    with pytest.raises(QuadratureError, match="degree 760 .* radius 0.97"):
        contour_rows(fam, [760], np.arange(5))
    # sites far from 0, where every term is in range, are still extracted.
    # The exponents reach theta r = 745 here, and rounding them alone puts
    # a per-site evaluation 7e-14 off the reference; the blocked sum is 1.0e-13
    window = np.arange(700, 761)
    assert np.all(np.isfinite(contour_rows(fam, [760], window)))
    z, w = _nodes_and_weights(default_contour(fam, "single", 760))
    v = w * z ** (-761)
    ref, mag = _defining_sums(fam, window, z, v)
    assert np.all(np.abs(degree_integrand(fam, window, z, v) - ref) <= 2e-13 * mag)


@pytest.mark.parametrize("fam", [Meixner(xi=0.25), Charlier(theta=1.0), Krawtchouk(M=20, p=0.4)],
                         ids=["meixner", "charlier", "krawtchouk"])
def test_non_finite_rows_raise_in_every_family(fam):
    # one infinite multiplier value on the circle makes every row non-finite:
    # a QuadratureError, in the FFT route of Meixner too
    blowup = lambda z: np.where(np.arange(z.size) == 1, np.inf, 1.0)
    with np.errstate(all="ignore"), pytest.raises(QuadratureError,
                                                  match="degree 0 extraction on radius"):
        contour_rows(fam, [0, 1], np.arange(6), blowup)
