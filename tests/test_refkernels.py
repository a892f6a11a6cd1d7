import math

import mpmath
import numpy as np
import pytest
from scipy.special import airy as scipy_airy, jv

from pfkern.refkernels import (airy_ai, airy_kernel, bessel_j, bessel_kernel, legendre_nodes,
                               sine_kernel, sine_kernel_deriv)


def test_sine_kernel_values():
    assert sine_kernel(0.3, 0.3) == 1.0
    assert sine_kernel(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert sine_kernel(0.0, 0.5) == pytest.approx(2 / np.pi, rel=1e-14)


def test_sine_kernel_deriv_matches_fd():
    for r in (0.3, 1.1, -0.7):
        h = 1e-6
        fd = (sine_kernel(r + h, 0.0) - sine_kernel(r - h, 0.0)) / (2 * h)
        assert sine_kernel_deriv(r, 0.0) == pytest.approx(2 * fd, rel=1e-5, abs=1e-8)
    assert sine_kernel_deriv(0.0, 0.0) == 0.0


def _airy_maclaurin(x, terms=40):
    """(Ai, Ai') from the Maclaurin series Ai = c1 f - c2 g, where
    f = sum_k a_k x^{3k}, a_k = a_{k-1} / (3k (3k-1)), and
    g = sum_k b_k x^{3k+1}, b_k = b_{k-1} / ((3k+1) 3k)."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    x = np.asarray(x, dtype=float)
    f, fp = np.ones_like(x), np.zeros_like(x)
    g, gp = x.copy(), np.ones_like(x)
    a = b = 1.0
    for k in range(1, terms):
        a /= 3 * k * (3 * k - 1)
        b /= (3 * k + 1) * 3 * k
        f = f + a * x ** (3 * k)
        fp = fp + 3 * k * a * x ** (3 * k - 1)
        g = g + b * x ** (3 * k + 1)
        gp = gp + (3 * k + 1) * b * x ** (3 * k)
    return c1 * f - c2 * g, c1 * fp - c2 * gp


def test_airy_ai_against_scipy():
    # the contour rule on [-8, 8] and the asymptotic expansions beyond
    x = np.linspace(-30.0, 30.0, 6001)
    ai, aip = airy_ai(x)
    ref_ai, ref_aip = scipy_airy(x)[:2]
    assert np.max(np.abs(ai - ref_ai)) < 1e-13 and np.max(np.abs(aip - ref_aip)) < 1e-13


@pytest.mark.parametrize("nu", [0.0, 0.1, 0.5, 1.0, 1.05, 2.7, 10.0, 33.0, 65.0])
def test_bessel_j_against_scipy(nu):
    x = np.linspace(0.0, 80.0, 4001)
    j, j1 = bessel_j(nu, x)
    assert np.max(np.abs(j - jv(nu, x))) < 1e-13 and np.max(np.abs(j1 - jv(nu + 1, x))) < 1e-13
    # the start order follows each argument, not the largest one of the call
    assert np.array_equal(bessel_j(nu, x[:2001])[0], j[:2001])


def _airy_kernel_from(ai_x, aip_x, x, ai_y, aip_y, y):
    X, Y = x[:, None], y[None, :]
    num = ai_x[:, None] * aip_y[None, :] - aip_x[:, None] * ai_y[None, :]
    same = X == Y
    return np.where(same, aip_x[:, None] ** 2 - X * ai_x[:, None] ** 2,
                    num / np.where(same, 1.0, X - Y))


def test_airy_against_series_small():
    # the kernel on |s| <= 1.8 against one built from the Maclaurin series
    x = np.linspace(-1.8, 1.8, 13)
    ai, aip = _airy_maclaurin(x)
    ref = _airy_kernel_from(ai, aip, x, ai, aip, x)
    assert np.max(np.abs(airy_kernel(x) - ref)) < 1e-12


def test_airy_against_scipy():
    # the off-diagonal block of one call on [-8, 9]: rows follow x, columns
    # follow y, and a column equal to a row point takes the diagonal value
    x = np.linspace(-8.0, 9.0, 35)
    y = np.concatenate([np.linspace(-7.3, 8.6, 11), [x[4]]])
    ax, apx, _, _ = scipy_airy(x)
    ay, apy, _, _ = scipy_airy(y)
    K = airy_kernel(np.concatenate([x, y]))
    assert K.shape == (47, 47)
    assert np.max(np.abs(K[:35, 35:] - _airy_kernel_from(ax, apx, x, ay, apy, y))) < 1e-12
    # a pair 1e-12 apart is on the diagonal, not a 0/0
    near = airy_kernel(np.r_[x[4], x[4] + 1e-12])[0, 1]
    assert abs(near - (apx[4] ** 2 - x[4] * ax[4] ** 2)) < 1e-12


def test_airy_kernel_against_mpmath():
    # off the diagonal and on it, where K(s, s) = Ai'(s)^2 - s Ai(s)^2
    s = np.linspace(-8.0, 9.0, 35)
    with mpmath.workdps(30):
        ai = [mpmath.airyai(v) for v in s]
        aip = [mpmath.airyai(v, derivative=1) for v in s]
        ref = np.array([[float((ai[i] * aip[j] - aip[i] * ai[j]) / (s[i] - s[j])) if i != j
                         else float(aip[i] ** 2 - s[i] * ai[i] ** 2) for j in range(len(s))]
                        for i in range(len(s))])
    assert np.max(np.abs(airy_kernel(s) - ref)) < 1e-12


def test_airy_kernel_diagonal_identity():
    # diagonal value Ai'(x)^2 - x Ai(x)^2
    for x in (-1.0, 0.0, 1.5):
        K = airy_kernel(np.array([x]))
        ai, aip, _, _ = scipy_airy(x)
        assert K[0, 0] == pytest.approx(aip ** 2 - x * ai ** 2, rel=1e-10)


def _bessel_kernel_mpmath(a, x, y):
    J = mpmath.besselj
    sx, sy = mpmath.sqrt(x), mpmath.sqrt(y)
    if x == y:
        return (J(a, sx) ** 2 - J(a + 1, sx) * J(a - 1, sx)) / 4

    def zjp(z):   # z J_a'(z)
        return z * (J(a - 1, z) - J(a + 1, z)) / 2

    return (J(a, sx) * zjp(sy) - zjp(sx) * J(a, sy)) / (2 * (x - y))


def test_bessel_kernel_against_mpmath():
    # sqrt(x) up to 30, past the window where a truncated power series holds
    x = np.linspace(0.5, 30.0, 24) ** 2
    with mpmath.workdps(40):
        for a in (0.0, 0.5, 1.0, 2.0):
            ref = np.array([[float(_bessel_kernel_mpmath(a, mpmath.mpf(u), mpmath.mpf(v)))
                             for v in x] for u in x])
            K = bessel_kernel(a, x)
            assert np.max(np.abs(K - ref)) < 1e-12 * np.max(np.abs(ref))


def test_bessel_kernel_finite_at_zero():
    # J_{a-1}(0) is infinite for 0 < a < 1; the row K(0, y) and the diagonal
    # K(0, 0) must still equal their limits: J_1(sqrt y)/(2 sqrt y) and 1/4
    # for a = 0, and 0 for a > 0.  The row is the first of one call on y
    y = np.array([0.0, 0.3, 1.0, 4.0, 25.0])
    for a in (0.0, 0.95, 1.0, 2.0):
        row = bessel_kernel(a, y)[0]
        assert np.all(np.isfinite(row))
        if a == 0.0:
            lim = np.concatenate([[0.25], jv(1, np.sqrt(y[1:])) / (2 * np.sqrt(y[1:]))])
        else:
            lim = np.zeros_like(y)
        assert np.max(np.abs(row - lim)) < 1e-15


def test_bessel_kernel_symmetric_and_diagonal():
    x = np.array([0.4, 1.0, 2.5])
    K = bessel_kernel(1.0, x)
    assert np.max(np.abs(K - K.T)) < 1e-12
    # diagonal limit via finite separation, off the diagonal of one call
    Kod = bessel_kernel(1.0, np.array([1.0, 1.0 + 1e-7]))
    assert Kod[0, 1] == pytest.approx(K[1, 1], rel=1e-5)


def test_bessel_kernel_stacked_rows_match_single_rows():
    # a stack of argument rows gives each row's kernel bit for bit: the 17
    # offsets of a crossover fit, with x = 0 and a repeated argument included
    lam = 4.2 * (np.arange(41) + np.linspace(0.0, 1.6, 17)[:, None])
    lam[0, 0] = 0.0
    lam[5, 7] = lam[5, 8]
    for a in (0.0, 0.5, 1.05):
        K = bessel_kernel(a, lam)
        assert K.shape == (17, 41, 41)
        for x, k in zip(lam, K):
            assert np.array_equal(k, bessel_kernel(a, x))


@pytest.mark.parametrize("n", [7, 48, 400])
def test_legendre_nodes_against_mpmath(n):
    # in 40 digits at each float node x >= 0: P_n and P_n' by the recurrence, one Newton step
    # to the root r (off by ~1e-30), P_n'(r) = P_n' - P_n'' (x - r) with P_n'' from Legendre's
    # equation, and the weight 2 / ((1 - r^2) P_n'(r)^2); the rule is symmetric and odd n
    # holds 0 itself
    x, w = legendre_nodes(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert n % 2 == 0 or x[n // 2] == 0.0
    with mpmath.workdps(40):
        t = np.array([mpmath.mpf(v) for v in x[n // 2:]], dtype=object)
        p0, p1 = np.full(t.shape, mpmath.mpf(1), dtype=object), t
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * t * p1 - (m - 1) * p0) / m
        dp = n * (p0 - t * p1) / (1 - t * t)
        step = p1 / dp
        root = t - step
        dp = dp - (2 * t * dp - n * (n + 1) * p1) / (1 - t * t) * step
        exact = 2 / ((1 - root * root) * dp * dp)
        assert max(abs(float(a - b)) for a, b in zip(x[n // 2:], root)) <= 2e-16
        assert max(abs(float(a / b - 1)) for a, b in zip(w[n // 2:], exact)) <= 5e-12
