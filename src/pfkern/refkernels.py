"""Reference universal kernels: sine, Airy, Bessel.

Each kernel is a closed form in special functions, all computed here in
numpy: the sine kernel is `np.sinc`, the Airy kernel takes Ai, Ai' from
`airy_ai` and the Bessel kernel J from `bessel_j`, one call for all their
arguments.  Both are square: K(x_i, x_j) on one argument array x.  The
Bessel kernel takes a stack of argument rows, so a fit over many scalings is
one call.  Kernel formulas (not printed in the sources this library encodes)
follow the standard literature conventions:

    K_sine(s, t) = sin(pi (s - t)) / (pi (s - t))
    K_Airy(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y)
    K_Bessel[a](x, y) = (J_a(sx) sy J_a'(sy) - sx J_a'(sx) J_a(sy)) / (2 (x - y)),
                        sx = sqrt(x), sy = sqrt(y)
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np


@cache
def legendre_nodes(n: int):
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1], once per n and process: Newton
    on P_n by its three-term recurrence from Tricomi's estimate, for the roots x >= 0 (exactly 0
    at odd n), mirrored; w = 2 / ((1 - x^2) P_n'(x)^2), carried to the root from the last Newton
    point by d log w / dx = -2x / (1 - x^2), which is large at the ends."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.sin(np.pi * (n + 1 - 2 * k) / (2 * n + 1))
    step = np.ones_like(x)
    while np.max(np.abs(step)) > 1e-15:
        p0, p1 = np.ones_like(x), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        gap = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / gap
        step = p1 / dp
        x = x - step
    w = 2.0 * (1.0 + 2.0 * x * step / gap) / (gap * dp * dp)
    return np.r_[-x[:n // 2], x[::-1]], np.r_[w[:n // 2], w[::-1]]


def sine_kernel(s, t):
    out = np.sinc(np.asarray(s, dtype=float) - np.asarray(t, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def sine_kernel_deriv(s, t):
    """(d/ds - d/dt) applied to the sine kernel: 2 d/dr sinc(pi r), r = s - t."""
    r = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    small = np.abs(r) < 1e-7
    rs = np.where(small, 1.0, r)
    val = np.where(small, -2.0 * np.pi ** 2 * r / 3.0,
                   2.0 * (np.pi * rs * np.cos(np.pi * rs) - np.sin(np.pi * rs))
                   / (np.pi * rs * rs))
    return float(val) if np.ndim(val) == 0 else val


def airy_ai(x):
    """(Ai(x), Ai'(x)) elementwise.  For |x| <= 8, Ai(x) = (1/pi) Re int exp(i (t^3/3 + x t)) dt
    on [0, a], a = sqrt(max(-x, 0)), then on the ray a + e^(i pi/4) r, r <= 5.6, which leaves
    the saddle a on its steepest descent, so |integrand| <= 1: 48 Gauss-Legendre nodes a piece.
    Beyond, 32 terms of the asymptotic expansions (DLMF 9.7.5-6, 9.7.9-10), zeta >= 15."""
    x = np.asarray(x, dtype=float)
    near, ai, aip = np.abs(x) <= 8.0, np.empty_like(x), np.empty_like(x)
    (g, w), c = legendre_nodes(48), 2.8 * np.exp(0.25j * np.pi)   # on [-1, 1]; half the ray
    h = np.sqrt(np.maximum(-x[near], 0.0))[:, None] / 2     # half of a
    t = np.concatenate([h * (g + 1), 2 * h + c * (g + 1)], axis=1)
    f = np.concatenate([h * w, np.broadcast_to(c * w, h.shape[:1] + w.shape)], axis=1)
    f *= np.exp(1j * (t ** 3 / 3 + x[near, None] * t))
    ai[near], aip[near] = f.sum(axis=1).real / np.pi, -(f * t).sum(axis=1).imag / np.pi
    k = np.arange(1.0, 32.0)            # u_k (DLMF 9.7.2) and v_k = -u_k (6k+1)/(6k-1)
    u = np.cumprod(np.r_[1.0, (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1))])
    y, pos = np.abs(x[~near]), x[~near] > 0
    zeta = 2.0 / 3.0 * y ** 1.5
    amp = np.where(pos, 0.5 * np.exp(-zeta), np.exp(-1j * (zeta - 0.25 * np.pi))) / np.sqrt(np.pi)
    sums = amp[:, None] * ((np.where(pos, -1.0, 1j) / zeta)[:, None] ** np.r_[0, k]
                           @ np.c_[u, np.r_[1.0, -u[1:] * (6 * k + 1) / (6 * k - 1)]])
    ai[~near] = sums[:, 0].real / y ** 0.25
    aip[~near] = -y ** 0.25 * np.where(pos, sums[:, 1].real, sums[:, 1].imag)
    return ai, aip


def airy_kernel(x):
    """[i, j] = K_Airy(x_i, x_j)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax, apx = airy_ai(x)
    num, den = ax[:, None] * apx - apx[:, None] * ax, x[:, None] - x
    near = np.abs(den) < 1e-10
    return np.where(near, apx[:, None] ** 2 - x[:, None] * ax[:, None] ** 2,
                    num / np.where(near, 1.0, den))


def bessel_j(alpha: float, x):
    """(J_alpha(x), J_(alpha+1)(x)) elementwise, alpha, x >= 0: Miller's backward recurrence on
    R_k = J_(alpha+k) / J_(alpha+k-1) = x / (2 (alpha + k) - x R_(k+1)), R = 0 above alpha + 2M,
    M = ceil(x/2 + 2 x^(1/3) + 12) per x, normalised in the same pass by sum_m c_m J_(alpha+2m)
    = (x/2)^alpha, c_0 = Gamma(alpha + 1), c_m = (alpha + 2m) Gamma(alpha + m) / m! (Horner)."""
    x = np.asarray(x, dtype=float)
    top = np.ceil(0.5 * x + 2.0 * np.cbrt(x) + 12.0)
    m = np.arange(1, int(top.max(initial=0)) + 1)
    c = np.r_[1.0, (alpha + 2 * m) * np.cumprod(np.r_[1.0, (alpha + m[1:] - 1) / m[1:]])]
    ratio = total = np.zeros_like(x)
    for j in range(len(m), -1, -1):
        live = x * (j < top)                 # 0 at and above the start order
        upper = live / (2.0 * (alpha + 2 * j + 2) - live * ratio)   # R_(2j+2)
        ratio = live / (2.0 * (alpha + 2 * j + 1) - live * upper)   # R_(2j+1)
        total = c[j] + ratio * upper * total
    with np.errstate(divide="ignore"):     # log 0 gives J_alpha(0) = 0 for alpha > 0
        j0 = (np.exp(alpha * np.log(0.5 * x) - math.lgamma(alpha + 1.0)) if alpha else 1.0) / total
    return j0, j0 * ratio


def bessel_kernel(alpha: float, x):
    """Hard-edge (Bessel) kernel [..., i, j] = K_Bessel[alpha](x_i, x_j) in the
    squared variables, alpha >= 0.

    x may be a stack of argument rows [..., m]; the kernel of each row is
    [..., m, m], elementwise the one of a single-row call.
    s J_a'(s) is taken as a J_a(s) - s J_{a+1}(s), and the diagonal
    (J_a^2 - J_{a+1} J_{a-1}) / 4 with J_{a-1} = (2a/s) J_a - J_{a+1}, so
    both stay finite at x = 0, where J_{a-1} is infinite for 0 < a < 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sx = np.sqrt(x)
    jx, j1x = bessel_j(alpha, sx)
    dx = alpha * jx - sx * j1x
    out = jx[..., :, None] * dx[..., None, :]
    den = dx[..., :, None] * jx[..., None, :]       # scratch until it holds 2 (x - y)
    out -= den
    np.subtract(x[..., :, None], x[..., None, :], out=den)
    den *= 2.0
    near = (den > -1e-12) & (den < 1e-12)
    np.divide(out, den, out=out, where=~near)
    # (2a/s) J_a J_{a+1} -> 0 as s -> 0 for every a >= 0
    diag = 0.25 * (jx ** 2 + j1x ** 2 - 2.0 * alpha * jx * j1x / np.where(sx > 0, sx, 1.0))
    np.copyto(out, diag[..., :, None], where=near)
    return out
