"""Reference universal kernels: sine, Airy, Bessel.

Each kernel is a closed form in special functions from numpy and
scipy.special: the sine kernel is `np.sinc`, the Airy kernel takes Ai and Ai'
from one `airy` call per argument array, and the Bessel kernel takes J from
`jv`.  Kernel formulas (not printed in the sources this library encodes)
follow the standard literature conventions:

    K_sine(s, t) = sin(pi (s - t)) / (pi (s - t))
    K_Airy(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y)
    K_Bessel[a](x, y) = (J_a(sx) sy J_a'(sy) - sx J_a'(sx) J_a(sy)) / (2 (x - y)),
                        sx = sqrt(x), sy = sqrt(y)
"""
from __future__ import annotations

import numpy as np
from scipy.special import airy, jv


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


def airy_kernel(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ax, apx = airy(x)[:2]
    ay, apy = airy(y)[:2]
    X, Y = x[:, None], y[None, :]
    num = ax[:, None] * apy[None, :] - apx[:, None] * ay[None, :]
    den = X - Y
    diag = apx[:, None] ** 2 - X * ax[:, None] ** 2
    out = np.where(np.abs(den) < 1e-10, diag, num / np.where(np.abs(den) < 1e-10, 1.0, den))
    return out


def bessel_kernel(alpha: float, x, y):
    """Hard-edge (Bessel) kernel in the squared variables, alpha >= 0.

    s J_a'(s) is taken as a J_a(s) - s J_{a+1}(s), and the diagonal
    (J_a^2 - J_{a+1} J_{a-1}) / 4 with J_{a-1} = (2a/s) J_a - J_{a+1}, so
    both stay finite at x = 0, where J_{a-1} is infinite for 0 < a < 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sx, sy = np.sqrt(x), np.sqrt(y)
    jx, jy = jv(alpha, sx), jv(alpha, sy)
    j1x = jv(alpha + 1, sx)
    dx = alpha * jx - sx * j1x
    dy = alpha * jy - sy * jv(alpha + 1, sy)
    num = jx[:, None] * dy[None, :] - dx[:, None] * jy[None, :]
    den = 2.0 * (x[:, None] - y[None, :])
    # (2a/s) J_a J_{a+1} -> 0 as s -> 0 for every a >= 0
    diag = 0.25 * (jx ** 2 + j1x ** 2 - 2.0 * alpha * jx * j1x / np.where(sx > 0, sx, 1.0))
    out = np.where(np.abs(den) < 1e-12, diag[:, None],
                   num / np.where(np.abs(den) < 1e-12, 1.0, den))
    return out
