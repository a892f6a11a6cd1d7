"""Reference universal kernels: sine, Airy, Bessel.

Each kernel is a closed form in special functions from numpy and
scipy.special: the sine kernel is `np.sinc`, and the Airy and Bessel kernels
take Ai, Ai' from `airy` and J from `jv`, one call per order for all their
arguments.  Both are square: K(x_i, x_j) on one argument array x.  The
Bessel kernel takes a stack of argument rows, so a fit over many scalings is
one call.  Kernel formulas (not
printed in the sources this library encodes) follow the standard literature
conventions:

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


def airy_kernel(x):
    """[i, j] = K_Airy(x_i, x_j)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax, apx = airy(x)[:2]
    X, Y = x[:, None], x[None, :]
    num = ax[:, None] * apx[None, :] - apx[:, None] * ax[None, :]
    den = X - Y
    diag = apx[:, None] ** 2 - X * ax[:, None] ** 2
    out = np.where(np.abs(den) < 1e-10, diag, num / np.where(np.abs(den) < 1e-10, 1.0, den))
    return out


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
    jx, j1x = jv(alpha, sx), jv(alpha + 1, sx)
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
