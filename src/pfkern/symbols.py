"""Generating representations and multiplier symbols in the contour variable.

Per family this module provides the single-contour wave-function formulas
and the rational multipliers of eps.  They come in two flavours: ``symbol``
returns the printed classical form, while ``inverse_eps_symbol`` returns the
exact reciprocal of the shift-difference symbol, which is what actually
inverts D on wave functions.

Every wave function and multiplier image is one trapezoid sum on a circle
about the origin, of a radius and a node count (`default_contour`), with the
quadrature convention of `_circle_rows`.

Adjudicated evaluation conventions (verified against the recurrence tables,
see the kernels module for the full adjudication machinery):
  * Meixner (beta_m = 1): the coefficient extraction needs an extra factor
    sqrt(1-s^2)/(1-s w) in the integrand.
  * Charlier: the exponential generating function needs the n! factor.
  * Krawtchouk: the ordinary generating function carries (-1)^n relative to
    the positive-leading-coefficient normalization.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .families import Charlier, Krawtchouk, Meixner, DomainError, QuadratureError, log_gamma

# ---------------------------------------------------------------------------
# rational multipliers


def ratio_map(family: Krawtchouk, v):
    """R(v) = (1 - q v)/(1 + p v): the x -> x+1 shift ratio for Krawtchouk."""
    v = np.asarray(v, dtype=complex)
    return (1.0 - family.q * v) / (1.0 + family.p * v)


def symbol(family, z):
    """Printed eps multiplier in the family's contour variable:
    1/(w^2 - 1) (Meixner), (1 + t)/(t (2 + t)) (Charlier) and 1/(R^2 - 1) with
    R = `ratio_map` (Krawtchouk).  Only Charlier's is the exact inverse of the
    shift difference; `inverse_eps_symbol` is that inverse for every family."""
    z = np.asarray(z, dtype=complex)
    _check_poles(family, z)
    if isinstance(family, Meixner):
        return 1.0 / (z * z - 1.0)
    if isinstance(family, Charlier):
        return (1.0 + z) / (z * (2.0 + z))
    r = ratio_map(family, z)
    return 1.0 / (r * r - 1.0)


def inverse_eps_symbol(family, z):
    """Exact 1/D-hat: the multiplier whose image D maps back to the input."""
    z = np.asarray(z, dtype=complex)
    if isinstance(family, Meixner):
        if family.beta_m != 1.0:
            raise DomainError("Meixner contour symbols require beta_m = 1")
        return family.s * z / (1.0 - z * z)
    if isinstance(family, Charlier):
        return (1.0 + z) / (z * (2.0 + z))
    r = ratio_map(family, z)
    return r / (r * r - 1.0)


def _check_poles(family, z):
    if isinstance(family, Meixner):
        poles = (1.0, -1.0)
    elif isinstance(family, Charlier):
        poles = (0.0, -2.0)
    else:
        poles = (-1.0 / family.p, 1.0 / family.q, 0.0)
        if family.p != family.q:
            poles += (2.0 / (family.q - family.p),)
    for pole in poles:
        if np.any(np.abs(z - pole) < 1e-13):
            raise DomainError(f"{family.name} eps-symbol pole at {pole}")


# ---------------------------------------------------------------------------
# generating functions


def meixner_G(m: int, omega, s: float):
    """G_m(w) = (1 - s w)^(-m) (1 - s/w)^m, analytic in s < |w| < 1/s."""
    omega = np.asarray(omega, dtype=complex)
    if np.any(np.abs(omega) < 1e-300) or np.any(np.abs(omega - 1.0 / s) < 1e-13):
        raise DomainError("G_m pole at 0 or 1/s")
    if m == 0:
        return np.ones_like(omega)
    num = 1.0 - s / omega           # exactly 0 at omega = s, the zero of G_m
    zero = num == 0
    G = np.exp(m * (np.log(np.where(zero, 1.0, num)) - np.log(1.0 - s * omega)))
    return np.where(zero, 0.0, G)


def generating_logs(family, z):
    """(log c, log a) of the generating integrand g(z; x) = c a^x: c = e^(-theta z),
    a = 1 + z (Charlier); c = (1 + p z)^M, a = (1 - q z)/(1 + p z) (Krawtchouk)."""
    if isinstance(family, Charlier):
        return -family.theta * z, np.log1p(z)
    log_p = np.log1p(family.p * z)
    return family.M * log_p, np.log1p(-family.q * z) - log_p


def degree_integrand(family, xs, z, v):
    """sum_j c(z_j) a(z_j)^x v_j at the sites x >= 0 (`generating_logs`), for one row
    v of node values, or [row, x] for a stack of rows on one circle; with v_j =
    multiplier * weight * z_j^(-n-1) it is the z^n coefficient that `degree_prefactor`
    scales to phi_n(x).  Blocked: x = iB + k, B = floor(sqrt(max x + 1)), sums
    (A0 P)[i, k] with P[j, k] = a_j^k and A0[i, j] = exp(log c_j + log v_j + iB log a_j)
    at each block start iB that holds sites.  A0 is a real exp of its log magnitude
    times a unit phase; the phases and P are running products, and only log v
    differs between the rows.  An overflowing term gives a non-finite sum."""
    log_c, log_a = generating_logs(family, z)
    xs = np.asarray(xs, dtype=np.int64)
    lo, hi = int(xs.min(initial=0)), int(xs.max(initial=0))
    block = int(np.sqrt(hi + 1))
    starts = np.arange(lo - lo % block, hi + 1, block)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_v = np.log(np.asarray(v, dtype=complex))
        P = _running_powers(np.ones(len(z), dtype=complex), np.exp(log_a), block).T
        phase = _running_powers(np.exp(1j * (log_c.imag + starts[0] * log_a.imag)),
                                np.exp(1j * block * log_a.imag), len(starts))
        mag, A0 = np.empty(phase.shape), np.empty_like(phase)    # reused by every row
        rows = log_v.reshape(-1, len(z))
        out = np.empty((len(rows), xs.size), dtype=complex)
        for i, lv in enumerate(rows):
            np.multiply.outer(starts, log_a.real, out=mag)
            mag += log_c.real + lv.real
            np.multiply(np.exp(mag, out=mag), phase, out=A0)
            A0 *= np.exp(1j * lv.imag)
            out[i] = (A0 @ P).ravel()[xs.ravel() - starts[0]]
    return out.reshape(log_v.shape[:-1] + xs.shape)


def _running_powers(first, step, count):
    """Rows first * step^i for i < count, each from the last by one multiplication."""
    out = np.empty((count, len(step)), dtype=complex)
    out[0] = first
    for i in range(1, count):
        np.multiply(out[i - 1], step, out=out[i])
    return out


def degree_prefactor(family, n, x):
    """(sign, log n!, log h_n / 2, log w(x) / 2) of the factor multiplying the extraction.

    The monic norms come from the Jacobi recurrence, log h_n = sum_{k<=n}
    log b_k^2, with h_0 = 1 for the Poisson and binomial weights."""
    n = np.asarray(n)
    _, b2 = family.jacobi(np.arange(1, int(np.max(n)) + 1))
    log_h = np.concatenate([[0.0], np.cumsum(np.log(b2))])
    sign = np.where(n % 2 == 0, 1.0, -1.0) if isinstance(family, Krawtchouk) else np.ones(np.shape(n))
    return sign, log_gamma(n + 1.0), 0.5 * log_h[n], 0.5 * family.log_weight(np.asarray(x, float))


ContourSpec = namedtuple("ContourSpec", "radius node_count")   # origin-centred circle


@lru_cache(maxsize=32)
def unit_roots(n: int) -> np.ndarray:
    """The n nodes exp(2 pi i k / n), built once and read-only."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    roots.flags.writeable = False
    return roots


def default_contour(family, kind: str = "single", degree: int = 0) -> ContourSpec:
    """Extraction circles, centred at the origin, with a power-of-two node count.

    'single' radii balance the integrand maximum against r^(-degree)
    (roundoff conditioning), clamped inside the admissible disc: Meixner's
    max(0.95, (1 + s)/2) lies in (s, 1), Charlier's is at most 0.97 (< 1) and
    Krawtchouk's at most 0.97 min(1/p, 1/q).  'eps' is the extraction circle
    of the image of phi_n under the inverse-difference multiplier.  It equals
    'single' except for Meixner, whose circle lies near 1 for conditioning in
    x and so needs more nodes to resolve the +-1 poles of the inverse
    multiplier.  Charlier and Krawtchouk take 256 nodes.
    """
    if isinstance(family, Meixner):
        s = family.s
        nodes = {"single": 256 if s <= 0.8 else (2048 if s <= 0.95 else 16384),
                 "eps": 2048 if s <= 0.9 else 16384}[kind]
        return ContourSpec(max(0.95, (1.0 + s) / 2.0), nodes)
    n = max(degree, 1)
    if isinstance(family, Charlier):
        th, b = family.theta, family.theta - n
        radius = (-b + np.sqrt(b * b + 4.0 * th * n)) / (2.0 * th)
        return ContourSpec(float(np.clip(radius, 0.3, 0.97)), 256)
    radius = n / (family.p * max(family.M - n, 1))
    return ContourSpec(float(np.clip(radius, 0.25, 0.97 * min(1.0 / family.p, 1.0 / family.q))),
                       256)


# ---------------------------------------------------------------------------
# single-contour wave functions


def eps_multiplier(family, m_extra=None):
    """z -> inverse_eps_symbol(family, z), times the analytic m_extra(z) if given."""
    if m_extra is None:
        return lambda z: inverse_eps_symbol(family, z)
    return lambda z: inverse_eps_symbol(family, z) * m_extra(z)


def contour_rows(family, degrees, xs, multiplier=None):
    """Rows [k, x] of (M phi_k)(x) by contour coefficient extraction (adjudicated
    normalization), where M multiplies the generating representation of phi_k by
    multiplier(z) in the contour variable; phi_k itself without one.  Degree k
    is extracted on `default_contour(family, kind, k)`, kind 'eps' with a
    multiplier and 'single' without, one `_circle_rows` call per distinct circle."""
    kind = "single" if multiplier is None else "eps"
    degrees, xs = [int(k) for k in degrees], np.atleast_1d(xs)
    top = max(degrees, default=0)
    if family.finite and top > family.M:
        raise DomainError(f"degree {top} exceeds Krawtchouk M={family.M}")
    circles = {}
    for i, k in enumerate(degrees):
        circles.setdefault(default_contour(family, kind, k), []).append(i)
    prefactor = (None if isinstance(family, Meixner)
                 else degree_prefactor(family, np.arange(top + 1), xs))
    out = np.empty((len(degrees), len(xs)))
    for contour, rows in circles.items():
        out[rows] = _circle_rows(family, [degrees[i] for i in rows], xs, contour, multiplier,
                                 prefactor)
    return out


def _circle_rows(family, degrees, xs, contour: ContourSpec, multiplier=None, prefactor=None):
    """The rows of `contour_rows` for degrees that share one circle, and so its
    nodes z_j, weights z_j / n and multiplier values (the trapezoid sum of
    (1/(2 pi i)) oint f(z) dz is the mean over the n nodes of f(z) z).  The
    degrees are taken in increasing order, in chunks of at most 2^14 node
    values or sites per row block, so no (degrees x nodes) array is held.

    Meixner (beta_m = 1 only; the recurrence tables are the authority for other
    beta_m): the rows core_j w_j are a running product of (z - s)/(1 - s z)
    over the degrees, and the [w^x] coefficient on z_j = r exp(2 pi i j / n)
    is r^-(x+1) FFT(core w)[(x+1) mod n], one FFT per chunk; sites x >= n
    alias onto x mod n, as the trapezoid sum does.  Charlier/Krawtchouk: one
    `degree_integrand` call per chunk, times the caller's `degree_prefactor`.  In
    every family a row that is not finite raises QuadratureError: e^(-theta z)
    overflows once theta r > 709, the prefactor n! once n > 170.
    """
    degrees, k = np.asarray(degrees, dtype=np.int64), np.asarray(xs, dtype=np.int64) + 1
    z = contour.radius * unit_roots(contour.node_count)
    mult_w = (1.0 if multiplier is None else multiplier(z)) * (z / contour.node_count)
    if isinstance(family, Meixner):
        if family.beta_m != 1.0:
            raise DomainError("contour evaluation requires beta_m = 1; "
                              "the recurrence table is authoritative otherwise")
        s = family.s
        ratio = (z - s) / (1.0 - s * z)
        n = int(degrees.min(initial=0))
        row = np.sqrt(1.0 - s * s) / (1.0 - s * z) * ratio ** n * mult_w
        bins, scale = k % len(z), contour.radius ** -k
    order = np.argsort(degrees, kind="stable")
    out = np.empty((len(degrees), len(xs)))
    step = max(1, 2 ** 14 // max(len(z), len(xs)))
    for lo in range(0, len(order), step):
        part = order[lo:lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(family, Meixner):
                chunk = np.empty((len(part), len(z)), dtype=complex)
                for i, j in enumerate(part):
                    while n < degrees[j]:
                        row *= ratio
                        n += 1
                    chunk[i] = row
                rows = (np.fft.fft(chunk, out=chunk)[:, bins] * scale).real
            else:
                ns = degrees[part, None]
                raw = degree_integrand(family, xs, z, mult_w * z ** (-ns - 1)).real
                sign, log_fact, half_log_h, site = prefactor
                logmag = site + log_fact[ns] - half_log_h[ns]
                rows = np.exp(logmag, out=logmag) * (sign[ns] * raw)
        bad = ~np.all(np.isfinite(rows), axis=1)
        if np.any(bad):
            raise QuadratureError(f"degree {degrees[part][bad][0]} extraction on radius "
                                  f"{contour.radius:.6g} is not finite")
        out[part] = rows
    return out


def eps_phi_via_contour(family: Meixner, n: int, y):
    """(eps phi_n)(y) through the contour representation, for Meixner at
    beta_m = 1: the weight ratios are constant, the inverse multiplier
    s w/(1 - w^2) reproduces eps phi_n exactly up to the even-parity constant
    chain spanning ker D.  Its coefficient is pinned at y = 0, extracted with
    the sites, by (eps phi_n)(0) = -s sum_odd phi_n = -s (plus - minus) / 2, where
    plus = phi-hat_n(1) = sqrt((1+s)/(1-s)), minus = phi-hat_n(-1) = (-1)^n sqrt((1-s)/(1+s)).

    The other families have no such multiplier (their weight ratios depend
    on x); the adjudicator in the kernels module records the measured
    failure of the printed route there.
    """
    s = family.s
    plus = np.sqrt((1 + s) / (1 - s))
    minus = (-1.0) ** n * np.sqrt((1 - s) / (1 + s))
    raw = contour_rows(family, [n], np.r_[0, y], eps_multiplier(family))[0]
    c = -s * (0.5 * (plus - minus)) - raw[0]
    out = raw[1:] + np.where(np.atleast_1d(y) % 2 == 0, c, 0.0)
    return float(out[0]) if np.ndim(y) == 0 else out
