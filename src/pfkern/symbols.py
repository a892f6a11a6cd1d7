"""Generating representations and multiplier symbols in the contour variable.

Per family this module provides the single-contour wave-function formulas,
the classical rational multipliers of D and eps, and the Charlier w-plane
map.  Multipliers come in two flavours: ``symbol`` returns the printed
classical forms (tested through their stated identities), while
``inverse_eps_symbol`` returns the exact reciprocal of the shift-difference
symbol, which is what actually inverts D on wave functions.

Adjudicated evaluation conventions (verified against the recurrence tables,
see the kernels module for the full adjudication machinery):
  * Meixner (beta_m = 1): the coefficient extraction needs an extra factor
    sqrt(1-s^2)/(1-s w) in the integrand.
  * Charlier: the exponential generating function needs the n! factor.
  * Krawtchouk: the ordinary generating function carries (-1)^n relative to
    the positive-leading-coefficient normalization.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .contours import ContourSpec, ContractError
from .families import Charlier, Krawtchouk, Meixner, DomainError
from .lattice_ops import apply_eps
from .wavefunctions import get_table

# ---------------------------------------------------------------------------
# rational multipliers


def ratio_map(family: Krawtchouk, v):
    """R(v) = (1 - q v)/(1 + p v): the x -> x+1 shift ratio for Krawtchouk."""
    v = np.asarray(v, dtype=complex)
    return (1.0 - family.q * v) / (1.0 + family.p * v)


def symbol(family, kind: str, z):
    """Printed multiplier of D or eps in the family's contour variable.

    Note the printed Meixner/Krawtchouk pairs are not mutual reciprocals:
    D*eps = 1/w (Meixner) and 1/R(v) (Krawtchouk); only Charlier's t-plane
    pair satisfies D*eps = 1 exactly.  Tests pin these identities.
    """
    z = np.asarray(z, dtype=complex)
    _check_poles(family, kind, z)
    if isinstance(family, Meixner):
        return z - 1.0 / z if kind == "D" else 1.0 / (z * z - 1.0)
    if isinstance(family, Charlier):
        if kind == "D":
            return (1.0 + z) - 1.0 / (1.0 + z)
        return (1.0 + z) / (z * (2.0 + z))
    r = ratio_map(family, z)
    return r - 1.0 / r if kind == "D" else 1.0 / (r * r - 1.0)


def inverse_eps_symbol(family, z):
    """Exact 1/D-hat: the multiplier whose image D maps back to the input."""
    z = np.asarray(z, dtype=complex)
    if isinstance(family, Meixner):
        if family.beta_m != 1.0:
            raise ContractError("Meixner contour symbols require beta_m = 1")
        return family.s * z / (1.0 - z * z)
    if isinstance(family, Charlier):
        return (1.0 + z) / (z * (2.0 + z))
    r = ratio_map(family, z)
    return r / (r * r - 1.0)


def universal_symbol(kind: str, w):
    """Multipliers after the Charlier w-map (identical to Meixner's)."""
    w = np.asarray(w, dtype=complex)
    return w - 1.0 / w if kind == "D" else 1.0 / (w * w - 1.0)


def symbol_poles(family, kind: str):
    if isinstance(family, Meixner):
        return (0.0,) if kind == "D" else (1.0, -1.0)
    if isinstance(family, Charlier):
        return (-1.0,) if kind == "D" else (0.0, -2.0)
    poles = [-1.0 / family.p, 1.0 / family.q]
    if kind == "eps":
        poles.append(0.0)
        if family.p != family.q:
            poles.append(2.0 / (family.q - family.p))
    return tuple(poles)


def _check_poles(family, kind, z):
    for pole in symbol_poles(family, kind):
        if np.any(np.abs(z - pole) < 1e-13):
            raise DomainError(f"{family.name} {kind}-symbol pole at {pole}")


def charlier_w_map(theta: float, w):
    """t = (sqrt(theta)/2)(w - 1/w) and dt/dw."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise DomainError("w-map undefined at w = 0")
    root = np.sqrt(theta)
    return 0.5 * root * (w - 1.0 / w), 0.5 * root * (1.0 + 1.0 / (w * w))


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


def degree_integrand(family, x, z):
    """g(z; x) whose z^n coefficient carries phi_n(x) (Charlier/Krawtchouk).

    phi_n(x) = sign_n * exp(log_pref(n, x)) * (1/2pi i) oint g(z;x) z^(-n-1) dz
    with sign and log-prefactor from `degree_prefactor`.
    """
    z = np.asarray(z, dtype=complex)[None, :]
    x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    if isinstance(family, Charlier):
        return np.exp(-family.theta * z + x * np.log1p(z))
    if isinstance(family, Krawtchouk):
        return np.exp((family.M - x) * np.log(1.0 + family.p * z)
                      + x * np.log(1.0 - family.q * z))
    raise ContractError("degree extraction applies to Charlier/Krawtchouk")


def degree_prefactor(family, n, x):
    """(sign, log magnitude) of the factor multiplying the extraction.

    The monic norms come from the Jacobi recurrence, log h_n = sum_{k<=n}
    log b_k^2, with h_0 = 1 for the Poisson and binomial weights."""
    n = np.asarray(n)
    _, b2 = family.jacobi(np.arange(1, int(np.max(n)) + 1))
    log_h = np.concatenate([[0.0], np.cumsum(np.log(b2))])
    lw = family.log_weight(np.asarray(x, dtype=float))
    logmag = 0.5 * lw + gammaln(n + 1.0) - 0.5 * log_h[n]
    sign = np.where(n % 2 == 0, 1.0, -1.0) if isinstance(family, Krawtchouk) else np.ones_like(logmag)
    return sign, logmag


def default_contour(family, kind: str = "single", degree: int = 0) -> ContourSpec:
    """Admissible circles, centred at the origin.

    Single-contour extraction radii balance the integrand maximum against
    r^(-degree) (roundoff conditioning), clamped inside the admissible disc;
    pair radii follow the fixed defaults used by the kernel formulas.
    'eps' and 'image' are the extraction circles of the images of phi_n
    under the inverse-difference multiplier and under an analytic symbol.
    They equal 'single' except for Meixner, whose circle lies near 1 for
    conditioning in x and so needs more nodes to resolve the +-1 poles of
    the inverse multiplier.
    """
    if isinstance(family, Meixner):
        s = family.s
        if kind in ("single", "eps", "image"):
            radius = max(0.95, (1.0 + s) / 2.0)
            nodes = {"single": 256 if s <= 0.8 else (2048 if s <= 0.95 else 16384),
                     "eps": 2048 if s <= 0.9 else 16384,
                     "image": 2048}[kind]
            return ContourSpec(radius=radius, node_count=nodes)
        radius = {"inner": (2 * s + 1) / 3.0, "outer": (s + 2) / 3.0}[kind]
    elif isinstance(family, Charlier):
        if kind in ("single", "eps", "image"):
            th, n = family.theta, max(degree, 1)
            b = th - n
            radius = (-b + np.sqrt(b * b + 4.0 * th * n)) / (2.0 * th)
            radius = float(np.clip(radius, 0.3, 0.97))
        else:
            radius = {"inner": 0.35, "outer": 0.7}[kind]
    else:
        rstar = min(1.0 / family.p, 1.0 / family.q)
        if kind in ("single", "eps", "image"):
            n = max(degree, 1)
            radius = n / (family.p * max(family.M - n, 1))
            radius = float(np.clip(radius, 0.25, 0.97 * rstar))
        else:
            radius = {"inner": 0.4, "outer": 0.8}[kind] * rstar
    return ContourSpec(radius=radius)


def check_admissible(family, spec: ContourSpec) -> None:
    if spec.center != 0:
        raise ContractError("single-contour formulas use origin-centred circles")
    r = spec.radius
    if isinstance(family, Meixner):
        if not family.s < r < 1.0:
            raise ContractError(f"Meixner radius must lie in (s, 1), got {r}")
    elif isinstance(family, Charlier):
        if not r < 1.0:
            raise ContractError(f"Charlier radius must be < 1, got {r}")
    else:
        if not r < min(1.0 / family.p, 1.0 / family.q):
            raise ContractError("Krawtchouk radius must be < min(1/p, 1/q)")


# ---------------------------------------------------------------------------
# single-contour wave functions


def eps_multiplier(family, m_extra=None):
    """z -> inverse_eps_symbol(family, z), times the analytic m_extra(z) if given."""
    if m_extra is None:
        return lambda z: inverse_eps_symbol(family, z)
    return lambda z: inverse_eps_symbol(family, z) * m_extra(z)


def contour_image(family, n: int, x, contour: ContourSpec | None = None,
                  multiplier=None):
    """(M phi_n)(x) by contour coefficient extraction (adjudicated
    normalization), where M multiplies the generating representation of
    phi_n by multiplier(z) in the contour variable; phi_n itself without one.

    The contour defaults to `default_contour(family, degree=n)`.  Meixner
    requires beta_m = 1; the recurrence tables are the authority for other
    beta_m.
    """
    if family.finite and n > family.M:
        raise DomainError(f"degree {n} exceeds Krawtchouk M={family.M}")
    contour = contour or default_contour(family, degree=n)
    check_admissible(family, contour)
    z = contour.nodes()
    w = contour.weights(z)
    mult = 1.0 if multiplier is None else multiplier(z)
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(x)
    if isinstance(family, Meixner):
        if family.beta_m != 1.0:
            raise ContractError("contour evaluation requires beta_m = 1; "
                                "the recurrence table is authoritative otherwise")
        s = family.s
        szego = np.sqrt(1.0 - s * s) / (1.0 - s * z)
        core = szego * ((z - s) / (1.0 - s * z)) ** n * mult
        vals = _meixner_extract(core * w, contour, xs)
    else:
        g = degree_integrand(family, xs, z)
        raw = (g * (mult * z ** (-n - 1) * w)[None, :]).sum(axis=1).real
        sign, logmag = degree_prefactor(family, n, xs)
        vals = sign * raw * np.exp(logmag)
    return float(vals[0]) if scalar else vals


def _meixner_extract(core_w, contour: ContourSpec, xs):
    """[w^x]-coefficients sum_j core_j w_j z_j^-(x+1) for a batch of sites x,
    from one FFT of core_j w_j on the origin-centred circle z_j =
    r exp(o 2 pi i j / n):  r^-(x+1) FFT(core w)[o (x+1) mod n].  Sites
    x >= n alias (they read the bin of x mod n), as the trapezoid sum does."""
    k = np.asarray(xs, dtype=np.int64) + 1
    coef = np.fft.fft(core_w)[(contour.orientation * k) % len(core_w)]
    return (coef * contour.radius ** -k).real


def meixner_parity_sums(family: Meixner, n: int) -> tuple[float, float]:
    """(sum over even x, sum over odd x) of phi_n for the geometric weight,
    from the boundary values of the generating representation:
    phi-hat_n(1) = sqrt((1+s)/(1-s)), phi-hat_n(-1) = (-1)^n sqrt((1-s)/(1+s))."""
    s = family.s
    plus = np.sqrt((1 + s) / (1 - s))
    minus = (-1.0) ** n * np.sqrt((1 - s) / (1 + s))
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def meixner_eps_correction(family: Meixner, n: int):
    """Coefficient of the even-parity constant chain (the kernel of D at
    beta_m = 1) separating the multiplier image from the lattice eps image,
    pinned by the defining sum (eps phi_n)(0) = -s * sum_odd phi_n."""
    _, odd_total = meixner_parity_sums(family, n)
    target = -family.s * odd_total
    raw0 = contour_image(family, n, 0, default_contour(family, "eps", n), eps_multiplier(family))
    return target - raw0


def eps_phi_via_contour(family, n: int, y):
    """(eps phi_n)(y) through the contour representation.

    Meixner (beta_m = 1): the weight ratios are constant, the inverse
    multiplier s w/(1 - w^2) reproduces eps phi_n exactly up to the
    even-parity constant chain spanning ker D; that single coefficient is
    anchored at y = 0.

    Charlier/Krawtchouk: the weighted shifts are not multipliers in the
    printed planes (the weight ratios depend on x), so the rational
    insertion cannot reproduce the lattice eps; the parity-split sums are
    applied to the contour-evaluated wave function instead.  The adjudicator
    in the kernels module records the measured failure of the printed route.
    """
    if isinstance(family, Meixner):
        c = meixner_eps_correction(family, n)
        raw = contour_image(family, n, y, default_contour(family, "eps", n), eps_multiplier(family))
        ys = np.atleast_1d(y)
        out = raw + np.where(ys % 2 == 0, c, 0.0)
        return float(out[0]) if np.ndim(y) == 0 else out
    if family.finite:
        xs = np.arange(family.M + 1)
    else:
        x_top = max(get_table(family, max(n, 8)).lattice.x_max,
                    int(np.max(np.atleast_1d(y))) + 40)
        xs = np.arange(x_top + 1)
    out = apply_eps(family, contour_image(family, n, xs))[np.atleast_1d(y)]
    return float(out[0]) if np.ndim(y) == 0 else out
