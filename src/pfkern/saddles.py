"""Saddles, bulk supports, densities and soft edges from one phase per family.

At u = x / A each family's projection kernel has the one-variable phase

    Phi(z; u) = e z + sum_i (k_i + l_i u) log(1 - z / r_i)   (log z where r_i = 0),

tabled once in `_phase`, with A = N, M, 2N in the order below:

  * Charlier    -tau z + u log(1 + z) - log z,                  tau = theta / N;
  * Krawtchouk  (1 - u) log(1 + p z) + u log(1 - q z) - gamma log z,  gamma = N / M;
  * Meixner     log(1 - z / s) - log(1 - s z) - u log z,         s = sqrt(xi).

The rest follows with no family branch.  Phi^(n) = e [n = 1] + sum_i (k_i + l_i u)
(-1)^(n-1) (n-1)! / (z - r_i)^n.  Clearing Phi''s denominators gives the saddle quadratic
a z^2 + b z + c (a > 0), linear in u; in the bulk support, where b^2 < 4ac, its roots
are z+- (Im z+ > 0) with cos theta = -b / (2 sqrt(ac)), and they coalesce at its ends.
rho = |d cos theta / du| / (pi sin theta) is the closed-form density (unit mass;
spacing Delta = 1 / (2 pi rho)), and site_density = |Im dPhi/du (z+)| / pi the particles
per lattice site, which fixes the harnesses' microscopic scaling.  At a soft edge u*
with double root z*, A Phi has the cubic normal form with kappa = (z d/dz)^3 Phi and
lambda = -z d^2 Phi / dz du: the Airy length is (A |kappa| / 2)^(1/3) / |lambda| sites.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .families import Charlier, DomainError, Meixner


def _phase(family, N):
    """(e, ((r_i, k_i, l_i), ...)) of the family's phase (module docstring)."""
    if isinstance(family, Meixner):
        s = family.s
        return 0.0, ((s, 1.0, 0.0), (1.0 / s, -1.0, 0.0), (0.0, 0.0, -1.0))
    if isinstance(family, Charlier):
        if N is None:
            raise DomainError("Charlier bulk regime requires N (tau = theta/N)")
        return -family.theta / N, ((-1.0, 0.0, 1.0), (0.0, -1.0, 0.0))
    return 0.0, ((-1.0 / family.p, 1.0, -1.0), (1.0 / family.q, 0.0, 1.0),
                 (0.0, -(N or 0) / family.M, 0.0))


class EdgeClassification(DomainError):
    """u is not strictly inside the bulk support."""

    def __init__(self, family, u: float, N: int | None = None):
        lo, hi = bulk_support(family, N)
        super().__init__(f"u={u} is not strictly inside the {family.name} bulk "
                         f"support ({lo:.6g}, {hi:.6g})")


def phase_derivative(family, z, u: float, N: int | None = None, order: int = 1):
    """d^order Phi / dz^order at z, for order >= 1."""
    e, terms = _phase(family, N)
    z = np.asarray(z, dtype=complex)
    scale = (-1) ** (order - 1) * factorial(order - 1)
    return (e if order == 1 else 0.0) + sum((k + l * u) * scale / (z - r) ** order
                                            for r, k, l in terms)


@lru_cache(maxsize=64)
def _saddle_rows(family, N):
    """(a, b, c) at u = 0 and per unit u of a z^2 + b z + c = Phi'(z; u) prod_i (z - r_i),
    of degree 2 in every family (e = 0 where there are three r_i)."""
    e, terms = _phase(family, N)
    roots = [r for r, _, _ in terms]
    rest = [np.r_[0.0, np.poly(roots[:i] + roots[i + 1:])][-3:] for i in range(len(roots))]
    return (e * np.poly(roots)[-3:] + sum(k * p for (_, k, _), p in zip(terms, rest)),
            sum(l * p for (_, _, l), p in zip(terms, rest)))


def _quadratic(family, u: float, N: int | None):
    """The saddle quadratic's (a, b, c) at u, signed so that a > 0, and d/du of it."""
    const, slope = _saddle_rows(family, N)
    sign = np.copysign(1.0, const[0] + u * slope[0])
    return sign * (const + u * slope), sign * slope


def bulk_support(family, N: int | None = None) -> tuple[float, float]:
    """The roots in u of b(u)^2 - 4 a(u) c(u), a quadratic in u."""
    (a, b, c), (a1, b1, c1) = _saddle_rows(family, N)
    q2, q1, q0 = b1 * b1 - 4 * a1 * c1, 2 * b * b1 - 4 * (a * c1 + a1 * c), b * b - 4 * a * c
    q = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4 * q2 * q0), q1))
    lo, hi = sorted((q / q2, q0 / q))
    return float(lo), float(hi)


def cos_theta(family, u: float, N: int | None = None) -> float:
    (a, b, c), _ = _quadratic(family, u, N)
    return float(-b / (2 * np.sqrt(a * c)))


def rho_closed_form(family, u: float, N: int | None = None) -> float:
    """The printed angular density (arcsine type; integrates to one)."""
    (a, b, c), (a1, b1, c1) = _quadratic(family, u, N)
    root_ac = np.sqrt(a * c)
    cth = -b / (2 * root_ac)
    if not -1.0 < cth < 1.0:
        raise EdgeClassification(family, u, N)
    dcos = -b1 / (2 * root_ac) + b * (a1 * c + a * c1) / (4 * root_ac ** 3)
    return float(abs(dcos) / (np.pi * np.sqrt(1.0 - cth * cth)))


def saddle_pair(family, u: float, N: int | None = None) -> tuple[complex, complex]:
    """The conjugate saddles (z+, z-), Im z+ > 0, at u strictly inside the bulk."""
    (a, b, c), _ = _quadratic(family, u, N)
    disc = b * b - 4 * a * c
    if disc >= 0:
        raise EdgeClassification(family, u, N)
    zp = (-b + 1j * np.sqrt(-disc)) / (2 * a)
    return complex(zp), complex(np.conj(zp))


def site_density(family, u: float, N: int | None = None) -> float:
    """Particles per lattice site at x ~ A u, |Im dPhi/du (z+)| / pi: it vanishes like
    a square root at a soft edge and saturates at a packed one.  Outside the bulk
    it is 1 past a packed edge (cos theta <= -1) and 0 past a soft one."""
    try:
        zp, _ = saddle_pair(family, u, N)
    except EdgeClassification:
        return 1.0 if cos_theta(family, u, N) <= -1 else 0.0
    dphi_du = sum(l * np.log(zp if r == 0 else 1 - zp / r) for r, _, l in _phase(family, N)[1])
    return float(abs(dphi_du.imag) / np.pi)


def density_total_mass(family, N: int | None = None) -> float:
    """Total mass of the closed-form density over the bulk support, by 64
    Gauss-Legendre nodes in phi, u = mid - half cos(phi): rho du is smooth in phi
    (constant for Charlier and Krawtchouk), free of the endpoint singularities."""
    lo, hi = bulk_support(family, N)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x, wt = leggauss(64)
    phi = 0.5 * np.pi * (x + 1.0)
    u = mid - half * np.cos(phi)
    vals = np.array([rho_closed_form(family, float(uu), N) for uu in u])
    return float(0.5 * np.pi * np.sum(wt * vals * half * np.sin(phi)))


def edge_data(family, N: int | None = None) -> dict:
    """Double root z* and the normal-form kappa and lambda at the right soft edge u*,
    the top of the bulk support.  A z* on a singularity r_i of the phase: DomainError."""
    u_star = bulk_support(family, N)[1]
    (a, b, _), _ = _quadratic(family, u_star, N)
    z = -b / (2 * a)
    terms = _phase(family, N)[1]
    if any(abs(z - r) <= 1e-12 * max(abs(r), 1.0) for r, _, _ in terms):
        raise DomainError(f"the right edge u*={u_star:.6g} is no soft edge: its double root "
                          f"z*={z:.6g} is a singularity of the {family.name} phase")
    d1, d2, d3 = (phase_derivative(family, z, u_star, N, n) for n in (1, 2, 3))
    lam = -z * sum(l / (z - r) for r, _, l in terms)
    return {"u_star": u_star, "z_star": float(z),
            "kappa": complex(z ** 3 * d3 + 3 * z ** 2 * d2 + z * d1),
            "lam": float(lam)}

