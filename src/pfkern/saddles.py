"""Saddle points, bulk supports, densities and spacings per family.

The one-variable phase of each projection kernel has two conjugate saddles
z+-(u) for macroscopic positions u inside the bulk support; their angle
theta(u) drives two densities:

  * rho(u): the closed-form angular density 1/pi |dtheta/du| (normalized to
    unit total mass), paired with the spacing Delta = 1/(2 pi rho);
  * site_density(u): the particle density per lattice site,
    Im d(phase)/du / pi evaluated at the upper saddle, which is what the
    microscopic scaling of the convergence harnesses must use.

The large parameter A is 2N (Meixner), N (Charlier), M (Krawtchouk).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .families import Charlier, Meixner, DomainError


@dataclass(frozen=True)
class BulkPoint:
    """Saddle data at one macroscopic position u inside the bulk."""

    family_name: str
    u: float
    z_plus: complex
    z_minus: complex
    theta: float          # angle of the saddle pair, in (0, pi)
    phi2_plus: complex    # second derivative of the phase at z_plus
    rho: float            # angular density (closed form)
    spacing: float        # Delta with 2 pi Delta rho = 1
    site_density: float   # particles per lattice site
    A: float              # large parameter


def large_parameter(family, N: int) -> int:
    if isinstance(family, Meixner):
        return 2 * N
    if isinstance(family, Charlier):
        return N
    return family.M


class EdgeClassification(Exception):
    """u is not strictly inside the bulk; carries which side."""

    def __init__(self, side: str, u: float):
        super().__init__(f"u={u} is at/outside the {side} edge")
        self.side = side


# -- asymptotic parameter bundles -------------------------------------------


def asymptotic_params(family, N: int | None = None) -> dict:
    """Dimensionless parameters of the N -> infinity regime."""
    if isinstance(family, Meixner):
        return {"s": family.s}
    if isinstance(family, Charlier):
        if N is None:
            raise DomainError("Charlier bulk regime requires N (tau = theta/N)")
        return {"tau": family.theta / N}
    return {"gamma": (N or 0) / family.M, "p": family.p}


def bulk_support(family, N: int | None = None) -> tuple[float, float]:
    pars = asymptotic_params(family, N)
    if isinstance(family, Meixner):
        s = pars["s"]
        return (1 - s) / (1 + s), (1 + s) / (1 - s)
    if isinstance(family, Charlier):
        tau = pars["tau"]
        return 1 + tau - 2 * np.sqrt(tau), 1 + tau + 2 * np.sqrt(tau)
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    c = p - g * (p - q)
    h = 2 * np.sqrt(g * (1 - g) * p * q)
    return c - h, c + h


def cos_theta(family, u: float, N: int | None = None) -> float:
    pars = asymptotic_params(family, N)
    if isinstance(family, Meixner):
        s = pars["s"]
        return (u * (1 + s * s) + (s * s - 1)) / (2 * s * u)
    if isinstance(family, Charlier):
        tau = pars["tau"]
        return (u - (1 + tau)) / (2 * np.sqrt(tau))
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return ((p - u) - g * (p - q)) / (2 * np.sqrt(g * (1 - g) * p * q))


def saddle_quadratic(family, u: float, N: int | None = None):
    """(a, b, c) with a z^2 + b z + c = 0 the saddle equation."""
    pars = asymptotic_params(family, N)
    if isinstance(family, Meixner):
        s = pars["s"]
        return u * s, (1 - u) - (1 + u) * s * s, u * s
    if isinstance(family, Charlier):
        tau = pars["tau"]
        return tau, tau + 1 - u, 1.0
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return p * q * (1 - g), -((p - u) - g * (p - q)), g


def phase_d1(family, z, u, N=None):
    """First derivative of the one-variable phase."""
    pars = asymptotic_params(family, N)
    z = np.asarray(z, dtype=complex)
    if isinstance(family, Meixner):
        s = pars["s"]
        return s / (z * (z - s)) + s / (1 - s * z) - (u - 1) / z
    if isinstance(family, Charlier):
        tau = pars["tau"]
        return u / (1 + z) - tau - 1 / z
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return (1 - u) * p / (1 + p * z) - u * q / (1 - q * z) - g / z


def phase_d2(family, z, u, N=None):
    pars = asymptotic_params(family, N)
    z = np.asarray(z, dtype=complex)
    if isinstance(family, Meixner):
        s = pars["s"]
        return (-s * (2 * z - s) / (z * (z - s)) ** 2
                + s * s / (1 - s * z) ** 2 + (u - 1) / z ** 2)
    if isinstance(family, Charlier):
        return -u / (1 + z) ** 2 + 1 / z ** 2
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return -(1 - u) * p * p / (1 + p * z) ** 2 - u * q * q / (1 - q * z) ** 2 + g / z ** 2


def phase_d3(family, z, u, N=None):
    pars = asymptotic_params(family, N)
    z = np.asarray(z, dtype=complex)
    if isinstance(family, Meixner):
        s = pars["s"]
        w2 = z * z - s * z
        return (-2 * s * (w2 - (2 * z - s) ** 2) / w2 ** 3
                + 2 * s ** 3 / (1 - s * z) ** 3 - 2 * (u - 1) / z ** 3)
    if isinstance(family, Charlier):
        return 2 * u / (1 + z) ** 3 - 2 / z ** 3
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return (2 * (1 - u) * p ** 3 / (1 + p * z) ** 3
            - 2 * u * q ** 3 / (1 - q * z) ** 3 + 2 * g / z ** 3)


def rho_closed_form(family, u: float, N: int | None = None) -> float:
    """The printed angular density (arcsine type; integrates to one)."""
    pars = asymptotic_params(family, N)
    c = cos_theta(family, u, N)
    if not -1.0 < c < 1.0:
        raise EdgeClassification("right" if c >= 1 else "left", u)
    root = np.sqrt(1.0 - c * c)
    if isinstance(family, Meixner):
        s = pars["s"]
        return (1 - s * s) / (2 * np.pi * s * u * u) / root
    if isinstance(family, Charlier):
        return 1.0 / (2 * np.pi * np.sqrt(pars["tau"])) / root
    g, p = pars["gamma"], pars["p"]
    q = 1 - p
    return 1.0 / (2 * np.pi * np.sqrt(g * (1 - g) * p * q)) / root


def saddle_solve(family, u: float, N: int | None = None) -> BulkPoint:
    """Conjugate saddles, phase curvature and both densities at bulk u."""
    a, b, c = saddle_quadratic(family, u, N)
    disc = b * b - 4 * a * c
    if disc >= 0:
        side = "left" if u <= sum(bulk_support(family, N)) / 2 else "right"
        raise EdgeClassification(side, u)
    zp = (-b + 1j * np.sqrt(-disc)) / (2 * a)
    zm = np.conj(zp)
    th = float(np.arccos(np.clip(cos_theta(family, u, N), -1.0, 1.0)))
    rho = rho_closed_form(family, u, N)
    site = site_density(family, u, N)
    A = large_parameter(family, N) if N is not None else np.nan
    return BulkPoint(family_name=family.name, u=u, z_plus=complex(zp),
                     z_minus=complex(zm), theta=th,
                     phi2_plus=complex(phase_d2(family, zp, u, N)),
                     rho=rho, spacing=1.0 / (2 * np.pi * rho),
                     site_density=site, A=float(A))


def site_density(family, u: float, N: int | None = None) -> float:
    """Particles per lattice site at x ~ A u: |Im d(phase)/du| / pi at z_+.

    This is the density that fixes the microscopic sine-kernel scaling; it
    vanishes like a square root at soft edges and saturates at 1 at packed
    edges, unlike the closed-form angular density.
    """
    a, b, c = saddle_quadratic(family, u, N)
    disc = b * b - 4 * a * c
    if disc >= 0:
        cth = cos_theta(family, u, N)
        return 1.0 if cth <= -1 else 0.0
    zp = (-b + 1j * np.sqrt(-disc)) / (2 * a)
    if isinstance(family, Meixner):
        val = -np.log(zp)
    elif isinstance(family, Charlier):
        val = np.log(1 + zp)
    else:
        val = np.log((1 - family.q * zp) / (1 + family.p * zp))
    return float(abs(val.imag) / np.pi)


def density_and_spacing(family, u: float, N: int | None = None,
                        A: int | None = None) -> tuple[float, float]:
    """(rho, Delta) with the closed-form rho and 2 pi Delta rho = 1; the
    harnesses use `site_density` instead (see module docstring)."""
    rho = rho_closed_form(family, u, N)
    return rho, 1.0 / (2.0 * np.pi * rho)


def density_total_mass(family, N: int | None = None, nodes: int = 64) -> float:
    """Total mass of the closed-form density over the bulk support.

    The substitution u = mid - half cos(phi), phi in (0, pi), cancels the
    inverse-square-root endpoint singularities: rho du becomes a smooth
    function of phi (a constant for Charlier and Krawtchouk).  `nodes` is
    the number of Gauss-Legendre nodes in phi.
    """
    lo, hi = bulk_support(family, N)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x, wt = leggauss(nodes)
    phi = 0.5 * np.pi * (x + 1.0)
    u = mid - half * np.cos(phi)
    vals = np.array([rho_closed_form(family, float(uu), N) for uu in u])
    return float(0.5 * np.pi * np.sum(wt * vals * half * np.sin(phi)))


# -- soft edges --------------------------------------------------------------


def edge_data(family, side: str = "right", N: int | None = None) -> dict:
    """Coalesced saddle and cubic normal-form coefficients at a soft edge.

    kappa is the third phase derivative in the logarithmic chart z d/dz,
    lambda the mixed u-derivative; the Airy length in lattice sites is
    (A |kappa|)^(1/3) / |lambda|.
    """
    lo, hi = bulk_support(family, N)
    u_star = hi if side == "right" else lo
    a, b, c = saddle_quadratic(family, u_star, N)
    z_star = -b / (2 * a)
    kappa = (z_star ** 3 * phase_d3(family, z_star, u_star, N)
             + 3 * z_star ** 2 * phase_d2(family, z_star, u_star, N)
             + z_star * phase_d1(family, z_star, u_star, N))
    # lambda = -z d/dz du(phase): family-wise d/du d/dz of the phase
    if isinstance(family, Meixner):
        lam = -z_star * (-1.0 / z_star)
    elif isinstance(family, Charlier):
        lam = -z_star / (1 + z_star)
    else:
        lam = -z_star * (-family.p / (1 + family.p * z_star)
                         - family.q / (1 - family.q * z_star))
    return {"u_star": float(u_star), "z_star": float(np.real(z_star)),
            "kappa": complex(kappa), "lam": float(np.real(lam)),
            "side": side}
