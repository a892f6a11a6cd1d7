"""Spectral-test multipliers and their splicing into the beta = 1, 4 blocks.

An even test h defines the holomorphic symbol m_h(w) = int h(t) w^(-2it) dt
on the slit plane (principal log).  Splicing multiplies the inverse-
difference symbol by m_h in the family's contour variable.  Every spliced
block is one call of `kernels.gram_block` with eps the contour multiplier
`eps_multiplier(family, m_h)`, exactly as the unspliced `compose_columns`:
`spliced_s4` takes contour-extracted rows (provenance 'contour'),
`spliced_oracle` the recurrence-table rows ('oracle'), so the two are
independent evaluations (quadrature vs recurrence tables) of the same
object; `spliced_s1` puts the spliced eps phi_b into the beta = 1 rank-one
term over the table rows ('contour-columns').  None has SD or epsS.

The quadrature circles necessarily cross the branch cut at negative real
points; the principal branch is used and the measured jump magnitude is
recorded per run rather than hidden (the admissible-sector requirement and
the need to encircle the origin genuinely conflict for circle contours).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .families import DomainError
from .kernels import (KernelBlockSet, beta1_indices, compose_columns, default_window,
                      gram_block)
from .symbols import default_contour, eps_multiplier, inverse_eps_symbol


@dataclass(frozen=True)
class GaussianTest:
    """h(t) = exp(-sigma t^2); closed-form symbol."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")

    def h(self, t):
        return np.exp(-self.sigma * np.asarray(t, dtype=float) ** 2)

    def tail_T(self) -> float:
        return 9.0 / np.sqrt(self.sigma)

    def quadrature(self, nodes: int = 400):
        """(t, weighted h) for even integrands: Gauss-Legendre on [0, T],
        doubled for the mirror half."""
        x, wt = leggauss(nodes)
        T = self.tail_T()
        t = 0.5 * T * (x + 1.0)
        return t, T * wt * self.h(t)


@dataclass(frozen=True)
class TabulatedTest:
    """Even samples of a smooth test h on a symmetric grid, with sector
    parameter delta.

    The samples stand for the smooth test, not for the piecewise-linear
    function through them (`h` interpolates linearly only to evaluate between
    samples).  Integrals against h, the symbol m_h and the exponential moment,
    are taken from the samples with the trapezoid rule on the tabulated grid.
    On a uniform grid that rule converges exponentially for a smooth, rapidly
    decaying h; on a non-uniform grid the same rule is used and is only
    second-order accurate in the largest step.
    """

    grid: tuple
    values: tuple
    delta: float = 0.2

    def __post_init__(self):
        g = np.asarray(self.grid)
        v = np.asarray(self.values)
        if not np.allclose(g, -g[::-1]) or not np.allclose(v, v[::-1], atol=1e-12):
            raise DomainError("tabulated test must be even on a symmetric grid")
        if not 0 < self.delta < np.pi:
            raise DomainError("delta must lie in (0, pi)")

    def h(self, t):
        return np.interp(np.abs(np.asarray(t, dtype=float)),
                         np.asarray(self.grid)[len(self.grid) // 2:],
                         np.asarray(self.values)[len(self.values) // 2:],
                         right=0.0)

    def tail_T(self) -> float:
        return float(np.max(np.abs(np.asarray(self.grid))))

    def quadrature(self, nodes: int = 400):
        """(t, weighted h): trapezoid weights on the tabulated grid; `nodes`
        is unused, since the samples fix the nodes."""
        t = np.asarray(self.grid, dtype=float)
        wts = np.zeros_like(t)
        wts[1:] += 0.5 * np.diff(t)
        wts[:-1] += 0.5 * np.diff(t)
        return t, wts * np.asarray(self.values, dtype=float)

    def exponential_moment(self) -> float:
        """Certificate integral int |h| exp(2(pi - delta)|t|) dt."""
        t, hw = self.quadrature()
        return float(np.abs(hw) @ np.exp(2 * (np.pi - self.delta) * np.abs(t)))


SpectralTest = GaussianTest | TabulatedTest


def m_h(test: SpectralTest, w):
    """The spectral symbol on the slit plane (principal branch)."""
    w = np.asarray(w, dtype=complex)
    if np.any((w.real <= 0) & (np.abs(w.imag) < 1e-300)):
        raise DomainError("m_h is undefined on the branch cut (-inf, 0]")
    if isinstance(test, GaussianTest):
        lw = np.log(w)
        return np.sqrt(np.pi / test.sigma) * np.exp(-lw * lw / test.sigma)
    return m_h_numeric(test, w)


def m_h_numeric(test: SpectralTest, w, nodes: int = 400):
    """Quadrature of the defining integral (validation route).

    h is even, so m_h(w) = int h(t) cos(2 t log w) dt; the test supplies the
    nodes and weights (`nodes` is the Gauss-Legendre count of a closed-form
    test).  Returns a complex for a scalar w and an array of w's shape
    otherwise.
    """
    w = np.asarray(w, dtype=complex)
    t, hw = test.quadrature(nodes)
    vals = np.cos(2.0 * np.multiply.outer(np.log(w), t)) @ hw
    return vals if np.ndim(w) else complex(vals)


def reality_symmetry_check(test: SpectralTest, phis=None) -> dict:
    """Reality on the unit circle inside the sector and the reflection
    symmetry conj(m_h(w)) = m_h(1/conj(w))."""
    phis = np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 61) if phis is None else phis
    on_circle = m_h(test, np.exp(1j * phis))
    w0 = 1.3 * np.exp(1j * np.pi / 5)
    sym = abs(np.conj(m_h(test, w0)) - m_h(test, 1.0 / np.conj(w0)))
    return {"max_imag_unit_circle": float(np.max(np.abs(on_circle.imag))),
            "reflection_defect": float(sym)}


def branch_jump(test: SpectralTest, radius: float) -> float:
    """|m_h just above vs below the cut| at the contour radius."""
    eps = 1e-9
    a = m_h(test, radius * np.exp(1j * (np.pi - eps)))
    b = m_h(test, radius * np.exp(-1j * (np.pi - eps)))
    return float(abs(a - b))


def spliced_s4(family, N: int, test: SpectralTest, window=None) -> KernelBlockSet:
    """K (T_h eps) K with every factor coming from contour quadrature:
    multiplier columns for T_h eps and contour-extracted wave functions for
    both projections (the spliced oracle below evaluates the same operator
    from the recurrence tables instead)."""
    return gram_block(family, N, 4, window, "contour", eps_multiplier(family, partial(m_h, test)),
                      sigma=getattr(test, "sigma", None),
                      branch_jump=branch_jump(test, default_contour(family, degree=N).radius))


def spliced_oracle(family, N: int, test: SpectralTest, window=None) -> KernelBlockSet:
    """Independent evaluation: identical multiplier realization, but all
    projection sums taken from the recurrence tables on a larger lattice."""
    return gram_block(family, N, 4, window, "oracle", eps_multiplier(family, partial(m_h, test)))


def spliced_s1(family, N: int, test: SpectralTest, window=None) -> KernelBlockSet:
    """K + (1/2) phi_a (x) (T_h eps phi_b) with the spliced rank-one factor."""
    return gram_block(family, N, 1, window, "oracle", eps_multiplier(family, partial(m_h, test)),
                      provenance="contour-columns", rank_one_indices=beta1_indices(family, N))


def constant_limit_check(family, N: int, sigmas=(1e2, 1e4, 1e6), window=None) -> dict:
    """sigma -> infinity: m_h -> sqrt(pi/sigma) so the spliced block must
    deform continuously to sqrt(pi/sigma) times the unspliced realization."""
    window = default_window(family, N) if window is None else np.asarray(window)
    base = compose_columns(family, N, window).S
    rows = []
    for s in sigmas:
        spl = spliced_s4(family, N, GaussianTest(sigma=s), window).S
        scale = np.sqrt(np.pi / s)
        rel = float(np.max(np.abs(spl - scale * base)) / (scale * np.max(np.abs(base))))
        rows.append({"sigma": s, "rel_err": rel})
    return {"entries": rows,
            "decreasing": bool(np.all(np.diff([r["rel_err"] for r in rows]) < 0))}


def edge_ratio_report(regime, test: SpectralTest, A: int = 96,
                      s_grid=None) -> dict:
    """Spliced/unspliced amplitude ratio at the soft edge against the
    diagonal-derivative prediction.

    Both windows are computed with the same realization; the measured ratio
    is the least-squares amplitude of the spliced window on the unspliced
    one, compared with M'(z*)/eps-hat'(z*) for M = eps-hat * m_h in the
    family's contour variable.
    """
    from .saddles import edge_data
    s_grid = np.linspace(-3.0, 1.0, 11) if s_grid is None else np.asarray(s_grid)
    fam, N = regime.family_and_N(A)
    ed = edge_data(fam, "right", N)
    c_A = (A * abs(ed["kappa"]) / 2.0) ** (1.0 / 3.0) / abs(ed["lam"])
    xs = np.unique(np.floor(A * ed["u_star"] + s_grid * c_A).astype(int))
    xs = xs[(xs >= 0) & (xs <= fam.M if fam.finite else True)]
    spl = spliced_oracle(fam, N, test, xs).S
    base = compose_columns(fam, N, xs).S
    measured = float(np.sum(spl * base) / np.sum(base * base))
    z_star = ed["z_star"]
    h = 1e-6
    eps_p = (inverse_eps_symbol(fam, z_star + h) - inverse_eps_symbol(fam, z_star - h)) / (2 * h)
    mh_val = m_h(test, z_star + 0j)
    mh_p = (m_h(test, z_star + h + 0j) - m_h(test, z_star - h + 0j)) / (2 * h)
    predicted = complex(mh_val + inverse_eps_symbol(fam, z_star) / eps_p * mh_p)
    return {"A": A, "z_star": z_star, "measured_ratio": measured,
            "predicted_ratio": float(np.real(predicted)),
            "rel_diff": float(abs(measured - np.real(predicted))
                              / abs(np.real(predicted)))}
