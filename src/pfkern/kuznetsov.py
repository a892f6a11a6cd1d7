"""Spectral-test multipliers and their splicing into the beta = 4 block.

An even test h defines the holomorphic symbol m_h(w) = int h(t) w^(-2it) dt
on the slit plane (principal log); the Gaussian test h(t) = exp(-sigma t^2)
has it in closed form.  Splicing multiplies the inverse-difference symbol by
m_h in the family's contour variable.  Every spliced block is one call of
`kernels.gram_block` with eps the contour multiplier
`eps_multiplier(family, m_h)`, exactly as the unspliced `compose_columns`:
`spliced_s4` takes contour-extracted rows (provenance 'contour'),
`spliced_oracle` the recurrence-table rows ('oracle'), so the two are
independent evaluations (quadrature vs recurrence tables) of the same
object.  Neither has SD or epsS.

The quadrature circles necessarily cross the branch cut at negative real
points; the principal branch is used and the measured jump magnitude is
recorded per run rather than hidden (the admissible-sector requirement and
the need to encircle the origin genuinely conflict for circle contours).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .families import DomainError, QuadratureError
from .harness import edge_frame, fit_amplitude
from .kernels import KernelBlockSet, compose_columns, gram_block
from .refkernels import legendre_nodes
from .saddles import edge_data
from .symbols import default_contour, eps_multiplier, inverse_eps_symbol


@dataclass(frozen=True)
class GaussianTest:
    """h(t) = exp(-sigma t^2); closed-form symbol."""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")

    def h(self, t):
        return np.exp(-self.sigma * np.asarray(t, dtype=float) ** 2)

    def tail_T(self) -> float:
        return 9.0 / np.sqrt(self.sigma)

    def quadrature(self):
        """(t, weighted h) for even integrands: 400-node Gauss-Legendre on
        [0, T], doubled for the mirror half."""
        x, wt = legendre_nodes(400)
        T = self.tail_T()
        t = 0.5 * T * (x + 1.0)
        return t, T * wt * self.h(t)


def m_h(test: GaussianTest, w):
    """The spectral symbol on the slit plane (principal branch), in closed form:
    sqrt(pi/sigma) exp(-(log w)^2 / sigma); QuadratureError where it overflows."""
    w = np.asarray(w, dtype=complex)
    if np.any((w.real <= 0) & (np.abs(w.imag) < 1e-300)):
        raise DomainError("m_h is undefined on the branch cut (-inf, 0]")
    lw = np.log(w)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.sqrt(np.pi / test.sigma) * np.exp(-lw * lw / test.sigma)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(f"the Gaussian-test symbol m_h overflows at sigma={test.sigma:g}")
    return vals


def m_h_numeric(test: GaussianTest, w):
    """Quadrature of the defining integral (validation route).

    h is even, so m_h(w) = int h(t) cos(2 t log w) dt on the test's nodes
    and weights.  Returns a complex for a scalar w and an array of w's shape
    otherwise.
    """
    w = np.asarray(w, dtype=complex)
    t, hw = test.quadrature()
    vals = np.cos(2.0 * np.multiply.outer(np.log(w), t)) @ hw
    return vals if np.ndim(w) else complex(vals)


def reality_symmetry_check(test: GaussianTest) -> dict:
    """Reality on the unit circle inside the sector |arg w| <= 3 pi/4 (61 points)
    and the reflection symmetry conj(m_h(w)) = m_h(1/conj(w))."""
    on_circle = m_h(test, np.exp(1j * np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 61)))
    w0 = 1.3 * np.exp(1j * np.pi / 5)
    sym = abs(np.conj(m_h(test, w0)) - m_h(test, 1.0 / np.conj(w0)))
    return {"max_imag_unit_circle": float(np.max(np.abs(on_circle.imag))),
            "reflection_defect": float(sym)}


def branch_jump(test: GaussianTest, radius: float) -> float:
    """|m_h just above vs below the cut| at the contour radius."""
    eps = 1e-9
    a = m_h(test, radius * np.exp(1j * (np.pi - eps)))
    b = m_h(test, radius * np.exp(-1j * (np.pi - eps)))
    return float(abs(a - b))


def spliced_s4(family, N: int, test: GaussianTest, window=None) -> KernelBlockSet:
    """K (T_h eps) K with every factor coming from contour quadrature:
    multiplier columns for T_h eps and contour-extracted wave functions for
    both projections (the spliced oracle below evaluates the same operator
    from the recurrence tables instead)."""
    return gram_block(family, N, 4, window, "contour", eps_multiplier(family, partial(m_h, test)),
                      sigma=test.sigma,
                      branch_jump=branch_jump(test, default_contour(family, degree=N).radius))


def spliced_oracle(family, N: int, test: GaussianTest, window=None) -> KernelBlockSet:
    """Independent evaluation: identical multiplier realization, but all
    projection sums taken from the recurrence tables on a larger lattice."""
    return gram_block(family, N, 4, window, "oracle", eps_multiplier(family, partial(m_h, test)))


def edge_ratio_report(regime, test: GaussianTest, A: int) -> dict:
    """Spliced/unspliced amplitude ratio at the soft edge against the
    diagonal-derivative prediction.

    Both windows are computed with the same realization; the measured ratio
    is the least-squares amplitude (`fit_amplitude`) of the spliced window on
    the unspliced one, compared with M'(z*)/eps-hat'(z*) for M = eps-hat * m_h
    in the family's contour variable.  The window is the right edge frame's
    s in [-3, 1].
    """
    fam, N = regime.family_and_N(A)
    ed = edge_data(fam, N)
    _, _, xs, *_ = edge_frame(regime, A, ed, np.linspace(-3.0, 1.0, 11))
    measured = fit_amplitude(spliced_oracle(fam, N, test, xs).S, compose_columns(fam, N, xs).S)
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
