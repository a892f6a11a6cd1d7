"""Gap probabilities: Fredholm determinants det(I - K) by the Nystrom
method for continuum reference kernels, and finite determinants for the
discrete kernels restricted to lattice intervals.  The bulk gap study takes
(regime, A, u, lengths) like every study of `harness`: it reads rho_site and
(family, N) from the bulk frame at (A, u), cuts its intervals to the lattice
by the frames' rule, and reads one wave table for all its interval lengths.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .harness import bulk_frame, on_lattice
from .kernels import rank_of
from .refkernels import sine_kernel
from .wavefunctions import table_lattice, wave_table


def nystrom_det(kernel, a: float, b: float, nodes: int = 40) -> float:
    """det(I - K) on [a, b] with Gauss-Legendre discretization."""
    x, w = leggauss(nodes)
    x = 0.5 * (b - a) * (x + 1.0) + a
    w = 0.5 * (b - a) * w
    root = np.sqrt(w)
    M = root[:, None] * kernel(x[:, None], x[None, :]) * root[None, :]
    return float(np.linalg.det(np.eye(nodes) - M))


def gap_probability(kernel, a: float, b: float):
    """Nystrom determinant with a node-doubling convergence certificate.

    Returns (value, certificate), the certificate the difference between the
    last two levels: from 16 nodes, doubled until it is below 1e-10 or at 512.
    """
    n = 16
    prev = nystrom_det(kernel, a, b, n)
    while True:
        n *= 2
        val = nystrom_det(kernel, a, b, n)
        err = abs(val - prev)
        if err < 1e-10 or n >= 512:
            return val, err
        prev = val


def sine_gap(length: float):
    """det(I - K_sine) on [0, length]."""
    return gap_probability(sine_kernel, 0.0, length)


def discrete_gap(rows, points) -> float:
    """det(I - K) for the projection kernel K = rows^T rows restricted to the
    lattice points of an interval (rows phi_0..phi_(r-1)); 1 if it is empty."""
    if points.size == 0:
        return 1.0
    K = rows[:, points].T @ rows[:, points]
    return float(np.linalg.det(np.eye(len(points)) - K))


def bulk_scaled_gap_comparison(regime, A: int, u: float, lengths) -> dict:
    """Finite-N discrete gaps on bulk intervals against the sine-kernel gap.

    The lattice interval starting at A u with microscopic length L contains
    the lattice points x in [A u, A u + L / rho_site); both determinants are
    reported per length; a u not strictly inside the bulk support raises
    EdgeClassification.
    """
    family, N, _, _, _, fields = bulk_frame(regime, A, u)
    rho = fields["rho_site"]
    lo = int(np.ceil(A * u))
    intervals = [on_lattice(family, np.arange(lo, int(np.floor(A * u + L / rho)) + 1))
                 for L in lengths]
    # one table of rows 0..r-1 for every length, on the lattice the longest one needs
    r = rank_of(family, N)
    phi = wave_table(family, r - 1,
                     table_lattice(family, r + 1, lo + max(map(len, intervals)))).phi
    rows = []
    for L, pts in zip(lengths, intervals):
        d = discrete_gap(phi, pts)
        s, cert = sine_gap((len(pts)) * rho)
        rows.append({"length": float(L), "points": int(len(pts)),
                     "effective_length": float(len(pts) * rho),
                     "discrete": d, "sine": s, "sine_certificate": cert,
                     "rel_diff": abs(d - s) / s if s else float("inf")})
    return {"u": u, "N": N, "rho_site": rho, "entries": rows}
