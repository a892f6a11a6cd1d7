"""Orthonormal wave functions phi_n(x) = P_n(x) sqrt(w(x)) / sqrt(h_n).

Evaluation strategy: the monic three-term recurrence is run forward in the
degree with dynamic rescaling (exponent carried per lattice point).  Forward
recurrence is unstable deep in the left classically-forbidden region
x << a_n - 2 b_n, where phi_n is the minimal solution; those entries are
filled through the self-duality phi_n(x) = (-1)^(n+x) phi_x(n) shared by all
three families, which maps them into the stable region of the table.

The table is built in one pass over the degree: each row is finished as soon
as the recurrence reaches it (log magnitude, norm, duality fill), so phi is
the only table-sized array and the recurrence itself keeps two rows.

Norms h_n are always obtained by direct lattice summation (in log space),
never from closed forms; closed forms appear only in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import TruncatedLattice, truncate, DomainError

_RESCALE_LIMIT = 1e120
_TINY_LOG = -745.0  # exp underflows to 0 below this


@dataclass(frozen=True)
class WaveTable:
    """phi[n, x] for n <= n_max, x on the truncated lattice, plus log h_n."""

    family: object
    lattice: TruncatedLattice
    phi: np.ndarray      # (n_max+1, x_max+1)
    log_h: np.ndarray    # (n_max+1,)

    @property
    def n_max(self) -> int:
        return self.phi.shape[0] - 1


def _zone_edges(family, ns):
    """Oscillatory-zone edges a_n -+ 2 b_n per degree."""
    a, b2 = family.jacobi(ns.astype(float))
    b = np.sqrt(np.maximum(b2, 0.0))
    return a - 2.0 * b, a + 2.0 * b, b


def _bad_edges(family, n_max, x):
    """Entry (n, x) is bad iff x < deep[n] and n > dual[x]: it lies in the
    left classically-forbidden region x < a_n - 2 b_n, where the forward
    recurrence amplifies roundoff.  There the dual entry (degree x, point n)
    sits in its stable right-forbidden region (the zone edges of the three
    families are dual: x < left(n) iff n > right(x)), so the duality fill is
    available whenever the table has row x; dual[x] is inf past row n_max."""
    left = _zone_edges(family, np.arange(n_max + 1))[0]
    right = np.where(x <= n_max, _zone_edges(family, x)[1], np.inf)
    return left - 1.0, right + 1.0


def _zone_need(family, n_max):
    """Lattice size covering the top degree's zone plus its Airy tail."""
    a, b2 = family.jacobi(float(n_max))
    b = np.sqrt(max(b2, 0.0))
    return int(np.ceil(a + 2 * b + 10 * max(1.0, b ** (2.0 / 3.0)))) + 10


def wave_table(family, n_max: int, lattice: TruncatedLattice | None = None) -> WaveTable:
    """Build the full orthonormal table on the (truncated) lattice."""
    if lattice is None:
        # the table must cover the oscillatory zone of the top degree
        lattice = truncate(family, x_min=max(_zone_need(family, n_max), n_max + 1))
    if family.finite and n_max > family.M:
        raise DomainError(f"degree {n_max} exceeds Krawtchouk M={family.M}")
    if family.finite and n_max > family.M // 2:
        # forward recurrence degrades for degrees near M; build the lower
        # half and complete with phi_n(x) = (-1)^(M-n+x) phi_{M-n}(M-x)
        M = family.M
        low = wave_table(family, M // 2, lattice)
        phi = np.zeros((n_max + 1, lattice.size))
        log_h = np.empty(n_max + 1)
        keep = min(n_max, M // 2)
        phi[: keep + 1] = low.phi[: keep + 1]
        log_h[: keep + 1] = low.log_h[: keep + 1]
        xs = np.arange(lattice.size)
        for n in range(keep + 1, n_max + 1):
            sign = (-1.0) ** ((M - n + xs) % 2)
            phi[n] = sign * low.phi[M - n, ::-1]
            _, b2 = family.jacobi(float(n))
            log_h[n] = log_h[n - 1] + np.log(b2)
        return WaveTable(family=family, lattice=lattice, phi=phi, log_h=log_h)
    x = lattice.grid().astype(float)
    deep, dual = _bad_edges(family, n_max, x)
    a, b2 = (c.tolist() for c in family.jacobi(np.arange(n_max, dtype=float)))
    phi = np.empty((n_max + 1, x.size))
    log_h = np.empty(n_max + 1)
    # scaled monic values r_cur = P_n exp(-e), r_prev = P_{n-1} exp(-e);
    # shift = e + log sqrt(w), so log|P_n sqrt(w)| = log|r_cur| + shift
    r_prev, r_cur, shift = np.zeros_like(x), np.ones_like(x), 0.5 * family.log_weight(x)
    with np.errstate(divide="ignore"):          # log|r| = -inf at an exact root
        for n in range(n_max + 1):
            if n:       # b_0^2 = 0, so P_1 = x - a_0
                r_prev, r_cur = r_cur, (x - a[n - 1]) * r_cur - b2[n - 1] * r_prev
            mag = np.abs(r_cur)
            if mag.max() > _RESCALE_LIMIT:      # divide the big sites by |r_cur|
                big = np.nonzero(mag > _RESCALE_LIMIT)[0]
                sc, mag[big] = mag[big], 1.0
                r_cur[big] /= sc
                r_prev[big] /= sc
                shift[big] += np.log(sc)
            t = np.log(mag) + shift
            # Trusted columns give a partial norm; the discarded columns' true
            # mass is sum_B phi_x(n)^2 by duality, with all dual rows (degree
            # x < n) already final, so h_n = (trusted sum) / (1 - that mass).
            cols = np.nonzero(n > dual[: np.searchsorted(x, deep[n])])[0]
            mass = 0.0
            if cols.size:
                dual_vals = phi[cols, n]
                mass = dual_vals @ dual_vals
                t[cols] = -np.inf
            t_max = t.max()
            u = np.exp(t - t_max)
            log_h[n] = 2.0 * t_max + math.log(u @ u) - math.log1p(-mass)
            half = 0.5 * log_h[n]
            row = np.copysign(u, r_cur, out=phi[n])
            row *= math.exp(t_max - half)
            row[t - half <= _TINY_LOG] = 0.0
            if cols.size:
                row[cols] = np.where((n + cols) % 2 == 0, 1.0, -1.0) * dual_vals
    return WaveTable(family=family, lattice=lattice, phi=phi, log_h=log_h)


@lru_cache(maxsize=48)
def _cached_table(family, n_max, lattice):
    return wave_table(family, n_max, lattice)


def get_table(family, n_max: int, x_max: int | None = None) -> WaveTable:
    """Memoized wave table for degrees <= n_max, keyed on the lattice truncated above x_max."""
    if family.finite:
        n_max = min(n_max, family.M)
    x_min = max(_zone_need(family, n_max), n_max + 1, x_max or 0)
    return _cached_table(family, n_max, truncate(family, x_min=x_min))

