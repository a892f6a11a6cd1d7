"""Orthonormal wave functions phi_n(x) = P_n(x) sqrt(w(x)) / sqrt(h_n).

The table (`wave_table`): the monic three-term recurrence is run forward in the
degree with dynamic rescaling (exponent carried per lattice point).  Forward
recurrence is unstable deep in the left classically-forbidden region
x << a_n - 2 b_n, where phi_n is the minimal solution; those entries are
filled through the self-duality phi_n(x) = (-1)^(n+x) phi_x(n) shared by all
three families, which maps them into the stable region of the table.

The table is built in one pass over the degree: each row is finished as soon
as the recurrence reaches it (log magnitude, norm, duality fill), in place in
its own table row, so the table is the only table-sized array and the
recurrence itself keeps three row buffers.  The table's buffer may carry
`spare` rows past phi_n_max for its caller: the beta = 1 kernel block writes
its eps phi_b row there, so the block holds one lattice-sized array.

The table's norms h_n are lattice sums (in log space); no table is kept between calls.
With no table, `window_rows` runs the orthonormal recurrence at the requested sites
alone, so its norms are the closed form h_n = h_0 prod_(k<=n) b_k^2, h_0 = sum w, and
`full_row` gives one degree on the whole lattice in O(L) by the self-duality, with
Miller's backward recurrence past the turning point (Gautschi, SIAM Rev. 9, 1967).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import TruncatedLattice, truncate

_RESCALE_LIMIT = 1e120
_TINY_LOG = -745.0  # exp underflows to 0 below this


@dataclass(frozen=True)
class WaveTable:
    """phi[n, x] for n <= n_max, x on the truncated lattice, plus log h_n.
    phi is the head of `rows`, the table's buffer; its spare rows are the caller's."""

    lattice: TruncatedLattice
    rows: np.ndarray     # (n_max+1+spare, x_max+1)
    log_h: np.ndarray    # (n_max+1,)

    @property
    def n_max(self) -> int:
        return self.log_h.size - 1

    @property
    def phi(self) -> np.ndarray:
        return self.rows[: self.log_h.size]


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


def wave_table(family, n_max: int, lattice: TruncatedLattice, spare: int = 0) -> WaveTable:
    """Build the full orthonormal table on the truncated lattice, in a buffer
    with `spare` unwritten rows after it."""
    if family.finite and n_max > family.M // 2:
        # forward recurrence degrades for degrees near M; build the lower
        # half and complete with phi_n(x) = (-1)^(M-n+x) phi_{M-n}(M-x)
        M = family.M
        low = wave_table(family, M // 2, lattice)
        rows = np.zeros((n_max + 1 + spare, lattice.size))
        log_h = np.empty(n_max + 1)
        keep = min(n_max, M // 2)
        rows[: keep + 1] = low.phi[: keep + 1]
        log_h[: keep + 1] = low.log_h[: keep + 1]
        xs = np.arange(lattice.size)
        for n in range(keep + 1, n_max + 1):
            sign = (-1.0) ** ((M - n + xs) % 2)
            rows[n] = sign * low.phi[M - n, ::-1]
            _, b2 = family.jacobi(float(n))
            log_h[n] = log_h[n - 1] + np.log(b2)
        return WaveTable(lattice=lattice, rows=rows, log_h=log_h)
    x = lattice.grid().astype(float)
    deep, dual = _bad_edges(family, n_max, x)
    a, b2 = (c.tolist() for c in family.jacobi(np.arange(n_max, dtype=float)))
    rows = np.empty((n_max + 1 + spare, x.size))
    log_h = np.empty(n_max + 1)
    # scaled monic values r_cur = P_n exp(-e), r_prev = P_{n-1} exp(-e);
    # shift = e + log sqrt(w), so log|P_n sqrt(w)| = log|r_cur| + shift.
    # t holds the recurrence's product, then |r_cur|, then that log; each
    # degree's u = exp(t - max t) is formed in its own table row
    r_prev, r_cur, shift = np.zeros_like(x), np.ones_like(x), 0.5 * family.log_weight(x)
    t = np.empty_like(x)
    with np.errstate(divide="ignore"):          # log|r| = -inf at an exact root
        for n in range(n_max + 1):
            if n:       # b_0^2 = 0, so P_1 = x - a_0
                np.multiply(np.subtract(x, a[n - 1], out=t), r_cur, out=t)
                r_prev *= b2[n - 1]
                r_prev, r_cur = r_cur, np.subtract(t, r_prev, out=r_prev)
            mag = np.abs(r_cur, out=t)
            if mag.max() > _RESCALE_LIMIT:      # divide the big sites by |r_cur|
                big = np.nonzero(mag > _RESCALE_LIMIT)[0]
                sc, mag[big] = mag[big], 1.0
                r_cur[big] /= sc
                r_prev[big] /= sc
                shift[big] += np.log(sc)
            np.add(np.log(mag, out=t), shift, out=t)
            # Trusted columns give a partial norm; the discarded columns' true
            # mass is sum_B phi_x(n)^2 by duality, with all dual rows (degree
            # x < n) already final, so h_n = (trusted sum) / (1 - that mass).
            cols = np.nonzero(n > dual[: np.searchsorted(x, deep[n])])[0]
            mass = 0.0
            if cols.size:
                dual_vals = rows[cols, n]
                mass = dual_vals @ dual_vals
                t[cols] = -np.inf
            t_max = t.max()
            row = np.exp(np.subtract(t, t_max, out=rows[n]), out=rows[n])
            log_h[n] = 2.0 * t_max + math.log(row @ row) - math.log1p(-mass)
            half = 0.5 * log_h[n]
            np.copysign(row, r_cur, out=row)
            row *= math.exp(t_max - half)
            row[np.subtract(t, half, out=t) <= _TINY_LOG] = 0.0
            if cols.size:
                row[cols] = np.where((n + cols) % 2 == 0, 1.0, -1.0) * dual_vals
    return WaveTable(lattice=lattice, rows=rows, log_h=log_h)


def _recurrence(c, d, log0):
    """(u, s) with v_k = u_k exp(s_k) solving v_(k+1) = c_k v_k - d_k v_(k-1) from v_0 = exp(log0),
    v_(-1) = 0, for float lists c, d; u is rescaled to 1 where it passes _RESCALE_LIMIT."""
    u, s, prev, cur, shift = [1.0], [log0], 0.0, 1.0, log0
    for ck, dk in zip(c, d):
        prev, cur = cur, ck * cur - dk * prev
        if abs(cur) > _RESCALE_LIMIT:
            prev, cur, shift = prev / abs(cur), math.copysign(1.0, cur), shift + math.log(abs(cur))
        u.append(cur)
        s.append(shift)
    return np.array(u), np.array(s)


def _column(family, x: int, n_max: int) -> np.ndarray:
    """phi_0(x)..phi_n_max(x) by the degree recurrence at the one site x: forward from phi_0 =
    sqrt(w(x) / h_0) (h_0 = 1, or (1 - xi)^-beta_m for Meixner) to the turning point t, the dual
    zone edge a_x + 2 b_x or, for Krawtchouk alone (Meixner's zone edges are not dual), the last
    degree whose zone holds x if earlier; past t, where phi_n(x) is the minimal solution, Miller's
    backward recurrence scaled to meet it at t, from M + 1 (b = 0) for Krawtchouk, else from where
    |l-/l+| (roots of l^2 - c l + d) has multiplied to e^-40 past n_max, the coefficients doubled
    until it has (about 40 / (1 - xi) degrees as xi -> 1)."""
    a_x, b2_x = family.jacobi(float(x))
    t, top, decay = min(n_max, int(a_x + 2.0 * math.sqrt(b2_x))), n_max + 32, [0.0]
    while decay[-1] < 40.0:
        top *= 2
        a, b2 = family.jacobi(np.arange((family.M if family.finite else top) + 2.0))
        b = np.sqrt(b2)
        if family.finite:
            inside = np.flatnonzero((x - a[:n_max + 1]) ** 2 <= 4.0 * b2[:n_max + 1])
            t = min([t, *inside[-1:]])
        if family.finite or t == n_max:
            break
        c, d = np.abs(x - a[n_max:-2]) / b[n_max + 1:-1], b[n_max:-2] / b[n_max + 1:-1]
        decay = 2.0 * np.cumsum(np.arctanh(np.sqrt(np.maximum(c * c - 4.0 * d, 0.0)) / c))
    top = t if t == n_max else family.M if family.finite else n_max + int(decay.searchsorted(40.0))
    log_h0 = -family.beta_m * math.log1p(-family.xi) if family.name == "meixner" else 0.0
    u, s = _recurrence(((x - a[:t]) / b[1:t + 1]).tolist(), (b[:t] / b[1:t + 1]).tolist(),
                       0.5 * (float(family.log_weight(float(x))) - log_h0))
    n = np.arange(top, t, -1)
    v, e = _recurrence(((x - a[n]) / b[n]).tolist(), (b[n + 1] / b[n]).tolist(), 0.0)
    tail = v[-2::-1] * (u[-1] / v[-1]) * np.exp(e[-2::-1] - e[-1] + s[-1])
    return np.concatenate([u * np.exp(s), tail])[:n_max + 1]


def window_rows(family, n_max: int, sites) -> np.ndarray:
    """phi_0..phi_n_max at the sites alone, one column per site (`_column`)."""
    return np.stack([_column(family, int(x), n_max) for x in sites], axis=1)


def full_row(family, n: int, size: int) -> np.ndarray:
    """phi_n at the sites 0..size-1 in O(size) by the duality phi_n(y) = (-1)^(n+y) phi_y(n)."""
    row = _column(family, n, size - 1)
    return np.where((n + np.arange(size)) % 2, -row, row)


def table_lattice(family, n_max: int, x_max: int) -> TruncatedLattice:
    """The truncated lattice of a table of degrees <= n_max: it covers the top degree's
    oscillatory zone to a + 2b and its Airy tail, and reaches x_max (all of Krawtchouk's)."""
    a, b2 = family.jacobi(float(n_max))
    b = np.sqrt(max(b2, 0.0))
    zone = int(np.ceil(a + 2 * b + 10 * max(1.0, b ** (2.0 / 3.0)))) + 10
    return truncate(family, x_min=max(zone, n_max + 1, x_max))


def get_table(family, n_max: int, x_max: int | None = None) -> WaveTable:
    """Wave table for degrees <= n_max (at most M for Krawtchouk) on the
    `table_lattice` that reaches x_max; built on every call."""
    if family.finite:
        n_max = min(n_max, family.M)
    return wave_table(family, n_max, table_lattice(family, n_max, x_max or 0))
