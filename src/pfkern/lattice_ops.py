"""Difference operators D+, D-, D and the inverse-difference operator eps
as dense matrices on a truncated lattice.

eps is built two independent ways: directly from its parity-split defining
sums, and through the factorization eps = F Y F with diagonal F and the
signed 0/+-1 checkerboard Y.  All weight-ratio products are accumulated in
log space.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import TruncatedLattice
from .wavefunctions import WaveTable


class OpKind(Enum):
    DPLUS = "dplus"
    DMINUS = "dminus"
    D = "d"
    EPSILON_DIRECT = "epsilon_direct"
    EPSILON_FACTORED = "epsilon_factored"


@dataclass(frozen=True)
class LatticeOperator:
    family: object
    lattice: TruncatedLattice
    kind: OpKind
    mat: np.ndarray
    tail_bound: float = 0.0   # size of the first truncated term (eps rows)

    @property
    def size(self) -> int:
        return self.mat.shape[0]


def _log_w(family, lattice):
    return family.log_weight(lattice.grid().astype(float))


def build_dplus(family, lattice: TruncatedLattice) -> LatticeOperator:
    lw = _log_w(family, lattice)
    n = lattice.size
    mat = np.zeros((n, n))
    ratio = np.exp(0.5 * (lw[:-1] - lw[1:]))
    mat[np.arange(n - 1), np.arange(1, n)] = ratio
    return LatticeOperator(family, lattice, OpKind.DPLUS, mat)


def build_dminus(family, lattice: TruncatedLattice) -> LatticeOperator:
    lw = _log_w(family, lattice)
    n = lattice.size
    mat = np.zeros((n, n))
    ratio = np.exp(0.5 * (lw[:-1] - lw[1:]))
    mat[np.arange(1, n), np.arange(n - 1)] = ratio
    return LatticeOperator(family, lattice, OpKind.DMINUS, mat)


def build_d(family, lattice: TruncatedLattice) -> LatticeOperator:
    dp = build_dplus(family, lattice)
    dm = build_dminus(family, lattice)
    return LatticeOperator(family, lattice, OpKind.D, dp.mat - dm.mat)


def build_epsilon_direct(family, lattice: TruncatedLattice) -> LatticeOperator:
    """Rows from the parity-split sums; even rows truncated at the lattice end.

    Entries: eps(2m, 2k+1) = -sqrt(w(2m)/w(2k+1)) prod_{j=m..k} w(2j+1)/w(2j)
    for k >= m, and the antisymmetric partners on odd rows.
    """
    lw = _log_w(family, lattice)
    n = lattice.size
    # cumulative log products of the odd/even ratio chain
    npairs = (n - 1) // 2 + 1
    ratio = np.full(npairs, -np.inf)
    for j in range(npairs):
        if 2 * j + 1 < n:
            ratio[j] = lw[2 * j + 1] - lw[2 * j]
    cum = np.concatenate([[0.0], np.cumsum(ratio)])  # cum[k+1]-cum[m] = sum_{j=m..k}
    mat = np.zeros((n, n))
    tail = 0.0
    for m in range(npairs):
        if 2 * m >= n:
            break
        ks = np.arange(m, npairs)
        cols = 2 * ks + 1
        keep = cols < n
        ks, cols = ks[keep], cols[keep]
        lv = 0.5 * (lw[2 * m] - lw[cols]) + (cum[ks + 1] - cum[m])
        vals = np.exp(lv)
        mat[2 * m, cols] = -vals
        mat[cols, 2 * m] = vals
        if cols.size and not family.finite:
            # next discarded term estimates the truncation tail
            k_next = ks[-1] + 1
            if 2 * k_next + 1 >= n and np.isfinite(ratio[-1] if k_next >= npairs else ratio[k_next - 1]):
                tail = max(tail, vals[-1] * np.exp(ratio[-1]))
    return LatticeOperator(family, lattice, OpKind.EPSILON_DIRECT, mat, tail_bound=tail)


def epsilon_f_diagonal(family, lattice: TruncatedLattice) -> np.ndarray:
    """log f(k): f(2k) = w(2)w(4)..w(2k) / (sqrt(w(2k)) w(1)w(3)..w(2k-1)),
    f(2k+1) = w(1)w(3)..w(2k+1) / (sqrt(w(2k+1)) w(2)w(4)..w(2k))."""
    lw = _log_w(family, lattice)
    n = lattice.size
    logf = np.zeros(n)
    even_acc = 0.0  # log prod w(2)...w(2k)
    odd_acc = 0.0   # log prod w(1)...w(2k-1)
    for k in range(n):
        if k % 2 == 0:
            j = k // 2
            if j >= 1:
                even_acc += lw[2 * j]
            logf[k] = -0.5 * lw[k] + even_acc - odd_acc
        else:
            j = (k - 1) // 2
            odd_acc += lw[2 * j + 1]
            logf[k] = -0.5 * lw[k] + odd_acc - even_acc
    return logf


def upsilon(n: int) -> np.ndarray:
    """Signed checkerboard: Y(2i, 2j+1) = -1 for j >= i, Y(2i+1, 2j) = +1 for j <= i."""
    Y = np.zeros((n, n))
    for i in range(0, n, 2):
        cols = np.arange(i + 1, n, 2)
        Y[i, cols] = -1.0
    for i in range(1, n, 2):
        cols = np.arange(0, i, 2)
        Y[i, cols] = 1.0
    return Y


def build_epsilon_factored(family, lattice: TruncatedLattice) -> LatticeOperator:
    """eps = F Y F computed entirely in log space: eps_ij = f_i Y_ij f_j."""
    logf = epsilon_f_diagonal(family, lattice)
    n = lattice.size
    Y = upsilon(n)
    lv = logf[:, None] + logf[None, :]
    if np.any((lv > 700) & (Y != 0)):
        i, j = np.nonzero((lv > 700) & (Y != 0))
        raise OverflowError(f"f(k) product overflows at entry ({i[0]}, {j[0]})")
    mat = Y * np.exp(np.minimum(lv, 700.0))
    return LatticeOperator(family, lattice, OpKind.EPSILON_FACTORED, mat)


def eps_separable_exponents(family, size: int):
    """alpha, beta with eps(2m, 2k+1) = -exp(alpha_m + beta_k) for k >= m
    and the antisymmetric partners; both exponent chains stay O(poly log)."""
    lw = family.log_weight(np.arange(size, dtype=float))
    odd = lw[1::2]
    even = lw[0::2][: len(odd)]
    csum = np.concatenate([[0.0], np.cumsum(odd - even)])
    n_even = (size + 1) // 2
    n_odd = size // 2
    alpha = 0.5 * lw[0::2][:n_even] - csum[:n_even]
    beta = csum[1:n_odd + 1] - 0.5 * lw[1::2][:n_odd]
    return alpha, beta


def apply_eps(family, vecs: np.ndarray) -> np.ndarray:
    """eps @ vecs for one vector or a stack of columns, via the separable
    parity-split form with suffix/prefix sums; O(size) per vector."""
    v = np.atleast_2d(vecs.T).T  # (size, ncols)
    size = v.shape[0]
    alpha, beta = eps_separable_exponents(family, size)
    out = np.zeros_like(v, dtype=float)
    vo = v[1::2]     # odd sites, length n_odd
    ve = v[0::2]     # even sites
    n_odd, n_even = vo.shape[0], ve.shape[0]
    # even rows 2m: -exp(alpha_m) * sum_{k>=m} exp(beta_k) v(2k+1)
    suffix = np.cumsum((np.exp(beta)[:, None] * vo)[::-1], axis=0)[::-1]
    out[0::2][:n_odd] = -np.exp(alpha[:n_odd])[:, None] * suffix
    # odd rows 2m+1: +exp(beta_m) * sum_{k<=m} exp(alpha_k) v(2k)
    prefix = np.cumsum(np.exp(alpha[:n_odd])[:, None] * ve[:n_odd], axis=0)
    out[1::2] = np.exp(beta)[:, None] * prefix
    return out if np.ndim(vecs) > 1 else out[:, 0]


def apply_d(family, vecs: np.ndarray) -> np.ndarray:
    """D @ vecs for one vector or a stack of columns: the two-diagonal
    stencil of `build_d`, without forming the matrix."""
    v = np.atleast_2d(vecs.T).T  # (size, ncols)
    lw = family.log_weight(np.arange(v.shape[0], dtype=float))
    ratio = np.exp(0.5 * (lw[:-1] - lw[1:]))[:, None]
    out = np.zeros_like(v, dtype=float)
    out[:-1] += ratio * v[1:]
    out[1:] -= ratio * v[:-1]
    return out if np.ndim(vecs) > 1 else out[:, 0]


def interior_window(lattice: TruncatedLattice) -> slice:
    """Rows/cols unaffected by eps-row truncation: x <= x_max/2."""
    return slice(0, lattice.x_max // 2 + 1)


def check_mutual_inverse(d_op: LatticeOperator, eps_op: LatticeOperator,
                         table: WaveTable, n_test: int = 20) -> dict:
    """max_n of ||D(eps phi_n) - phi_n||_inf and ||eps(D phi_n) - phi_n||_inf
    on the interior window; boundary rows reported separately."""
    win = interior_window(d_op.lattice)
    r_in = r_out = 0.0
    for n in range(min(n_test, table.n_max) + 1):
        ph = table.phi[n, : d_op.size]
        for v in (d_op.mat @ (eps_op.mat @ ph) - ph, eps_op.mat @ (d_op.mat @ ph) - ph):
            r_in = max(r_in, float(np.max(np.abs(v[win]))))
            r_out = max(r_out, float(np.max(np.abs(v))))
    return {"interior_residual": r_in, "full_residual": r_out}


def dump_csv(op: LatticeOperator, path: str) -> None:
    """(row, col, value) triples of the nonzero entries."""
    i, j = np.nonzero(op.mat)
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        for a, b in zip(i, j):
            fh.write(f"{a},{b},{op.mat[a, b]:.17g}\n")
