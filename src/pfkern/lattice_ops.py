"""The difference operator D and its inverse eps on the lattice.

Each operator exists twice.  The blocks run the O(L) forms: `apply_d`, the
two-diagonal stencil, and `apply_eps`, the factorization eps = F Y F (diagonal
F, signed 0/+-1 checkerboard Y) taken as parity-split prefix and suffix sums.
`build_d` and `build_epsilon_direct` are the dense L x L references, the
latter straight from the defining sums; tests and `check_mutual_inverse`
measure the running forms against them.  All weight-ratio products are
accumulated in log space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import QuadratureError, TruncatedLattice
from .wavefunctions import WaveTable


@dataclass(frozen=True)
class LatticeOperator:
    """A dense L x L reference operator; the benchmark's gate, `validate`,
    `dump_csv` and the tests read its matrix `mat`."""

    mat: np.ndarray


def _log_w(family, lattice):
    return family.log_weight(lattice.grid().astype(float))


def build_d(family, lattice: TruncatedLattice) -> LatticeOperator:
    """D = D+ - D-: sqrt(w(x)/w(x+1)) on the superdiagonal, minus it below."""
    lw = _log_w(family, lattice)
    n = lattice.size
    mat = np.zeros((n, n))
    ratio = np.exp(0.5 * (lw[:-1] - lw[1:]))
    mat[np.arange(n - 1), np.arange(1, n)] = ratio
    mat[np.arange(1, n), np.arange(n - 1)] = -ratio
    return LatticeOperator(mat)


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
    ratio[: n // 2] = lw[1::2] - lw[0::2][: n // 2]
    cum = np.concatenate([[0.0], np.cumsum(ratio)])  # cum[k+1]-cum[m] = sum_{j=m..k}
    mat = np.zeros((n, n))
    for m in range(npairs):     # even rows 2m < n
        ks = np.arange(m, npairs)
        cols = 2 * ks + 1
        keep = cols < n
        ks, cols = ks[keep], cols[keep]
        lv = 0.5 * (lw[2 * m] - lw[cols]) + (cum[ks + 1] - cum[m])
        vals = np.exp(lv)
        mat[2 * m, cols] = -vals
        mat[cols, 2 * m] = vals
    return LatticeOperator(mat)


def eps_separable_exponents(family, size: int):
    """alpha, beta with eps(2m, 2k+1) = -exp(alpha_m + beta_k) for k >= m
    and the antisymmetric partners, m, k < size // 2 (for odd size the last
    even row of eps is zero).  They are the diagonal of eps = F Y F up to one
    constant: log f(2m) = alpha_m - log w(0), log f(2k+1) = beta_k + log w(0).
    Both chains reach about +-theta/2 for Charlier."""
    lw = family.log_weight(np.arange(size, dtype=float))
    odd, even = lw[1::2], lw[0::2][: size // 2]
    csum = np.cumsum(odd - even)
    return 0.5 * even - np.concatenate([[0.0], csum])[: size // 2], csum - 0.5 * odd


def apply_eps(family, vecs: np.ndarray) -> np.ndarray:
    """eps @ vecs for one vector or a stack of columns, via the separable
    parity-split form with suffix/prefix sums; O(size) per vector.  Raises
    QuadratureError where a factor exp(alpha) or exp(beta) overflows."""
    v = np.atleast_2d(vecs.T).T  # (size, ncols)
    size = v.shape[0]
    alpha, beta = eps_separable_exponents(family, size)
    with np.errstate(over="ignore"):
        f_even, f_odd = np.exp(alpha)[:, None], np.exp(beta)[:, None]
    if np.isinf(f_even).any() or np.isinf(f_odd).any():
        raise QuadratureError(f"eps factors exp(alpha), exp(beta) overflow on {size} lattice sites")
    out = np.zeros_like(v, dtype=float)
    # even rows 2m: -exp(alpha_m) * sum_{k>=m} exp(beta_k) v(2k+1)
    out[0::2][: size // 2] = -f_even * np.cumsum((f_odd * v[1::2])[::-1], axis=0)[::-1]
    # odd rows 2m+1: +exp(beta_m) * sum_{k<=m} exp(alpha_k) v(2k)
    out[1::2] = f_odd * np.cumsum(f_even * v[0::2][: size // 2], axis=0)
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


def check_mutual_inverse(family, table: WaveTable, n_test: int = 20) -> dict:
    """max over phi_0..phi_n_test of |D(eps phi) - phi| and |eps(D phi) - phi|,
    with `apply_d`/`apply_eps` on the table's own lattice: on the interior
    window and over the whole lattice."""
    phi = table.phi[: min(n_test, table.n_max) + 1].T
    res = np.abs(np.hstack([apply_d(family, apply_eps(family, phi)) - phi,
                            apply_eps(family, apply_d(family, phi)) - phi]))
    return {"interior_residual": float(np.max(res[interior_window(table.lattice)])),
            "full_residual": float(np.max(res))}


def dump_csv(op: LatticeOperator, path: str) -> None:
    """(row, col, value) triples of the nonzero entries."""
    i, j = np.nonzero(op.mat)
    with open(path, "w") as fh:
        fh.write("row,col,value\n")
        for a, b in zip(i, j):
            fh.write(f"{a},{b},{op.mat[a, b]:.17g}\n")
