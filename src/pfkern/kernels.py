"""Projection kernels and the beta = 1, 4 scalar/off-diagonal blocks.

Every block on a window is one Gram sandwich S = L_x^T E R_y: row stacks
L, R of wave functions on the truncated lattice around a small Gram E.  At
beta = 4, L = R = Phi = phi_0..phi_(r-1) and E = Phi eps(Phi)^T.  At beta = 1
the rows phi_0..phi_a and eps phi_b share one buffer T = [phi_0..phi_a,
eps phi_b], with L = T[:a + 1], R = T and the (a + 1) x (a + 2) Gram with
E[k, k] = 1 for k < a and E[a, a + 1] = 1/2: K plus the rank-one term.  So a
block holds one lattice-sized array, its rows: the oracle route writes
eps phi_b into the spare row of the wave table's own buffer.  One
builder, `gram_block`, forms every block; a caller only chooses the rows
and the eps inside E, and the rows are the provenance:

  caller                   rows      eps                         provenance
  oracle_block             oracle    lattice                     oracle
  cli.cmd_kernel           contour   lattice                     contour
  compose_columns          oracle    multiplier                  oracle
  kuznetsov.spliced_s4     contour   multiplier times m_h        contour
  kuznetsov.spliced_oracle oracle    multiplier times m_h        oracle
  harness, fredholm        window    lattice, on one full row    window
  crossover_block          window    contour eps phi_b, or G^-1  (a bare array)

(oracle rows: one `wave_table` of degrees 0..r on the `oracle_lattice`; contour
rows: coefficient extraction, refused where K(x, x) > 1; multiplier: the contour
image under the inverse eps symbol; window rows: `window_rows` at the window sites
alone, no E: S = K at beta = 2, K plus the rank-one term at beta = 1, whose eps phi_b
of one `full_row` is the block's one lattice-sized array.)  `crossover_block`, for
`harness.crossover_test`, assembles the same sandwich on a window with no lattice:
window rows, eps phi_b by `eps_phi_via_contour` at beta = 1, and E = G^-1 in closed
form at beta = 4, so no lattice grows as xi -> 1.  Contour rows come from
`symbols.contour_rows`, which extracts the degrees that share a `default_contour`
circle together, and so shares that circle's nodes, multiplier values and FFTs.
The inserted blocks of a lattice-eps block come from the same factors,
SD = L_x^T E (R D)_y and epsS = (eps L^T)_x E R_y, with D and eps applied as
stencil and prefix sums, so no lattice-by-lattice matrix is formed; they, and
the beta = 4 Gram, pass over the lattice `_ROW_BLOCK` rows at a time, and
R D and eps L keep only the window columns.  A
`KernelBlockSet` computes them on first read, so a caller that reads only S
never pays for them.  It also names K (from the first `rank_of` rows of L) and
the beta = 1 rank-one term `rank_one`, so no other module reads the factors.

Three evaluation routes coexist and are cross-checked:

  * oracle     -- recurrence-table wave functions with the parity-split eps
                  (the ground truth for every adjudication);
  * columns    -- the composed operator realized through single-contour
                  multiplier images of the wave functions (exact for any
                  analytic symbol; this is the production contour route);
  * paper      -- the printed double-contour formulas, evaluated verbatim
                  as candidates.  `adjudicate_projection` and
                  `adjudicate_composition` each declare theirs once, as a
                  table from report name to a `_meixner_paper_kernel`,
                  `_printed_nested_kernel` or `_dual_kernel` call, and
                  `_score` ranks them against the oracle, keeping the
                  losers' scores.  On trapezoid grids each
                  is (1/n^2) sum_ij A[x, i] C[i, j] B[y, j] for integrand
                  rows A, B and a Cauchy factor C.  The concentric circles
                  share the unit nodes, so C is a sum of (anti-)circulant
                  matrices with diagonal scalings, which the FFT
                  diagonalises (`_cauchy_sums`): no n x n matrix is formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .families import Charlier, DomainError, Meixner, QuadratureError, TruncatedLattice
from .lattice_ops import apply_d, apply_eps
from .symbols import (contour_rows, eps_multiplier, eps_phi_via_contour, generating_logs,
                      inverse_eps_symbol, meixner_G, symbol, unit_roots)
from .wavefunctions import full_row, table_lattice, wave_table, window_rows

_ROW_BLOCK = 128    # rows per pass of D or eps over the lattice


def rank_of(family, N: int) -> int:
    """Number of wave functions in the projection: 2N for Meixner, N else."""
    return 2 * N if isinstance(family, Meixner) else N


def refuse_odd_rank(family, N: int, where: str) -> None:
    """Refuse a beta = 4 request of odd rank: its Pfaffian law pairs the wave functions."""
    if rank_of(family, N) % 2:
        raise DomainError(f"beta = 4 needs an even rank, but N = {N}{where} gives an odd one")


def beta1_indices(family, N: int) -> tuple[int, int]:
    """Degrees (a, b) of the rank-one term phi_a (x) (eps phi_b)(y)."""
    r = rank_of(family, N)
    return r, r - 1


def default_window(family, N: int) -> np.ndarray:
    if family.finite:
        return np.arange(family.M + 1)
    return np.arange(4 * N + 1)


@dataclass
class KernelBlockSet:
    """Scalar block S plus the symbol-inserted blocks on a lattice window.

    Every block is square on its window: x and y both run over xs.
    `gram_block` builds every block from lattice factors (L, E, R),
    S = L_x^T E R_y, where L and R are views of one array of rows: Phi at
    beta = 4, T = [phi_0..phi_a, eps phi_b] at beta = 1 (L = T[:a + 1],
    R = T, E rectangular).  A block whose eps is the lattice operator computes
    SD = L_x^T E (R D)_y and epsS = (eps L^T)_x E R_y on first read, with D
    and eps applied as stencil and prefix sums, row block by row block, at
    the window columns only.  A block whose eps is a contour multiplier
    (composed, spliced), or whose rows are the window route's (at the window
    columns alone, E None), has no inserted blocks: both read None.  K and
    rank_one (None but at beta = 1) are the window projection and the beta = 1
    term (1/2) phi_a (x) (eps phi_b)(y)."""

    family: object
    beta: int
    N: int
    xs: np.ndarray
    S: np.ndarray
    provenance: str
    meta: dict
    factors: tuple = field(repr=False, compare=False)
    multiplier: object = field(repr=False, compare=False)

    @property
    def _cols(self):        # the factors' columns at the window: window rows hold no others
        return slice(None) if self.provenance == "window" else self.xs

    @cached_property
    def SD(self) -> np.ndarray | None:
        if self.multiplier is not None or self.provenance == "window":
            return None
        L, E, R = self.factors
        RD = -_window_rows(apply_d, self.family, R, self.xs)    # R D, since D^T = -D
        return _assemble_blocks(L[:, self.xs], E, RD)

    @cached_property
    def epsS(self) -> np.ndarray | None:
        if self.multiplier is not None or self.provenance == "window":
            return None
        L, E, R = self.factors
        return _assemble_blocks(_window_rows(apply_eps, self.family, L, self.xs), E, R[:, self.xs])

    @cached_property
    def K(self) -> np.ndarray:
        L = self.factors[0][:rank_of(self.family, self.N)]
        return L[:, self._cols].T @ L[:, self._cols]    # two copies: a GEMM, as the S blocks

    @cached_property
    def rank_one(self) -> np.ndarray | None:
        if self.beta != 1:
            return None
        L, _, R = self.factors
        return 0.5 * np.outer(L[-1, self._cols], R[-1, self._cols])     # E[a, a + 1] = 1/2

    def antisymmetry_defect(self) -> float:
        return float(np.max(np.abs(self.S + self.S.T)))


# ---------------------------------------------------------------------------
# the block builder


def _assemble_blocks(L, E, R, xs=slice(None)):
    """S = L_x^T E R_y, x and y in xs (every site by default), for row stacks
    L, R (k x sites, l x sites) and a k x l Gram E."""
    return L[:, xs].T @ (E @ R[:, xs])


def _window_rows(op, family, rows, sites):
    """op(family, rows.T).T, the lattice operator D or eps applied to each row, at
    the columns `sites`; `_ROW_BLOCK` rows at a time, so no temporary holds more."""
    return np.vstack([op(family, rows[lo:lo + _ROW_BLOCK].T)[sites].T
                      for lo in range(0, len(rows), _ROW_BLOCK)])


def _eps_rows(family, T, lo, hi, multiplier):
    """eps phi_lo..eps phi_(hi - 1) on the lattice of the rows T = phi_0, phi_1, ...:
    the lattice eps, or the contour image under z -> multiplier(z) if one is given."""
    if multiplier is None:
        return apply_eps(family, T[lo:hi].T).T
    return contour_rows(family, range(lo, hi), np.arange(T.shape[1]), multiplier)


def _rank_one_gram(a):
    """E of the beta = 1 layout T = [phi_0..phi_a, eps phi_b] with L = T[:a + 1], R = T:
    E[k, k] = 1 for k < a gives K, E[a, a + 1] = 1/2 the rank-one term, and every
    other entry is zero, so each entry of E R is one product."""
    E = np.eye(a + 1, a + 2)
    E[a, a:] = 0.0, 0.5
    return E


def gram_block(family, N: int, beta: int, window, route: str, multiplier=None,
               **meta) -> KernelBlockSet:
    """The beta = 1 or 4 block, x and y both over the window's lattice sites, with its factors.

    Rows phi_0..phi_r on the lattice come from the route: 'oracle' reads the
    recurrence tables ('window', at beta = 1 or 2, the rows at the window alone:
    module docstring), 'contour' the contour extraction, which raises
    QuadratureError where its rows give K(x, x) > 1 + 1e-6.  eps is the
    lattice operator, or the contour image under z -> multiplier(z) if one is
    given.  beta = 4: L = R = Phi with E = Phi eps(Phi)^T, taken `_ROW_BLOCK`
    columns at a time; beta = 1: eps phi_b goes into the spare row of the rows'
    own buffer T (`_rank_one_gram`).  The provenance is the route; `meta` adds
    to the lattice size."""
    if beta not in ((1, 2) if route == "window" else (1, 4)):
        raise ValueError("beta must be 1 or 4, or 2 (K alone) on the window route")
    window = np.asarray(window)
    r = rank_of(family, N)
    spare = int(beta == 1)
    if route == "window":       # rows at the window alone, and eps of the one full row phi_b
        T = window_rows(family, r - 1 + spare, window)
        S = T[:r].T @ T[:r]
        if beta == 1:           # eps phi_b on the oracle lattice, which no beta = 2 block reads
            lattice = oracle_lattice(family, N, window)
            meta = {"lattice_x_max": lattice.x_max, **meta}
            phi_b = full_row(family, beta1_indices(family, N)[1], lattice.size)
            T = np.vstack([T, apply_eps(family, phi_b)[window]])
            S += 0.5 * np.outer(T[r], T[r + 1])
        return KernelBlockSet(family=family, beta=beta, N=N, xs=window, S=S, provenance=route,
                              meta=meta, factors=(T[:r + spare], None, T), multiplier=multiplier)
    lattice = oracle_lattice(family, N, window)
    if route == "oracle":
        T = wave_table(family, r, lattice, spare).rows
    else:
        phi = _contour_phi(family, r + 1, lattice)
        diag = float(np.max(np.sum(phi[:r] ** 2, axis=0)))   # max K(x, x), at most 1
        if not diag <= 1.0 + 1e-6:
            raise QuadratureError(f"contour rows give K(x, x) = {diag:.3g} > 1 "
                                  f"on {lattice.size} sites")
        T = np.vstack([phi, np.empty((spare, lattice.size))])    # a copy: the cache is read-only
    if beta == 4:
        E = np.hstack([T[:r] @ _eps_rows(family, T, lo, min(lo + _ROW_BLOCK, r), multiplier).T
                       for lo in range(0, r, _ROW_BLOCK)])
        factors = T[:r], E, T[:r]
    else:
        a, b = beta1_indices(family, N)
        T[a + 1] = _eps_rows(family, T, b, b + 1, multiplier)[0]
        factors = T[:a + 1], _rank_one_gram(a), T
    return KernelBlockSet(family=family, beta=beta, N=N, xs=window,
                          S=_assemble_blocks(*factors, window), provenance=route,
                          meta={"lattice_x_max": lattice.x_max, **meta}, factors=factors,
                          multiplier=multiplier)


def crossover_block(family, N, xs, beta, block):
    """Hard-edge window of the requested block for geometric-weight Meixner,
    assembled without materializing the macroscopic lattice: `window_rows` at
    the window sites, eps phi_b from the contour at beta = 1 and, for beta = 4,
    the eps Gram E = G^-1 (eps = D^-1 in matrix form).  G = <phi_j, D phi_k> is the
    antisymmetric Toeplitz matrix G_{j,j+d} = ((1 - s^2)/s)(-s)^(d-1), d >= 1."""
    r = rank_of(family, N)
    Phi = window_rows(family, r, xs)
    if block == "K":
        return Phi[:r].T @ Phi[:r]
    if beta == 1:
        a, b = beta1_indices(family, N)
        T = np.vstack([Phi, eps_phi_via_contour(family, b, xs)])
        factors = T[:a + 1], _rank_one_gram(a), T
    else:
        s = family.s
        row = np.r_[0.0, (1 - s * s) / s * (-s) ** np.arange(r - 1)]   # G_{0,d}
        d = np.subtract.outer(np.arange(r), np.arange(r))   # d = j - k; G_{j,k} = row[k - j] if k > j
        factors = Phi[:r], np.linalg.inv(np.where(d < 0, 1.0, -1.0) * row[np.abs(d)]), Phi[:r]
    return _assemble_blocks(*factors)


def oracle_lattice(family, N: int, window) -> TruncatedLattice:
    """The `table_lattice` of degree r + 1 reaching 2 max(window) + 2: the window is interior."""
    return table_lattice(family, rank_of(family, N) + 1, 2 * int(np.max(window)) + 2)


@lru_cache(maxsize=1)
def _contour_phi(family, n_top, lattice):
    """Rows phi_0..phi_(n_top - 1) on the lattice by contour extraction, read-only:
    kept for the next block, so a beta = 4 request after its beta = 1 twin (or
    the other way round) extracts nothing."""
    phi = contour_rows(family, range(n_top), np.arange(lattice.size))
    phi.flags.writeable = False
    return phi


# ---------------------------------------------------------------------------
# entry points: each one builder call


def oracle_block(family, N: int, beta: int, window) -> KernelBlockSet:
    """S, SD, epsS on the window from the recurrence tables with the parity-split eps."""
    return gram_block(family, N, beta, window, "oracle")


def compose_columns(family, N: int, xs) -> KernelBlockSet:
    """(K T K) block where T acts by the inverse-eps symbol: the oracle rows
    with eps as that contour multiplier (the splices of `kuznetsov` call
    `gram_block` with m_h times it).

    This is the exact resummation of the double-contour composition; the
    printed difference-quotient formulas are checked against it and against
    the lattice oracle by `adjudicate_composition`.
    """
    return gram_block(family, N, 4, xs, "oracle", eps_multiplier(family))


# ---------------------------------------------------------------------------
# printed double-contour formulas


def _cauchy_sums(A, B, factors, m=None):
    """(1/n^2) sum_ij A[x, i] C[i, j] B[y, j] on n unit nodes, C[i, j] the sum over
    `factors` (g, anti, s) of s_i g[(j - i) mod n] (g[(i + j) mod n] if anti), times
    m1_i - m2_j if m = (m1, m2).  Row FFTs diagonalise each g: fft(P) diag(fft g)
    ifft(Q)^T (n ifft(P) diag(fft g) ifft(Q)^T if anti); no n x n matrix is formed."""
    n = A.shape[1]
    pairs = [(1.0, B)] if m is None else [(m[0], B), (1.0, -B * m[1])]
    return sum(((n * np.fft.ifft(A * s * a) if anti else np.fft.fft(A * s * a)) * np.fft.fft(g))
               @ np.fft.ifft(Q).T for g, anti, s in factors for a, Q in pairs) / n ** 2


def _meixner_paper_kernel(family, N, xs, swap, nodes, m_func=None,
                          numerator="difference-quotient"):
    """The printed Meixner double contour on |w1| = r1 < |w2| = r2 over the rows
    G_2N(w) w^(2N - x), with the Cauchy factor 1/(w1 w2 - 1) = f[(i + j) mod n],
    times a composition's numerator if m_func is given: the difference quotient
    (m(w1) - m(w2))/(w1 - w2), by 1/((w1 w2 - 1)(w1 - w2)) =
    (w1^2 - 1)^-1 [w1 f + w1^-1 h[(j - i) mod n]] with h = 1/(1 - (r2/r1) t)
    (finite, as r1 < 1), or the printed (w2 - w1)/((w1^2 - 1)(w2^2 - 1)).
    Radius product < 1: r1, r2 = (2s + 1)/3, (s + 2)/3.  Swapped, product > 1:
    r1 just inside the unit circle, r2 between the Cauchy pole at 1/r1 and the
    admissibility bound 1/s."""
    s = family.s
    r1 = max(0.95, (1.0 + s) / 2.0) if swap else (2 * s + 1) / 3.0
    r2 = 0.5 * (1.0 / r1 + 0.5 * (1.0 + 1.0 / s)) if swap else (s + 2) / 3.0
    t = unit_roots(nodes)
    w1, w2 = r1 * t, r2 * t
    A, B = (meixner_G(2 * N, w, family.s) * w ** (2 * N - np.asarray(xs))[:, None]
            for w in (w1, w2))
    f = 1.0 / (r1 * r2 * t - 1.0)
    if m_func is None:
        return _cauchy_sums(A, B, [(f, True, 1.0)]).real
    a = 1.0 / (w1 ** 2 - 1.0)
    if numerator == "printed":
        return _cauchy_sums(A, B / (w2 ** 2 - 1.0), [(f, True, a)], (-w1, -w2)).real
    h = 1.0 / (1.0 - (r2 / r1) * t)
    return _cauchy_sums(A, B, [(f, True, a * w1), (h, False, a / w1)],
                        (m_func(w1), m_func(w2))).real


def _nested_radii(family) -> tuple[float, float]:
    """(inner, outer) radii of the printed Charlier/Krawtchouk circles."""
    if isinstance(family, Charlier):
        return 0.35, 0.7
    rstar = min(1.0 / family.p, 1.0 / family.q)     # the admissible radius
    return 0.4 * rstar, 0.8 * rstar


def _printed_nested_kernel(family, N, xs, swap, nodes, m_func=None):
    """The printed concentric-circle forms over the rows c(t) a(t)^x
    (`generating_logs`), t1 on the outer circle (inner if swapped), with the
    Cauchy factor (t2/t1)^N/(t1 - t2) = t1^-1 g[(j - i) mod n], g = q^N/(1 - q)
    with q = t2/t1 = (R2/R1) t, times a composition's difference quotient
    (m(t1) - m(t2))/(t1 - t2) if m_func is given: then the factor is
    t1^-2 q^N/(1 - q)^2 (m(t1) - m(t2))."""
    t = unit_roots(nodes)
    inner, outer = _nested_radii(family)
    R1, R2 = (inner, outer) if swap else (outer, inner)
    t1, t2, q = R1 * t, R2 * t, (R2 / R1) * t
    xs = np.asarray(xs)
    log_c, log_a = generating_logs(family, np.stack([t1, t2]))
    A, B = (np.exp(log_c[k] + xs[:, None] * log_a[k]) for k in range(2))
    lw = family.log_weight(np.arange(int(np.max(xs)) + 1, dtype=float))
    pref = np.exp(0.5 * (lw[xs][:, None] + lw[xs][None, :]))
    if m_func is None:
        return pref * _cauchy_sums(A, B, [(q ** N / (1.0 - q), False, 1.0 / t1)]).real
    return pref * _cauchy_sums(A, B, [(q ** N / (1.0 - q) ** 2, False, t1 ** -2.0)],
                               (m_func(t1), m_func(t2))).real


def _dual_y_radius(family, y, N, r_inner):
    """Balance the dual-side integrand magnitude against the prefactor."""
    if isinstance(family, Charlier):
        th = family.theta
        b = th + N - y - 1.0
        rho = (-b + np.sqrt(b * b + 4.0 * th * (y + 1.0))) / (2.0 * th)
        hi_gap = 1.0 - r_inner - 0.04
        if rho > hi_gap:
            rho = max(rho, 1.0 + r_inner + 0.05)
        return min(rho, 6.0 + 0.05 * y)
    # Krawtchouk: scan a small grid for the flattest bound around the
    # chosen dual singularity (1/q for low columns, -1/p reflected for high)
    p, q, M = family.p, family.q, family.M
    if y <= M // 2:
        lo, hi = 0.02 / q, 0.9 * (1.0 / q - r_inner)
        grid = np.geomspace(lo, max(hi, lo * 1.01), 24)
        cost = ((y - M - 1) * np.log(np.maximum(1.0 / q - p * grid, 1e-12))
                - (y + 1) * np.log(q * grid) + N * np.log(1.0 / q + grid))
    else:
        lo, hi = 0.02 / p, 0.9 * (1.0 / p - r_inner)
        grid = np.geomspace(lo, max(hi, lo * 1.01), 24)
        cost = ((y - M - 1) * np.log(p * grid)
                - (y + 1) * np.log(np.maximum(1.0 / p - q * grid, 1e-12))
                + N * np.log(1.0 / p + grid))
    return float(grid[np.argmin(cost)])


def _dual_kernel(family, N, xs, nodes):
    """Corrected two-centre double contour: extraction loop around 0 and a
    dual loop around the weight's generating singularity (-1 for Charlier,
    1/q for Krawtchouk), with per-column balanced radii."""
    xs = np.asarray(xs)
    lw = family.log_weight(np.arange(int(np.max(xs)) + 1, dtype=float))
    t = unit_roots(nodes)
    x = xs[:, None]
    r_in = 0.45 if isinstance(family, Charlier) else 0.4 * min(1 / family.p, 1 / family.q)
    tin = r_in * t
    log_c, log_a = generating_logs(family, tin)
    A = np.exp(log_c + x * log_a + 0.5 * lw[x]) * tin ** (-N) * tin
    out = np.empty((len(xs), len(xs)))
    for iy, y in enumerate(xs):
        rho = _dual_y_radius(family, y, N, r_in)
        if isinstance(family, Charlier):
            center, sign = -1.0, -1.0
            u = center + rho * t
            log_b = family.theta * u - (y + 1) * np.log(1.0 + u)
        else:
            # high columns use the p <-> q reflected dual loop around -1/p,
            # which reverses orientation (hence the sign)
            p, q, M = family.p, family.q, family.M
            center, sign = (1.0 / q, 1.0) if y <= M // 2 else (-1.0 / p, -1.0)
            u = center + rho * t
            log_b = (y - M - 1) * np.log(1.0 + p * u) - (y + 1) * np.log(1.0 - q * u)
        v = np.exp(log_b - 0.5 * lw[y]) * u ** N * (u - center)
        C = 1.0 / (tin[:, None] - u[None, :])
        out[:, iy] = sign * (A @ (C @ v)).real / nodes ** 2
    return out


# ---------------------------------------------------------------------------
# adjudication


def _max_rel(a, b):
    """max |a - b| / max |b| to 12 significant digits, so roundoff cannot break a tie."""
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(f"{np.max(np.abs(a - b)) / scale:.12g}")


def _adjudication_window(family, N: int) -> tuple[int, np.ndarray]:
    """N capped at the Krawtchouk M, as a rank-N block reads rows 0..N of its M + 1,
    and sites 0..3N + 4, or the whole lattice if smaller: where candidates are scored."""
    if family.finite and family.M < 1:
        raise DomainError(f"Krawtchouk M={family.M} has one site and no rank-one projection")
    N = min(N, family.M) if family.finite else N
    return N, np.arange(min(3 * N + 5, family.M + 1) if family.finite else 3 * N + 5)


def _score(report: dict, candidates: dict, reference) -> dict:
    """report['candidates'][name] = `_max_rel` of each candidate thunk against the
    reference; inf if it overflows (without a warning) or raises a ValueError (a
    pole on a contour, recorded under 'errors').  The first-declared best wins."""
    scores = report["candidates"] = {}
    for name, kernel in candidates.items():
        try:
            with np.errstate(all="ignore"):
                K = kernel()
        except ValueError as exc:
            report.setdefault("errors", {})[name] = repr(exc)
            K = np.inf
        scores[name] = _max_rel(K, reference) if np.all(np.isfinite(K)) else np.inf
    report["winner"] = min(scores, key=scores.get)
    report["winner_error"] = scores[report["winner"]]
    return report


@lru_cache(maxsize=16)
def adjudicate_projection(family) -> dict:
    """Which contour convention reproduces the direct projection kernel, at N = 8
    capped at the Krawtchouk M (`_adjudication_window`).

    Candidates at 1024 nodes, from the printed nesting (first) to the adjudicated
    convention (last), the two that `validate` reads: Meixner radius product < 1,
    then > 1; Charlier/Krawtchouk circles nested as printed, swapped, dual form."""
    if isinstance(family, Meixner) and family.beta_m != 1.0:
        raise ValueError("contour projection requires beta_m = 1")
    N, xs = _adjudication_window(family, 8)
    # `validate` reads the first entry (printed nesting) and the last (adjudicated)
    if isinstance(family, Meixner):
        paper = partial(_meixner_paper_kernel, family, N, xs, nodes=1024)
        candidates = {"paper product<1": lambda: paper(swap=False),
                      "paper product>1": lambda: paper(swap=True)}
    else:
        paper = partial(_printed_nested_kernel, family, N, xs, nodes=1024)
        candidates = {"paper": lambda: paper(swap=False),
                      "paper-swapped": lambda: paper(swap=True),
                      "dual": lambda: _dual_kernel(family, N, xs, 1024)}
    report = _score({"family": family.name, "N": N}, candidates,
                    oracle_block(family, N, 1, xs).K)   # eps of 1 row, not r
    report["passes"] = report["winner_error"] < 1e-8
    return report


def residual_rank(R):
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > 1e-6 * sv[0]))


@lru_cache(maxsize=16)
def adjudicate_composition(family) -> dict:
    """Printed composition vs the exact columns route vs the lattice oracle, at
    N = 6 capped at the Krawtchouk M (`_adjudication_window`).

    Candidates at 512 nodes: the difference quotient of the printed eps symbol,
    then of the exact `inverse_eps_symbol`, each nested as printed and swapped;
    for Meixner also the printed (w2 - w1) numerator of the beta = 4 corollary.

    Outcome classes:
      * 'match'      -- a printed variant reproduces K eps K within 1e-6;
      * 'structured' -- no printed variant matches, but the residual between
        the multiplier realization and the lattice eps is low-rank (the
        boundary kernel of D), which is reported rather than hidden.
    """
    N, window = _adjudication_window(family, 6)
    oracle = oracle_block(family, N, 4, window)
    cols = compose_columns(family, N, window)
    m = lambda z: symbol(family, z)
    m_inv = lambda z: inverse_eps_symbol(family, z)
    paper = partial(_meixner_paper_kernel if isinstance(family, Meixner) else _printed_nested_kernel,
                    family, N, window, nodes=512)
    candidates = {"paper printed-symbol": lambda: paper(swap=False, m_func=m),
                  "paper swapped": lambda: paper(swap=True, m_func=m),
                  "paper inverse-symbol": lambda: paper(swap=False, m_func=m_inv),
                  "paper inverse-symbol swapped": lambda: paper(swap=True, m_func=m_inv)}
    if isinstance(family, Meixner):
        candidates["paper printed-numerator"] = lambda: paper(swap=False, m_func=m,
                                                              numerator="printed")
    report = _score({"family": family.name, "N": N, "scale": float(np.max(np.abs(oracle.S)))},
                    candidates, oracle.S)
    report["columns_vs_oracle"] = _max_rel(cols.S, oracle.S)
    R = cols.S - oracle.S
    report["columns_residual_rank"] = residual_rank(R)
    report["columns_residual_max"] = float(np.max(np.abs(R)))
    if report["winner_error"] < 1e-6:
        report["outcome"] = "match"
    elif report["columns_residual_rank"] <= 2:
        report["outcome"] = "structured"
    else:
        report["outcome"] = "mismatch"
    return report
