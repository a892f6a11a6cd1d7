"""Convergence harnesses: bulk sine limits, soft-edge Airy limits, the
hard-edge crossover, and first-correction extraction.

A `Regime` fixes the dimensionless shape of the ensemble while the large
parameter A sweeps: Meixner keeps xi with A = 2N; Charlier keeps tau =
theta/N with A = N; Krawtchouk keeps (gamma, p) with A = M, N = gamma M.

Microscopic scaling uses the per-site density: x = floor(A u + s / rho_site)
and kernels are multiplied by the mean spacing 1/rho_site; comparisons are
made at the realized (post-floor) microscopic coordinates.  One overall
amplitude c is always fitted and reported rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import Charlier, DomainError, Krawtchouk, Meixner
from .kernels import (_assemble_blocks, _rank_one_factors, beta1_indices, contour_rows,
                      oracle_block, projection_direct, rank_of, rank_one_window)
from .refkernels import airy_kernel, bessel_kernel, sine_kernel, sine_kernel_deriv
from .saddles import bulk_support, edge_data, saddle_solve, site_density


@dataclass(frozen=True)
class Regime:
    kind: str                 # meixner / charlier / krawtchouk
    xi: float | None = None
    tau: float | None = None
    gamma: float | None = None
    p: float | None = None

    def family_and_N(self, A: int):
        if self.kind == "meixner":
            if A % 2:
                raise ValueError("Meixner large parameter A = 2N must be even")
            return Meixner(xi=self.xi, beta_m=1.0), A // 2
        if self.kind == "charlier":
            return Charlier(theta=self.tau * A), A
        N = int(round(self.gamma * A))
        return Krawtchouk(M=A, p=self.p), N


DEFAULT_GRID = np.linspace(-2.0, 2.0, 17)


def _window_positions(A, u, spacing_sites, grid):
    xs = np.unique(np.floor(A * u + np.asarray(grid) * spacing_sites).astype(int))
    return xs[xs >= 0]


def _window_block(fam, N, beta, xs, block):
    """The requested block on the window: K (the projection) or the oracle
    route's S, SD or epsS."""
    if block == "K":
        return projection_direct(fam, N, xs)
    blk = oracle_block(fam, N, beta, xs)
    return {"S": blk.S, "SD": blk.SD, "epsS": blk.epsS}[block]


def fit_amplitude(V, T):
    denom = float(np.sum(T * T))
    return float(np.sum(V * T) / denom) if denom > 0 else 0.0


def bulk_convergence_test(regime: Regime, beta: int, u: float, A_list,
                          grid=DEFAULT_GRID, block: str = "S") -> dict:
    """sup-norm distance of the rescaled block from the sine kernel per A.

    Returns per-A sup errors (with and without the fitted constant), the
    fitted constants, the rank-one contribution for beta = 1, and the
    log-log slope of the errors.
    """
    rows = []
    for A in A_list:
        fam, N = regime.family_and_N(int(A))
        rho = site_density(fam, u, N)
        sp = 1.0 / rho
        xs = _window_positions(A, u, sp, grid)
        V = _window_block(fam, N, beta, xs, block) * sp
        seff = (xs - A * u) * rho
        T = sine_kernel(seff[:, None], seff[None, :])
        c = fit_amplitude(V, T)
        entry = {
            "A": int(A), "N": N, "rho_site": rho, "c_fit": c,
            "sup_err_fitted": float(np.max(np.abs(V / c - T))) if c != 0 else float("inf"),
            "sup_err_raw": float(np.max(np.abs(V - T))),
            "diag_err": float(np.max(np.abs(np.diag(V) - 1.0))),
        }
        if beta == 1:
            entry["rank_one_sup"] = float(np.max(np.abs(rank_one_window(fam, N, xs))) * sp)
        rows.append(entry)
    errs = [r["sup_err_fitted"] for r in rows]
    ok = bool(np.all(np.isfinite(errs))) and min(errs) > 0 and len(errs) > 1
    slope = float(np.polyfit(np.log([r["A"] for r in rows]), np.log(errs), 1)[0]) \
        if ok else float("nan")
    return {"regime": regime.kind, "beta": beta, "u": u, "block": block,
            "entries": rows, "slope": slope}


def edge_convergence_test(regime: Regime, beta: int, A_list, side: str = "right",
                          s_grid=None, block: str = "S") -> dict:
    """Airy-kernel comparison at a soft edge under the A^(1/3) scaling."""
    s_grid = np.linspace(-3.5, 1.5, 13) if s_grid is None else np.asarray(s_grid)
    fam0, N0 = regime.family_and_N(int(A_list[0]))
    ed = edge_data(fam0, side, N0)
    u_star = ed["u_star"]
    orient = 1.0 if side == "right" else -1.0
    rows = []
    for A in A_list:
        fam, N = regime.family_and_N(int(A))
        # cubic normal form: A Phi ~ (kappa/6) zeta^3 + (x - A u*) lam zeta,
        # matching exp(tau^3/3 - s tau) gives the Airy length below
        c_A = (A * abs(ed["kappa"]) / 2.0) ** (1.0 / 3.0) / abs(ed["lam"])
        xs = np.unique(np.floor(A * u_star + orient * s_grid * c_A).astype(int))
        xs = xs[xs >= 0]
        if fam.finite:
            xs = xs[xs <= fam.M]
        V = _window_block(fam, N, beta, xs, block) * c_A
        seff = orient * (xs - A * u_star) / c_A
        order = np.argsort(seff)
        T = airy_kernel(seff[order], seff[order])
        Vo = V[np.ix_(order, order)]
        c = fit_amplitude(Vo, T)
        entry = {"A": int(A), "c_A": c_A, "c_fit": c,
                 "sup_err_fitted": float(np.max(np.abs(Vo / c - T))) if c else float("inf")}
        if beta == 1:
            entry["rank_one_sup"] = float(np.max(np.abs(rank_one_window(fam, N, xs))) * c_A)
        rows.append(entry)
    errs = [r["sup_err_fitted"] for r in rows]
    return {"regime": regime.kind, "beta": beta, "side": side, "u_star": u_star,
            "kappa": abs(ed["kappa"]), "lam": ed["lam"], "entries": rows,
            "monotone_decreasing": bool(np.all(np.diff(errs) < 0))}


def coalescence_exponent(regime: Regime, side: str = "right",
                         A_ref: int = 64) -> float:
    """Fit |z_+ - z_-| ~ C |u - u*|^p approaching a soft edge."""
    fam, N = regime.family_and_N(A_ref)
    lo, hi = bulk_support(fam, N)
    u_star = hi if side == "right" else lo
    inward = -1.0 if side == "right" else 1.0
    ds = np.geomspace(1e-4, 1e-2, 9) * (hi - lo)
    gaps = []
    for d in ds:
        bp = saddle_solve(fam, u_star + inward * d, N)
        gaps.append(abs(bp.z_plus - bp.z_minus))
    return float(np.polyfit(np.log(ds), np.log(gaps), 1)[0])


# ---------------------------------------------------------------------------
# first-correction machinery


def correction_dictionary(bulk, M_func, M_prime) -> dict:
    """Q0, Qa, Qb of the difference-quotient linearization at the saddles."""
    wp, wm = bulk.z_plus, bulk.z_minus
    gap = wp - wm
    Mp, Mm = M_func(wp), M_func(wm)
    Q0 = (Mp - Mm) / gap
    Qa = (M_prime(wp) * gap - (Mp - Mm)) / gap ** 2
    Qb = ((Mp - Mm) - M_prime(wm) * gap) / gap ** 2
    return {"Q0": complex(Q0), "Qa": complex(Qa), "Qb": complex(Qb)}


def eps_dictionary_closed_form(theta: float) -> dict:
    """Closed forms of Q0, Qa, Qb for the universal inverse symbol at angle
    theta (saddles on the unit circle)."""
    s, c = np.sin(theta), np.cos(theta)
    return {"Q0": complex(-c / (2 * s * s)),
            "Qa": complex(-1 / (4 * s * s) - 1j * c / (2 * s ** 3)),
            "Qb": complex(-1 / (4 * s * s) + 1j * c / (2 * s ** 3))}


def correction_extract(regime: Regime, beta: int, u: float, A_list,
                       grid=DEFAULT_GRID) -> dict:
    """Fit R = A (Delta S - sine) by least squares on the saddle-expansion basis.

    The five columns, in the microscopic coordinates (s, t) of `grid`:

      * sine(s - t): the amplitude shift (`alpha_hat`);
      * (d_s - d_t) sine: the odd-derivative term (`beta_hat`).  It is
        antisymmetric, so it picks up nothing from the symmetric field of
        the projection kernel;
      * (s + t) cos pi(s - t): the site density varying across the window.
        Linearizing sin(pi rho(x) (s - t)) at the window midpoint predicts the
        coefficient rho'(u) / (2 rho(u)^2), with rho = `site_density`; it is
        reported as `gradient_predicted` next to the fitted `gradient_hat`;
      * cos pi(s + t), sin pi(s + t): the sum-frequency oscillation of the
        same-side saddle pair (frequency pi rho per site), whose phase turns
        with A.

    The field is Richardson-extrapolated over the last two A values,
    2 R(A_2) - R(A_1), before the fit.  That step assumes R(A) = R + O(1/A),
    which the sum-frequency part does not obey; two fields of one frequency
    combine into one sinusoid, so the extrapolated field stays in the span,
    but `sum_cos_hat` and `sum_sin_hat` are not limits of anything.  For
    beta = 1 the rank-one part (1/2) phi_a (x) (eps phi_b) is subtracted
    first: it is separable, and the basis cannot represent it.
    """
    fields = []
    for A in A_list:
        fam, N = regime.family_and_N(int(A))
        rho = site_density(fam, u, N)
        sp = 1.0 / rho
        xs = _window_positions(A, u, sp, grid)
        blk = oracle_block(fam, N, beta, xs)
        V = blk.S * sp
        if beta == 1:
            V = V - rank_one_window(fam, N, xs) * sp
        seff = (xs - A * u) * rho
        T = sine_kernel(seff[:, None], seff[None, :])
        # resample onto the requested grid so fields are commensurate
        fields.append(_grid_resample(seff, A * (V - T), grid))
    R = 2.0 * fields[-1] - fields[-2] if len(fields) >= 2 else fields[-1]
    s, t = grid[:, None], grid[None, :]
    basis = [sine_kernel(s, t), sine_kernel_deriv(s, t),
             (s + t) * np.cos(np.pi * (s - t)),
             np.cos(np.pi * (s + t)), np.sin(np.pi * (s + t))]
    B = np.stack([c.ravel() for c in basis], axis=1)
    coef = np.linalg.lstsq(B, R.ravel(), rcond=None)[0]
    rel = float(np.linalg.norm(R.ravel() - B @ coef) / max(np.linalg.norm(R), 1e-300))
    lo, hi = bulk_support(fam, N)
    du = 1e-5 * (hi - lo)
    rho_prime = (site_density(fam, u + du, N) - site_density(fam, u - du, N)) / (2 * du)
    return {"alpha_hat": float(coef[0]), "beta_hat": float(coef[1]),
            "gradient_hat": float(coef[2]),
            "gradient_predicted": float(rho_prime / (2 * rho ** 2)),
            "sum_cos_hat": float(coef[3]), "sum_sin_hat": float(coef[4]),
            "relative_residual": rel,
            "residual_norm": float(np.linalg.norm(R)),
            "fields": len(fields)}


def _grid_resample(seff, R, grid):
    """Bilinear resample of the residual field onto the requested grid."""
    from scipy.interpolate import RegularGridInterpolator
    f = RegularGridInterpolator((seff, seff), R, bounds_error=False, fill_value=None)
    gg = np.array(np.meshgrid(grid, grid, indexing="ij"))
    pts = gg.reshape(2, -1).T
    return f(pts).reshape(len(grid), len(grid))


# ---------------------------------------------------------------------------
# Meixner -> hard-edge crossover


def _bessel_fit(V, xs, index, scale, offsets=np.linspace(0.0, 1.6, 17)):
    """Best (relative L2 error, offset, amplitude) of V against the Bessel
    kernel at u = scale (x + offset)."""
    best = None
    for d in offsets:
        lam = scale * (xs + d)
        T = bessel_kernel(index, lam, lam) * scale
        c = fit_amplitude(V, T)
        if c <= 0:
            continue
        err = float(np.linalg.norm(V / c - T) / np.linalg.norm(T))
        if best is None or err < best[0]:
            best = (err, float(d), c)
    return best or (float("inf"), 0.0, 0.0)


def crossover_test(alpha: float, N_list, x_top: int = 40, block: str = "S",
                   beta: int = 4) -> dict:
    """Meixner hard edge with xi = 1 - alpha/(2N) against the Bessel kernel.

    The lattice maps to the Bessel variable through u = c_h A (x + d) with
    c_h A = 4 alpha' tied to the candidate rate and d a fitted sub-lattice
    offset.  The recovered alpha is the rate whose tied-scale fit minimizes
    the residual; the adjudicated finding for the geometric weight is that
    the matching Bessel index is 0 (the Meixner shape parameter minus one)
    while the printed statement names the rate alpha as the index, so the
    spec-facing comparison against bessel(alpha) is reported alongside the
    index-0 fit.  Only the S and K blocks are computed; SD and epsS raise
    DomainError.  Both come from `_crossover_block` on the window alone, with
    the beta = 4 Gram in closed form, so no lattice grows as xi -> 1.  The
    beta = 4 S block is antisymmetric and the Bessel kernel symmetric, so
    its fitted amplitudes are roundoff (`amp_index0` near 1e-14) and its
    errors measure no convergence.
    """
    if block not in ("S", "K"):
        raise DomainError(f"crossover computes the S and K blocks, not {block}")
    xs = np.arange(0, x_top + 1)
    rows = []
    for N in N_list:
        V = _crossover_block(Meixner(xi=1.0 - alpha / (2.0 * N)), N, xs, beta, block)
        err_spec, d_spec, amp_spec = _bessel_fit(V, xs, alpha, 4.0 * alpha)
        err_idx0, d0, amp0 = _bessel_fit(V, xs, 0.0, 4.0 * alpha)
        rows.append({"N": int(N), "xi": 1.0 - alpha / (2.0 * N),
                     "err_vs_bessel_alpha": err_spec, "amp": amp_spec,
                     "err_vs_bessel_index0": err_idx0, "amp_index0": amp0,
                     "offset_index0": d0, "c_h": 4.0 * alpha / (2.0 * N)})
    errs = [r["err_vs_bessel_alpha"] for r in rows]
    # rate recovery at the largest N via the tied-scale scan
    N = int(N_list[-1])
    V = _crossover_block(Meixner(xi=1.0 - alpha / (2.0 * N)), N, xs, beta, block)
    scan = []
    for a_try in np.linspace(max(0.1, alpha - 0.8), alpha + 0.8, 33):
        err, _, _ = _bessel_fit(V, xs, 0.0, 4.0 * a_try)
        scan.append((float(a_try), err))
    alpha_hat = float(min(scan, key=lambda t: t[1])[0])
    return {"alpha": alpha, "beta": beta, "block": block, "entries": rows,
            "monotone_decreasing": bool(np.all(np.diff(errs) < 0)),
            "alpha_hat": alpha_hat, "scan": scan}


def _crossover_block(family, N, xs, beta, block):
    """Hard-edge window of the requested block for geometric-weight Meixner,
    assembled without materializing the macroscopic lattice: window wave
    functions from the contour representation and, for beta = 4, the eps
    Gram E = G^-1 (eps = D^-1 in matrix form).  G = <phi_j, D phi_k> is the
    antisymmetric Toeplitz matrix G_{j,j+d} = ((1 - s^2)/s)(-s)^(d-1), d >= 1."""
    from .symbols import eps_phi_via_contour
    r = rank_of(family, N)
    Phi = contour_rows(family, range(r + 1), xs)
    if block == "K":
        return Phi[:r].T @ Phi[:r]
    if beta == 1:
        a, b = beta1_indices(family, N)
        factors = _rank_one_factors(Phi[:r], Phi[a], eps_phi_via_contour(family, b, xs))
    else:
        from scipy.linalg import toeplitz
        s = family.s
        row = np.r_[0.0, (1 - s * s) / s * (-s) ** np.arange(r - 1)]   # G_{0,d}
        factors = Phi[:r], np.linalg.inv(toeplitz(-row, row)), Phi[:r]
    return _assemble_blocks(*factors)[0]
