"""Convergence harnesses: bulk sine limits, soft-edge Airy limits, the
hard-edge crossover, and first-correction extraction.

A `Regime` fixes the dimensionless shape of the ensemble while the large
parameter A sweeps: Meixner keeps xi with A = 2N; Charlier keeps tau =
theta/N with A = N; Krawtchouk keeps (gamma, p) with A = M, N = gamma M.

Every study but the crossover reads a frame per A.  A frame (`bulk_frame`,
`edge_frame`) is (family, N, window sites, microscopic coordinates s, sites
per unit s, the entry's own fields): in the bulk x = floor(A u + s / rho_site)
for s on `DEFAULT_GRID`, at the right soft edge x = floor(A u* + c_A s), cut
to the lattice (`on_lattice`).  `_compare` gives a frame's (fields, s, block,
limit(s), rank-one term): the block (K and the beta = 1 S from window rows, with no
wave table) and its beta = 1 rank-one term times the sites per unit s, at the
realized (post-floor) s.  The bulk and
edge studies `_sweep` it: per entry `c_fit` (one overall amplitude, always
fitted and reported rather than assumed), `sup_err_fitted`, `sup_err_raw`,
`diag_err` and, for beta = 1, `rank_one_sup`; over the entries the log-log
`slope` of the fitted errors and `monotone_decreasing`.  `correction_extract`
fits the first correction to it on the bulk frames.  The gap study
(`fredholm.bulk_scaled_gap_comparison`) reads rho_site and (family, N) from
the bulk frame, and the splice edge ratio (`kuznetsov.edge_ratio_report`) its
window from the edge frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import Charlier, DomainError, Krawtchouk, Meixner
from .kernels import crossover_block, gram_block, oracle_block, refuse_odd_rank
from .refkernels import airy_kernel, bessel_j, bessel_kernel, sine_kernel, sine_kernel_deriv
from .saddles import bulk_support, edge_data, saddle_pair, site_density


@dataclass(frozen=True)
class Regime:
    kind: str                 # meixner / charlier / krawtchouk
    xi: float | None = None
    tau: float | None = None
    gamma: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind == "charlier" and not 0 < self.tau < np.inf:
            raise DomainError(f"Charlier tau must be finite and > 0, got {self.tau}")
        if self.kind == "krawtchouk" and not 0 < self.gamma < 1:
            raise DomainError(f"Krawtchouk gamma must be in (0,1), got {self.gamma}")

    def family_and_N(self, A: int):
        if self.kind == "meixner":
            if A % 2:
                raise ValueError("Meixner large parameter A = 2N must be even")
            return Meixner(xi=self.xi, beta_m=1.0), A // 2
        if self.kind == "charlier":
            return Charlier(theta=self.tau * A), A
        N = int(round(self.gamma * A))
        if not 0 < N < A:       # the phase has no bulk at N = 0 or M
            raise DomainError(f"--gamma {self.gamma} at A = {A} gives N = {N}, not in (0, M = A)")
        return Krawtchouk(M=A, p=self.p), N


DEFAULT_GRID = np.linspace(-2.0, 2.0, 17)
_sine_kernel = lambda s: sine_kernel(s[:, None], s[None, :])


def on_lattice(fam, xs):
    """The distinct sites of xs on the family's lattice: x >= 0, and x <= M for Krawtchouk."""
    xs = np.sort(np.ravel(xs))
    xs = xs[np.diff(xs, prepend=xs[:1] - 1) != 0]   # not np.unique: it imports numpy.ma (13 ms)
    return xs[(xs >= 0) & (xs <= (fam.M if fam.finite else np.inf))]


def bulk_frame(regime, A, u):
    """The frame at bulk position u: s = (x - A u) rho_site over `DEFAULT_GRID`;
    a u not strictly inside the bulk support raises EdgeClassification."""
    fam, N = regime.family_and_N(int(A))
    saddle_pair(fam, u, N)
    rho = site_density(fam, u, N)
    xs = on_lattice(fam, np.floor(A * u + DEFAULT_GRID * (1.0 / rho)).astype(int))
    return fam, N, xs, (xs - A * u) * rho, 1.0 / rho, {"A": int(A), "N": N, "rho_site": rho}


def edge_frame(regime, A, ed, s_grid):
    """The frame at the right soft edge `ed` of `edge_data` over s in `s_grid`:
    s = (x - A u*) / c_A, with the Airy length c_A = (A |kappa| / 2)^(1/3) / |lambda| sites."""
    fam, N = regime.family_and_N(int(A))
    c_A = (A * abs(ed["kappa"]) / 2.0) ** (1.0 / 3.0) / abs(ed["lam"])
    xs = on_lattice(fam, np.floor(A * ed["u_star"] + s_grid * c_A).astype(int))
    return fam, N, xs, (xs - A * ed["u_star"]) / c_A, c_A, {"A": int(A), "c_A": c_A}


def _compare(frame, beta, block, limit):
    """The frame's fields, s in increasing order, and on the window in that order
    the block (the window route's K or beta = 1 S, else the oracle route's; a beta = 4
    block but K is refused at odd rank) times the sites per unit s, limit(s), and the
    beta = 1 rank-one term times the same (else None)."""
    fam, N, xs, s, scale, fields = frame
    if beta == 4 and block != "K":
        refuse_odd_rank(fam, N, f" at A = {fields['A']}")
    blk = gram_block(fam, N, 2 if beta == 4 else 1, xs, "window") \
        if block == "K" or (block, beta) == ("S", 1) else oracle_block(fam, N, beta, xs)
    order = np.argsort(s)
    pick = np.ix_(order, order)
    rank_one = (blk.rank_one * scale)[pick] if beta == 1 else None
    return fields, s[order], (getattr(blk, block) * scale)[pick], limit(s[order]), rank_one


def fit_amplitude(V, T):
    denom = float(np.sum(T * T))
    return float(np.sum(V * T) / denom) if denom > 0 else 0.0


def _sweep(frames, beta, block, limit):
    """The entries of `frames` against `limit(s)` and their summary (module docstring)."""
    rows = []
    for frame in frames:
        fields, _, V, T, rank_one = _compare(frame, beta, block, limit)
        c = fit_amplitude(V, T)
        entry = {**fields, "c_fit": c,
                 "sup_err_fitted": float(np.max(np.abs(V / c - T))) if c else float("inf"),
                 "sup_err_raw": float(np.max(np.abs(V - T))),
                 "diag_err": float(np.max(np.abs(np.diag(V - T))))}
        if beta == 1:
            entry["rank_one_sup"] = float(np.max(np.abs(rank_one)))
        rows.append(entry)
    errs = [r["sup_err_fitted"] for r in rows]
    ok = bool(np.all(np.isfinite(errs))) and min(errs) > 0 and len(errs) > 1
    slope = float(np.polyfit(np.log([r["A"] for r in rows]), np.log(errs), 1)[0]) \
        if ok else float("nan")
    return {"beta": beta, "block": block, "entries": rows, "slope": slope,
            "monotone_decreasing": bool(np.all(np.diff(errs) < 0))}


def bulk_convergence_test(regime: Regime, beta: int, u: float, A_list, block: str) -> dict:
    """The rescaled block against the sine kernel per A (`_sweep`)."""
    frames = (bulk_frame(regime, A, u) for A in A_list)
    return {"regime": regime.kind, "u": u, **_sweep(frames, beta, block, _sine_kernel)}


def edge_convergence_test(regime: Regime, beta: int, A_list, block: str) -> dict:
    """The block against the Airy kernel at the right soft edge per A (`_sweep`), with the
    edge data and the `coalescence_exponent` (1/2, which sets the A^(1/3) scale) of the first A."""
    fam, N = regime.family_and_N(int(A_list[0]))
    ed = edge_data(fam, N)
    frames = (edge_frame(regime, A, ed, np.linspace(-3.5, 1.5, 13)) for A in A_list)
    return {"regime": regime.kind, "side": "right", "u_star": ed["u_star"],
            "kappa": abs(ed["kappa"]), "lam": ed["lam"],
            **_sweep(frames, beta, block, airy_kernel),
            "coalescence_exponent": coalescence_exponent(regime, A_list[0])}


def coalescence_exponent(regime: Regime, A: int) -> float:
    """Fit |z_+ - z_-| ~ C |u - u*|^p approaching the right soft edge (p = 1/2), at A."""
    fam, N = regime.family_and_N(int(A))
    lo, hi = bulk_support(fam, N)
    ds = np.geomspace(1e-4, 1e-2, 9) * (hi - lo)
    gaps = [abs(np.subtract(*saddle_pair(fam, hi - d, N))) for d in ds]
    return float(np.polyfit(np.log(ds), np.log(gaps), 1)[0])


# ---------------------------------------------------------------------------
# first-correction machinery


def correction_extract(regime: Regime, beta: int, u: float, A_list) -> dict:
    """Fit R = A (Delta S - sine) by least squares on the saddle-expansion basis.

    The five columns, in the microscopic coordinates (s, t) of `DEFAULT_GRID`:

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
        entry, seff, V, T, rank_one = _compare(bulk_frame(regime, A, u), beta, "S", _sine_kernel)
        if beta == 1:
            V = V - rank_one
        # resample onto the grid so fields are commensurate
        fields.append(_grid_resample(seff, entry["A"] * (V - T), DEFAULT_GRID))
    R = 2.0 * fields[-1] - fields[-2] if len(fields) >= 2 else fields[-1]
    s, t = DEFAULT_GRID[:, None], DEFAULT_GRID[None, :]
    basis = [sine_kernel(s, t), sine_kernel_deriv(s, t),
             (s + t) * np.cos(np.pi * (s - t)),
             np.cos(np.pi * (s + t)), np.sin(np.pi * (s + t))]
    B = np.stack([c.ravel() for c in basis], axis=1)
    coef = np.linalg.lstsq(B, R.ravel(), rcond=None)[0]
    rel = float(np.linalg.norm(R.ravel() - B @ coef) / max(np.linalg.norm(R), 1e-300))
    fam, N = regime.family_and_N(entry["A"])
    lo, hi = bulk_support(fam, N)
    du = 1e-5 * (hi - lo)
    rho_prime = (site_density(fam, u + du, N) - site_density(fam, u - du, N)) / (2 * du)
    return {"alpha_hat": float(coef[0]), "beta_hat": float(coef[1]),
            "gradient_hat": float(coef[2]),
            "gradient_predicted": float(rho_prime / (2 * entry["rho_site"] ** 2)),
            "sum_cos_hat": float(coef[3]), "sum_sin_hat": float(coef[4]),
            "relative_residual": rel,
            "residual_norm": float(np.linalg.norm(R)),
            "fields": len(fields)}


def _grid_resample(seff, R, grid):
    """Bilinear resample of R from the nodes seff x seff (increasing) onto
    grid x grid; past the nodes the end cells extend linearly."""
    i = np.clip(np.searchsorted(seff, grid) - 1, 0, len(seff) - 2)
    w = (grid - seff[i]) / (seff[i + 1] - seff[i])
    rows = (1.0 - w)[:, None] * R[i] + w[:, None] * R[i + 1]
    return (1.0 - w) * rows[:, i] + w * rows[:, i + 1]


# ---------------------------------------------------------------------------
# Meixner -> hard-edge crossover


def _bessel_fit(V, xs, index, scales):
    """Per scale, the best (relative L2 error, offset, amplitude) of V against the Bessel kernel T
    at u = scale (x + offset), offsets 0, 0.1, ..., 1.6, amplitude <V, T> / |T|^2 > 0 (else
    (inf, 0, 0)).  The squared error is |V|^2 |T|^2 / <V, T>^2 - 1, so the offset is picked from
    <V, T> and |T|^2, with no kernel built: off the diagonal T = (j_i d_j - d_i j_j) C_ij / 2,
    C_ij = 1 / (x_i - x_j), j = J_a(sqrt u), d = a j - sqrt u J_(a+1)(sqrt u).  Only the picked
    kernel is built and scored, or all 17 where some <V, T> is roundoff (the beta = 4 S)."""
    offsets, scales = np.linspace(0.0, 1.6, 17), np.asarray(scales, dtype=float)[:, None, None]
    sl = np.sqrt(scales * (xs + offsets[:, None]))          # [scale, offset, site]
    j, j1 = bessel_j(index, sl)
    d = index * j - sl * j1
    C = 1.0 / (np.subtract.outer(xs, xs) + np.eye(xs.size)) - np.eye(xs.size)
    W, Q, jd = V * C, C * C, j * d
    diag = scales * 0.25 * (j * j + j1 * j1 - 2.0 * index * j * j1 / np.where(sl > 0, sl, 1.0))
    vt = 0.5 * np.sum(j * (d @ W.T) - d * (j @ W.T), axis=2) + diag @ np.diag(V)
    tt = 0.5 * np.sum(j * j * ((d * d) @ Q) - jd * (jd @ Q), axis=2) + np.sum(diag * diag, axis=2)
    loose = np.any(np.abs(vt) <= 1e-12 * np.linalg.norm(V) * np.sqrt(tt), axis=1)
    pick = np.argmin(np.where(vt > 0, tt / np.where(vt > 0, vt, 1.0) ** 2, np.inf), axis=1)
    ks, ds = np.array([(k, i) for k, p in enumerate(pick)
                       for i in (range(offsets.size) if loose[k] else [p])]).T
    kernels = bessel_kernel(index, scales[ks, :, 0] * (xs + offsets[ds, None]))
    kernels *= scales[ks]
    best = [None] * pick.size
    for k, i, T in zip(ks, ds, kernels):
        c = fit_amplitude(V, T)
        if c <= 0:
            continue
        err = float(np.linalg.norm(V / c - T) / np.linalg.norm(T))
        if best[k] is None or err < best[k][0]:
            best[k] = (err, float(offsets[i]), c)
    return [b or (float("inf"), 0.0, 0.0) for b in best]


def crossover_test(alpha: float, N_list, block: str, beta: int) -> dict:
    """Meixner hard edge with xi = 1 - alpha/(2N) against the Bessel kernel.

    The lattice maps to the Bessel variable through u = c_h A (x + d) with
    c_h A = 4 alpha' tied to the candidate rate and d a fitted sub-lattice
    offset.  The recovered alpha is the rate whose tied-scale fit minimizes
    the residual; the adjudicated finding for the geometric weight is that
    the matching Bessel index is 0 (the Meixner shape parameter minus one)
    while the printed statement names the rate alpha as the index, so the
    spec-facing comparison against bessel(alpha) is reported alongside the
    index-0 fit.  Only the S and K blocks are computed; SD and epsS raise
    DomainError.  Both come from `kernels.crossover_block` on the window
    alone (window rows, the beta = 4 Gram in closed form), so no lattice grows
    as xi -> 1.  Each fit of an N, and the whole rate scan, is one
    `_bessel_fit` call, which picks the offsets with no kernel built.  The
    beta = 4 S block is antisymmetric and the Bessel kernel symmetric, so its
    fitted amplitudes are roundoff (`amp_index0` near 1e-14) and its errors
    measure no convergence.
    """
    if block not in ("S", "K"):
        raise DomainError(f"crossover computes the S and K blocks, not {block}")
    xs = np.arange(41)
    rows = []
    for N in N_list:
        V = crossover_block(Meixner(xi=1.0 - alpha / (2.0 * N)), N, xs, beta, block)
        (err_spec, d_spec, amp_spec), = _bessel_fit(V, xs, alpha, [4.0 * alpha])
        (err_idx0, d0, amp0), = _bessel_fit(V, xs, 0.0, [4.0 * alpha])
        rows.append({"N": int(N), "xi": 1.0 - alpha / (2.0 * N),
                     "err_vs_bessel_alpha": err_spec, "amp": amp_spec,
                     "err_vs_bessel_index0": err_idx0, "amp_index0": amp0,
                     "offset_index0": d0, "c_h": 4.0 * alpha / (2.0 * N)})
    errs = [r["err_vs_bessel_alpha"] for r in rows]
    # rate recovery at the largest N (the last V) via the tied-scale scan
    tries = np.linspace(max(0.1, alpha - 0.8), alpha + 0.8, 33)
    scan = [(float(a), fit[0]) for a, fit in zip(tries, _bessel_fit(V, xs, 0.0, 4.0 * tries))]
    alpha_hat = float(min(scan, key=lambda t: t[1])[0])
    return {"alpha": alpha, "beta": beta, "block": block, "entries": rows,
            "monotone_decreasing": bool(np.all(np.diff(errs) < 0)),
            "alpha_hat": alpha_hat, "scan": scan}
