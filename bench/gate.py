"""Correctness gate: every request's output against an independent evaluation.

Runs after the timed requests of a repetition, so nothing it computes can
warm a cache that a timed request uses.  Tolerances are the library's own
test tolerances.  `check_all` returns one verdict per request: None when
the output passes, else the reason it failed.
"""
from __future__ import annotations

import glob
import json
import os

import numpy as np

KERNEL_REL_TOL = 1e-8        # contour route vs oracle route
SPLICE_REL_TOL = 1e-6        # spliced contour block vs spliced oracle
REALITY_IMAG_TOL = 1e-10
EDGE_RATIO_TOL = 0.15
BULK_CFIT_TOL = 0.1
EDGE_CFIT_TOL = 0.05
EDGE_SUP_TOL = 0.02
GAP_REL_TOL = 0.02
GAP_CERT_TOL = 1e-8
CORRECTION_RESIDUAL_TOL = 0.3
CROSSOVER_ALPHA_TOL = 0.2
OK_CODES = (0, 3)


class GateFailure(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise GateFailure(msg)


def _one(outdir, pattern):
    hits = sorted(glob.glob(os.path.join(outdir, pattern)))
    _require(len(hits) == 1, f"expected one {pattern} in the output, found {len(hits)}")
    return hits[0]


def _json(outdir, pattern="*.json"):
    with open(_one(outdir, pattern)) as fh:
        return json.load(fh)


def _family(fam):
    from pfkern.families import Charlier, Krawtchouk, Meixner
    if fam["family"] == "charlier":
        return Charlier(theta=fam["theta"])
    if fam["family"] == "krawtchouk":
        return Krawtchouk(M=fam["M"], p=fam["p"])
    return Meixner(xi=fam["xi"], beta_m=1.0)


def _default_window(fam, N):
    return np.arange(fam["M"] + 1) if fam["family"] == "krawtchouk" else np.arange(4 * N + 1)


def read_kernel_csv(path):
    """(xs, {'S','SD','epsS'} -> square matrix) from a kernel CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xs = np.unique(data[:, 0]).astype(int)
    n = xs.size
    _require(data.shape == (n * n, 5), f"{os.path.basename(path)} is not a square window")
    return xs, {name: data[:, 2 + k].reshape(n, n) for k, name in enumerate(("S", "SD", "epsS"))}


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _compare_blocks(got, ref, tol, what):
    for name in ref:
        rel = _rel(got[name], ref[name])
        _require(rel < tol, f"{what}: {name} differs by {rel:.3e} relative (tol {tol:.0e})")


def _check_validate(req, outdir):
    rep = _json(outdir, "validate.json")
    bad = [i["name"] for i in rep["invariants"] if not i["passes"]]
    _require(rep["invariants"] and not bad, f"invariants fail: {bad}")


def dense_oracle(family, N, beta, window):
    """S, SD, epsS from dense lattice matrices: the eps matrix built from its
    defining sums (not the prefix-sum `apply_eps` that `oracle_block` uses)."""
    from pfkern.kernels import beta1_indices, oracle_lattice, rank_of
    from pfkern.lattice_ops import build_d, build_epsilon_direct
    from pfkern.wavefunctions import get_table
    lattice = oracle_lattice(family, N, window)
    r = rank_of(family, N)
    phi = get_table(family, r + 1, None if family.finite else lattice.x_max).phi[:, :lattice.size]
    eps = build_epsilon_direct(family, lattice).mat
    K = phi[:r].T @ phi[:r]
    if beta == 4:
        S = K @ eps @ K
    else:
        a, b = beta1_indices(family, N)
        S = K + 0.5 * np.outer(phi[a], eps @ phi[b])
    ix = np.ix_(window, window)
    return {"S": S[ix], "SD": (S @ build_d(family, lattice).mat)[ix], "epsS": (eps @ S)[ix]}


def _check_kernel(req, outdir):
    p = req.params
    xs, got = read_kernel_csv(_one(outdir, "kernel_*.csv"))
    window = _default_window(p["family"], p["N"])
    _require(np.array_equal(xs, window), "window differs from the requested default window")
    fam = _family(p["family"])
    if p["route"] == "contour":
        from pfkern.kernels import oracle_block
        blk = oracle_block(fam, p["N"], p["beta"], window)
        ref, what = {"S": blk.S, "SD": blk.SD, "epsS": blk.epsS}, "contour block vs oracle_block"
    else:
        ref, what = dense_oracle(fam, p["N"], p["beta"], window), "oracle block vs dense eps"
    _compare_blocks(got, ref, KERNEL_REL_TOL, what)


def _check_splice_kernel(req, outdir):
    from pfkern.kuznetsov import GaussianTest, spliced_oracle
    p = req.params
    rep = _json(outdir)
    _require(rep["oracle_rel_diff"] < SPLICE_REL_TOL,
             f"reported oracle_rel_diff {rep['oracle_rel_diff']:.3e}")
    xs, got = read_kernel_csv(_one(outdir, "*.csv"))
    _require(np.array_equal(xs, _default_window(p["family"], p["N"])), "unexpected window")
    ref = spliced_oracle(_family(p["family"]), p["N"], GaussianTest(sigma=p["sigma"]), xs).S
    rel = _rel(got["S"], ref)
    _require(rel < SPLICE_REL_TOL, f"spliced S vs spliced_oracle differs by {rel:.3e}")


def _check_reality(req, outdir):
    rep = _json(outdir)
    _require(rep["max_imag_unit_circle"] < REALITY_IMAG_TOL,
             f"max |Im m_h| {rep['max_imag_unit_circle']:.3e}")
    table = np.loadtxt(_one(outdir, "*.csv"), delimiter=",", skiprows=1, ndmin=2)
    _require(np.max(np.abs(table[:, 2])) < REALITY_IMAG_TOL, "im_mh column not real")


def _check_edge_ratio(req, outdir):
    rep = _json(outdir)
    rel = abs(rep["measured_ratio"] - rep["predicted_ratio"]) / abs(rep["predicted_ratio"])
    _require(abs(rel - rep["rel_diff"]) < 1e-12, "rel_diff inconsistent with the ratios")
    _require(rel < EDGE_RATIO_TOL, f"edge ratio rel_diff {rel:.3f}")


def _check_bulk(req, outdir):
    rep = _json(outdir)
    cs = [e["c_fit"] for e in rep["entries"]]
    _require(cs and all(abs(c - 1.0) < BULK_CFIT_TOL for c in cs), f"beta=1 c_fit {cs}")


def _check_edge(req, outdir):
    rep = _json(outdir)
    last = rep["entries"][-1]
    _require(rep["monotone_decreasing"], "edge errors not monotone decreasing")
    _require(last["sup_err_fitted"] < EDGE_SUP_TOL, f"edge sup error {last['sup_err_fitted']:.3e}")
    _require(abs(last["c_fit"] - 1.0) < EDGE_CFIT_TOL, f"edge c_fit {last['c_fit']:.4f}")


def _check_gap(req, outdir):
    rep = _json(outdir)
    for e in rep["entries"]:
        _require(e["rel_diff"] < GAP_REL_TOL, f"gap rel_diff {e['rel_diff']:.4f} at L={e['length']}")
        _require(e["sine_certificate"] < GAP_CERT_TOL, "sine gap certificate too large")


def _check_correction(req, outdir):
    rep = _json(outdir)
    _require(rep["relative_residual"] < CORRECTION_RESIDUAL_TOL,
             f"correction residual {rep['relative_residual']:.3f}")


def _check_crossover(req, outdir):
    rep = _json(outdir)
    err = abs(rep["alpha_hat"] - req.params["alpha"])
    _require(err <= CROSSOVER_ALPHA_TOL, f"alpha_hat off by {err:.3f}")


CHECKS = {
    "validate": _check_validate,
    "kernel": _check_kernel,
    "splice kernel": _check_splice_kernel,
    "splice reality": _check_reality,
    "splice edge-ratio": _check_edge_ratio,
    "asym bulk": _check_bulk,
    "asym edge": _check_edge,
    "asym gap": _check_gap,
    "asym correction": _check_correction,
    "asym crossover": _check_crossover,
}


def check_all(reqs, outdirs, outcomes) -> list[str | None]:
    """Verdict per request.  `outcomes[i]` is the request's exit code, or
    the text of the exception it raised."""
    verdicts = []
    for req, outdir, code in zip(reqs, outdirs, outcomes):
        if isinstance(code, str):
            verdicts.append(f"raised {code.strip().splitlines()[-1]}")
            continue
        if code not in OK_CODES:
            verdicts.append(f"exit code {code}")
            continue
        try:
            CHECKS[req.kind](req, outdir)
            verdicts.append(None)
        except GateFailure as exc:
            verdicts.append(str(exc))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdicts.append(f"unreadable output: {exc!r}")
    return verdicts
