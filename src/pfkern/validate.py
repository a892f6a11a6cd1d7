"""The runnable invariant suite behind `pfkern validate`.

Each invariant reports (name, residual, tolerance, passes); the overall
verdict separates hard failures from adjudicated findings (the composition
mismatches that ship with structured residual diagnostics).

Every lattice check runs on the lattice of the family's degree-30 wave
table (the full lattice for Krawtchouk), so the lattice grows with the
family instead of being fixed.  The eps checks measure the operators the
blocks run: `apply_eps` (the factorization eps = F Y F as prefix sums)
against the defining sums of `build_epsilon_direct`, and `apply_d` /
`apply_eps` as mutual inverses on the wave functions of the same table
(Krawtchouk with even M: of a second table, with M made odd).
The contour-vs-direct invariant is the `adjudicate_projection` score of the
adjudicated convention (or of the printed nesting, injected); idempotence is
checked on the rank of that projection, N = 8 capped at the Krawtchouk M.
"""
from __future__ import annotations

import numpy as np

from .families import Charlier, Krawtchouk, Meixner
from .kernels import adjudicate_composition, adjudicate_projection, rank_of
from .lattice_ops import (apply_eps, build_epsilon_direct, check_mutual_inverse,
                          interior_window)
from .wavefunctions import get_table

DESK_FAMILIES = (
    Meixner(xi=0.25, beta_m=1.0),
    Charlier(theta=1.0),
    Charlier(theta=4.0),
    Krawtchouk(M=60, p=0.4),
)


def _item(name, residual, tol):
    return {"name": name, "residual": float(residual), "tolerance": tol,
            "passes": bool(residual < tol)}


def run_validation(family=None, wrong_nesting: bool = False) -> dict:
    fams = (family,) if family is not None else DESK_FAMILIES
    invariants = []
    findings = []
    for fam in fams:
        tab = get_table(fam, 30)
        gram = tab.phi @ tab.phi.T
        invariants.append(_item(f"{fam!r} orthonormality (Gram)",
                                np.max(np.abs(gram - np.eye(tab.n_max + 1))), 1e-9))

        lat = tab.lattice
        eps_d = build_epsilon_direct(fam, lat).mat
        win = interior_window(lat)
        invariants.append(_item(f"{fam!r} eps direct vs factored",
                                np.max(np.abs(eps_d[win, win]
                                              - apply_eps(fam, np.eye(lat.size))[win, win])),
                                1e-12))
        invariants.append(_item(f"{fam!r} eps antisymmetry",
                                np.max(np.abs(eps_d[win, win] + eps_d.T[win, win])),
                                1e-10))
        # the antisymmetric D on M + 1 sites is singular for even M: check an odd M
        inv_fam = Krawtchouk(M=fam.M | 1, p=fam.p) if fam.finite else fam
        res = check_mutual_inverse(inv_fam, tab if inv_fam == fam else get_table(inv_fam, 30))
        invariants.append(_item(f"{inv_fam!r} D eps mutual inverse (interior)",
                                res["interior_residual"], 1e-8))

        proj = adjudicate_projection(fam)
        invariants.append(_item(f"{fam!r} projection idempotence",
                                _idempotence_defect(tab.phi[:rank_of(fam, proj["N"])]), 1e-9))
        # the candidates run from the printed nesting to the adjudicated convention
        scores = list(proj["candidates"].values())
        invariants.append(_item(f"{fam!r} contour vs direct projection"
                                + (" [injected wrong nesting]" if wrong_nesting else ""),
                                scores[0] if wrong_nesting else scores[-1], 1e-8))
        findings.append({"type": "nesting", "family": fam.name,
                         "winner": proj["winner"], "candidates": proj["candidates"],
                         **({"errors": proj["errors"]} if "errors" in proj else {})})
        comp = adjudicate_composition(fam)
        findings.append({"type": "composition", "family": fam.name,
                         "outcome": comp["outcome"], "winner": comp["winner"],
                         "winner_error": comp["winner_error"],
                         "columns_residual_rank": comp["columns_residual_rank"],
                         "candidates": comp["candidates"]})
    all_pass = all(i["passes"] for i in invariants) and not wrong_nesting
    composition_clean = all(f.get("outcome") == "match" for f in findings
                            if f["type"] == "composition")
    return {"invariants": invariants, "findings": findings,
            "all_pass": bool(all_pass and composition_clean)}


def _idempotence_defect(rows):
    """max |K K - K| of the projection K = rows^T rows on the rows' lattice."""
    K = rows.T @ rows
    return np.max(np.abs(K @ K - K))
