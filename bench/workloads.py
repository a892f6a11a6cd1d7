"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of `pfkern` CLI requests.  Sizes (N, A lists,
node counts, lattice shapes) are fixed per workload; the seed draws only
the continuous parameters (theta, xi, (M, p), tau, u, sigma, alpha) and
which sweep requests get an `--oracle` twin.
The parameter ranges are a few percent wide: lattice sizes follow the
parameters (the Charlier bulk lattice grows with tau * u), so wide ranges
would make the work, not only the inputs, depend on the seed.
pfkern sees nothing but the generated argv; the `params` of a request are
kept on the benchmark side for the correctness gate.

This module is pure Python (no numpy, no pfkern) so that a request list can
be generated and inspected without importing the library.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# why each workload was chosen and which layers it loads (one line each)
WORKLOADS = {
    "kernel-sweep": (
        "printed double-contour formulas do most of the work: validate runs "
        "adjudicate_projection and projection_contour, each new family pays "
        "adjudicate_composition; repeats load block assembly and CSV/JSON"),
    "oracle-asym": (
        "dense oracle algebra does almost all the work: oracle_block on lattices up to "
        "L~3.9k, wave tables, apply_eps/build_d, Airy and sine kernels; no contour "
        "quadrature, no printed formula"),
    "contour-splice": (
        "single-contour extraction does most of the work: _meixner_extract at 16384 "
        "nodes, degree_integrand, m_h multiplier columns, fragmented wave tables; no "
        "printed formula, small lattices"),
}

SWEEP_N = (16, 24, 32)
BULK_A = "96,192,384,768"
EDGE_A = "48,96,192"
CORRECTION_A = "48,96"
CROSSOVER_N = "16,32"


@dataclass(frozen=True)
class Request:
    """One CLI call: `argv` goes to pfkern, `params` stay with the gate."""

    kind: str                      # e.g. "kernel", "asym bulk"
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)


def _family_argv(fam: dict) -> list[str]:
    if fam["family"] == "charlier":
        return ["--family", "charlier", "--theta", repr(fam["theta"])]
    if fam["family"] == "krawtchouk":
        return ["--family", "krawtchouk", "--M", str(fam["M"]), "--p", repr(fam["p"])]
    return ["--family", "meixner", "--xi", repr(fam["xi"])]


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _sweep_families(rng) -> list[dict]:
    return [
        {"family": "charlier", "theta": _u(rng, 0.95, 1.05)},
        {"family": "krawtchouk", "M": rng.randint(64, 66), "p": _u(rng, 0.39, 0.41)},
        # xi <= 0.64 keeps Meixner in one contour node band (s <= 0.8)
        {"family": "meixner", "xi": _u(rng, 0.44, 0.46)},
    ]


def kernel_sweep(rng) -> list[Request]:
    fams = _sweep_families(rng)
    # validate shares the Meixner family, and so its adjudication caches, with the sweep
    reqs = [Request("validate", ("validate", *_family_argv(fams[2])), {"family": fams[2]})]
    # Fixed order, so the same requests pay the per-family adjudication in
    # every seed; the seed picks which beta gets the --oracle twin at the
    # smallest N (the other beta gets it at the largest N).
    for fam in fams:
        twin_beta = rng.choice((1, 4))
        twins = {(twin_beta, SWEEP_N[0]), (5 - twin_beta, SWEEP_N[-1])}
        for N in SWEEP_N:
            for beta in (1, 4):
                base = ("kernel", *_family_argv(fam), "--beta", str(beta), "--N", str(N))
                params = {"family": fam, "beta": beta, "N": N}
                reqs.append(Request("kernel", base, {**params, "route": "contour"}))
                if (beta, N) in twins:
                    reqs.append(Request("kernel", base + ("--oracle",), {**params, "route": "oracle"}))
    return reqs


def _regime_argv(family: str, regime: dict) -> list[str]:
    return ["--family", family, *(a for k, v in regime.items() for a in (f"--{k}", repr(v)))]


def oracle_asym(rng) -> list[Request]:
    tau = _u(rng, 0.99, 1.01)
    bulk = [
        ("charlier", {"tau": tau}, _u(rng, 1.98, 2.02)),
        ("meixner", {"xi": _u(rng, 0.245, 0.255)}, _u(rng, 0.99, 1.01)),
        ("krawtchouk", {"gamma": _u(rng, 0.245, 0.255), "p": _u(rng, 0.39, 0.41)},
         _u(rng, 0.295, 0.305)),
    ]
    reqs = [Request("asym bulk", ("asym", "bulk", *_regime_argv(family, regime), "--beta", "1",
                                  "--u", repr(u), "--A-list", BULK_A),
                    {"family": family, **regime, "u": u})
            for family, regime, u in bulk]
    ch = _regime_argv("charlier", {"tau": tau})
    reqs.append(Request("asym edge", ("asym", "edge", *ch, "--beta", "1", "--block", "K",
                                      "--A-list", EDGE_A), {"tau": tau}))
    gap = {"tau": _u(rng, 0.99, 1.01), "u": _u(rng, 2.95, 3.05)}
    reqs.append(Request("asym gap", ("asym", "gap", *_regime_argv("charlier", gap), "--A", "256"),
                        gap))
    cu = _u(rng, 1.98, 2.02)
    reqs.append(Request("asym correction", ("asym", "correction", *ch, "--beta", "1", "--u", repr(cu),
                                            "--A-list", CORRECTION_A), {"tau": tau, "u": cu}))
    return reqs


def contour_splice(rng) -> list[Request]:
    sigma = _u(rng, 1.9, 2.1)
    fams = [
        {"family": "charlier", "theta": _u(rng, 0.95, 1.05)},
        {"family": "krawtchouk", "M": rng.randint(59, 61), "p": _u(rng, 0.39, 0.41)},
        {"family": "meixner", "xi": _u(rng, 0.245, 0.255)},
    ]
    reqs = [Request("splice kernel", ("splice", "kernel", *_family_argv(f), "--sigma", repr(sigma),
                                      "--N", "6"), {"family": f, "sigma": sigma, "N": 6})
            for f in fams]
    tau = _u(rng, 0.99, 1.01)
    reqs.append(Request("splice edge-ratio", ("splice", "edge-ratio", "--family", "charlier",
                                              "--theta", "1", "--tau", repr(tau),
                                              "--sigma", repr(sigma)), {"tau": tau, "sigma": sigma}))
    rsigma = _u(rng, 0.9, 1.1)
    reqs.append(Request("splice reality", ("splice", "reality", "--family", "charlier", "--theta", "1",
                                           "--sigma", repr(rsigma)), {"sigma": rsigma}))
    alpha = _u(rng, 0.95, 1.05)
    reqs.append(Request("asym crossover", ("asym", "crossover", "--family", "meixner",
                                           "--alpha", repr(alpha), "--N-list", CROSSOVER_N,
                                           "--beta", "1", "--block", "K"), {"alpha": alpha}))
    return reqs


_GENERATORS = {"kernel-sweep": kernel_sweep, "oracle-asym": oracle_asym,
             "contour-splice": contour_splice}


def known_defect(req: Request) -> str | None:
    """Why a failure of `req` is expected, for defects the library had when
    this benchmark was written; None for every other request.  Such
    failures still count in `failed` but do not make a run incorrect."""
    if req.kind == "splice reality":
        return "kuznetsov.m_h_numeric raises TypeError for a scalar w"
    if req.kind == "asym correction":
        return "two-basis correction fit leaves a relative residual near 1.0 (bound 0.3)"
    p = req.params
    if req.kind == "validate" and p["family"]["family"] == "meixner" and p["family"]["xi"] >= 0.3:
        return ("validate checks the D-eps mutual inverse on a fixed 120-site lattice, "
                "too short for Meixner xi >= 0.3")
    if (req.kind == "kernel" and p["route"] == "contour" and p["N"] >= 16
            and p["family"]["family"] in ("meixner", "charlier")):
        return ("contour-route wave functions lose accuracy on large lattices: Meixner "
                "extraction with 256 nodes aliases beyond 256 sites, Charlier high degrees cancel")
    return None


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of `workload` for `seed`; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_GENERATORS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
