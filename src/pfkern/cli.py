"""Command-line interface.

Subcommands: kernel, validate, asym (density/bulk/edge/correction/
crossover/gap), splice (kernel/reality/edge-ratio).  Exit codes: 0 success,
1 usage error, 2 numerical failure, 3 structured mismatch (success with
findings, carried in the report).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .families import Charlier, Krawtchouk, Meixner, DomainError, QuadratureError
from . import reports


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


_FAMILY_OPTIONS = {"xi": (float, "Meixner ratio in (0,1)"), "theta": (float, "Charlier rate"),
                   "M": (int, "Krawtchouk lattice size"),
                   "p": (float, "Krawtchouk success probability")}


def _add_family_args(p, names=tuple(_FAMILY_OPTIONS), required=True):
    """--family and the family options in `names`."""
    p.add_argument("--family", required=required, choices=["meixner", "charlier", "krawtchouk"])
    for name in names:
        cast, text = _FAMILY_OPTIONS[name]
        p.add_argument(f"--{name}", type=cast, help=text)


def _family(args):
    if args.family == "meixner":
        if args.xi is None:
            raise DomainError("--xi required for meixner")
        return Meixner(xi=args.xi)
    if args.family == "charlier":
        if args.theta is None:
            raise DomainError("--theta required for charlier")
        return Charlier(theta=args.theta)
    if args.M is None or args.p is None:
        raise DomainError("--M and --p required for krawtchouk")
    return Krawtchouk(M=args.M, p=args.p)


_REGIME_PARAMS = {"meixner": ("xi",), "charlier": ("tau",), "krawtchouk": ("gamma", "p")}


def _regime(args):
    from .harness import Regime
    names = _REGIME_PARAMS[args.family]
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise DomainError(f"{' and '.join(missing)} required for asym {args.study} "
                          f"--family {args.family}")
    return Regime(kind=args.family, **{name: getattr(args, name) for name in names})


def _position(args):
    if args.u is None:
        raise DomainError(f"--u required for asym {args.study}")
    if not np.isfinite(args.u):
        raise DomainError(f"--u {args.u} is not a finite number")
    return args.u


def _window(args, family):
    """The lo:hi `--window` (the default window if unset) for a positive `--N`,
    at most M for Krawtchouk, and of even rank at beta = 4 (every splice is)."""
    from .kernels import default_window, refuse_odd_rank
    if args.N < 1:
        raise DomainError(f"--N must be positive, got {args.N}")
    if family.finite and args.N > family.M:
        raise DomainError(f"--N {args.N} exceeds the Krawtchouk lattice size M={family.M}")
    if getattr(args, "beta", 4) == 4:
        refuse_odd_rank(family, args.N, "")
    if not args.window:
        return default_window(family, args.N)
    # a bound that is not a decimal integer reads as -1, outside every lattice
    lo, hi = (int(v) if v.isdecimal() else -1 for v in args.window.partition(":")[::2])
    if not 0 <= lo <= hi <= (family.M if family.finite else hi):
        raise DomainError(f"--window {args.window} is not a nonempty lo:hi range on the lattice")
    return np.arange(lo, hi + 1)


def _out(args, name):
    """`name` in the output directory, made on first use: a refused request makes none."""
    return os.path.join(reports.output_dir(args.out), name)


def _report(args, config, name, rep, summary=""):
    """Write the study report `rep` as `name`, print `summary` and its path; exit code 0."""
    path = _out(args, name)
    reports.write_json(path, rep, config=config)
    print(f"{summary}wrote {path}")
    return 0


def _parse_list(text, option, cast=int):
    """The positive finite values (int or float) of the comma-separated `text`
    given to `option`."""
    try:
        values = [cast(v) for v in text.split(",")]
    except ValueError:
        values = [0]
    if not all(0 < v < np.inf for v in values):
        raise DomainError(f"{option} {text} is not a list of positive "
                          f"{'integers' if cast is int else 'numbers'}")
    return values


def _size(args, default):
    """`--A`, or `default` if it is unset; refused unless positive."""
    if args.A is not None and args.A < 1:
        raise DomainError(f"--A {args.A} is not a positive integer")
    return args.A or default


def _config_tokens(path):
    """One `--key=value` token per `key = value` line of the file, `--key` for
    `true` and none for `false`; blank lines and `#` comments are skipped."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            key, _, val = (part.strip() for part in line.partition("="))
            if key and not key.startswith("#") and val != "false":
                tokens.append(f"--{key}" if val == "true" else f"--{key}={val}")
    return tokens


def cmd_kernel(args, config) -> int:
    from .kernels import adjudicate_composition, beta1_indices, gram_block
    fam = _family(args)
    window = _window(args, fam)
    adj = adjudicate_composition(fam)
    route, meta = "oracle" if args.oracle else "contour", {}
    if route == "contour":      # the contour block records what it was checked by
        meta = ({"adjudication": adj["outcome"]} if args.beta == 4
                else {"rank_one_indices": beta1_indices(fam, args.N)})
    blk = gram_block(fam, args.N, args.beta, window, route, **meta)
    stem = _out(args, f"kernel_{fam.name}_b{args.beta}_N{args.N}")
    reports.write_kernel_csv(stem + ".csv", blk)
    reports.write_json(stem + ".json",
                       {"metadata": reports.block_metadata(blk),
                        "composition_adjudication": adj},
                       config=config)
    if args.dump_ops:
        from .kernels import oracle_lattice
        from .lattice_ops import build_d, build_epsilon_direct, dump_csv
        lat = oracle_lattice(fam, args.N, window)
        dump_csv(build_d(fam, lat), stem + "_d.csv")
        dump_csv(build_epsilon_direct(fam, lat), stem + "_eps.csv")
    print(f"wrote {stem}.csv ({len(window)}^2 rows) provenance={blk.provenance}")
    return 0 if adj["outcome"] == "match" else 3


def cmd_validate(args, config) -> int:
    from .validate import run_validation
    fam = _family(args) if args.family else None
    report = run_validation(fam, wrong_nesting=args.wrong_nesting)
    path = _out(args, "validate.json")
    reports.write_json(path, report, config=config)
    for item in report["invariants"]:
        status = "pass" if item["passes"] else "FINDING"
        print(f"[{status}] {item['name']}: residual {item['residual']:.3e} "
              f"(tol {item['tolerance']:.1e})")
    print(f"wrote {path}")
    return 0 if report["all_pass"] else 3


def cmd_asym(args, config) -> int:
    from .harness import (bulk_convergence_test, correction_extract, crossover_test,
                          edge_convergence_test)
    if args.study == "density":
        from .saddles import (bulk_support, cos_theta, density_total_mass,
                              rho_closed_form, site_density)
        reg = _regime(args)
        if args.grid < 1:
            raise DomainError(f"--grid {args.grid} is not a positive integer")
        fam, N = reg.family_and_N(_size(args, 64))
        lo, hi = bulk_support(fam, N)
        us = np.linspace(lo, hi, args.grid + 2)[1:-1]
        rows = []
        for u in us:
            rho = rho_closed_form(fam, u, N)
            rows.append((float(u), cos_theta(fam, u, N), rho, 1.0 / (2.0 * np.pi * rho),
                         site_density(fam, u, N)))
        path = _out(args, f"density_{args.family}.csv")
        reports.write_table_csv(path, ["u", "cos_theta", "rho", "delta", "rho_site"], rows)
        print(f"wrote {path} ({len(rows)} rows over ({lo:.6g}, {hi:.6g}); "
              f"density_total_mass {density_total_mass(fam, N):.12g})")
        return 0
    if args.study == "bulk":
        rep = bulk_convergence_test(_regime(args), args.beta, _position(args),
                                    _parse_list(args.A_list, "--A-list"), block=args.block)
        return _report(args, config, f"bulk_{args.family}_b{args.beta}.json", rep,
                       f"slope {rep['slope']:.3f}; ")
    if args.study == "edge":
        rep = edge_convergence_test(_regime(args), args.beta,
                                    _parse_list(args.A_list, "--A-list"), block=args.block)
        return _report(args, config, f"edge_{args.family}_b{args.beta}.json", rep,
                       f"monotone decreasing: {rep['monotone_decreasing']}; ")
    if args.study == "correction":
        rep = correction_extract(_regime(args), args.beta, _position(args),
                                 _parse_list(args.A_list, "--A-list"))
        return _report(args, config, f"correction_{args.family}_b{args.beta}.json", rep,
                       f"alpha_hat {rep['alpha_hat']:.4f} beta_hat {rep['beta_hat']:.4f} "
                       f"residual {rep['relative_residual']:.3f}; ")
    if args.study == "crossover":
        unread = [f"--{n}" for n in ("xi", "tau", "gamma", "p") if getattr(args, n) is not None]
        if unread:
            raise DomainError(f"asym crossover reads no {unread[0]}: it sets xi = 1 - alpha/(2N)")
        N_list = _parse_list(args.N_list, "--N-list")
        if not 0 < args.alpha < 2 * min(N_list):     # so that xi = 1 - alpha/(2N) is in (0, 1)
            raise DomainError(f"--alpha {args.alpha} is not in (0, 2 min(--N-list))")
        rep = crossover_test(args.alpha, N_list, beta=args.beta, block=args.block)
        return _report(args, config, "crossover.json", rep,
                       f"alpha_hat {rep['alpha_hat']:.3f} monotone {rep['monotone_decreasing']}; ")
    if args.study == "gap":
        from .fredholm import bulk_scaled_gap_comparison
        reg, u = _regime(args), _position(args)
        rep = bulk_scaled_gap_comparison(reg, _size(args, 256), u,
                                         _parse_list(args.lengths, "--lengths", float))
        return _report(args, config, "gap.json", rep)
    return 1


def cmd_splice(args, config) -> int:
    from .kuznetsov import (GaussianTest, edge_ratio_report, m_h, m_h_numeric,
                            reality_symmetry_check, spliced_oracle, spliced_s4)
    from .harness import Regime
    test = GaussianTest(sigma=args.sigma)
    if args.study == "kernel":
        fam = _family(args)
        window = _window(args, fam)
        blk = spliced_s4(fam, args.N, test, window)
        orc = spliced_oracle(fam, args.N, test, window)
        rel = float(np.max(np.abs(blk.S - orc.S)) / np.max(np.abs(orc.S)))
        stem = _out(args, f"spliced_{fam.name}_N{args.N}_sigma{args.sigma:g}")
        reports.write_kernel_csv(stem + ".csv", blk)
        reports.write_json(stem + ".json",
                           {"metadata": reports.block_metadata(blk),
                            "oracle_rel_diff": rel},
                           config=config)
        print(f"spliced block vs oracle: {rel:.3e}; wrote {stem}.csv")
        return 0 if rel < 1e-6 else 3
    if args.study == "reality":
        rep = reality_symmetry_check(test)
        phis = np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 25)
        w = np.exp(1j * phis)
        rows = [(float(ph), float(v.real), float(v.imag), float(v_num.real))
                for ph, v, v_num in zip(phis, m_h(test, w), m_h_numeric(test, w))]
        path = _out(args, "reality.csv")
        reports.write_table_csv(path, ["phi", "re_mh", "im_mh", "re_numeric"], rows)
        reports.write_json(_out(args, "reality.json"), rep, config=config)
        print(f"max |Im m_h| on circle: {rep['max_imag_unit_circle']:.3e}; wrote {path}")
        return 0
    if args.study == "edge-ratio":
        rep = edge_ratio_report(Regime(kind="charlier", tau=args.tau), test, A=_size(args, 96))
        return _report(args, config, "edge_ratio.json", rep,
                       f"measured {rep['measured_ratio']:.4f} vs predicted "
                       f"{rep['predicted_ratio']:.4f} (rel diff {rep['rel_diff']:.3f}); ")
    return 1


def build_parser() -> _Parser:
    parser = _Parser(prog="pfkern", description=__doc__)
    parser.add_argument("--config", help="file of key = value lines read before the command's "
                        "options; keys are option names as typed: A-list = 32,64, oracle = true")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate a kernel block window")
    _add_family_args(k)
    k.add_argument("--beta", type=int, choices=[1, 4], required=True)
    k.add_argument("--N", type=int, required=True)
    k.add_argument("--window", help="lo:hi lattice window")
    k.add_argument("--oracle", action="store_true", help="lattice-oracle provenance")
    k.add_argument("--dump-ops", action="store_true", help="CSV dumps of D and eps")
    k.add_argument("--out")
    k.set_defaults(fn=cmd_kernel)

    v = sub.add_parser("validate", help="run the full invariant suite")
    _add_family_args(v, required=False)
    v.add_argument("--wrong-nesting", action="store_true",
                   help="inject the rejected contour convention (diagnostic)")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_validate)

    a = sub.add_parser("asym", help="asymptotic studies")
    a.add_argument("study", choices=["density", "bulk", "edge", "correction",
                                     "crossover", "gap"])
    _add_family_args(a, ("xi", "p"))
    a.add_argument("--tau", type=float, help="Charlier theta/N limit")
    a.add_argument("--gamma", type=float, help="Krawtchouk N/M limit")
    a.add_argument("--beta", type=int, choices=[1, 4], default=1)
    a.add_argument("--block", default="S", choices=["S", "SD", "epsS", "K"])
    a.add_argument("--u", type=float)
    a.add_argument("--A", type=int)
    a.add_argument("--A-list", dest="A_list", default="32,64,128")
    a.add_argument("--N-list", dest="N_list", default="16,32,64")
    a.add_argument("--alpha", type=float, default=1.0)
    a.add_argument("--grid", type=int, default=100)
    a.add_argument("--lengths", default="0.5,1.0")
    a.add_argument("--out")
    a.set_defaults(fn=cmd_asym)

    s = sub.add_parser("splice", help="spectral-multiplier studies")
    s.add_argument("study", choices=["kernel", "reality", "edge-ratio"])
    _add_family_args(s)
    s.add_argument("--sigma", type=float, default=2.0)
    s.add_argument("--tau", type=float, default=1.0)
    s.add_argument("--N", type=int, default=6)
    s.add_argument("--A", type=int)
    s.add_argument("--window")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_splice)
    return parser


_PARSER = build_parser()    # built once per process; error() reads sys.stderr when called
_ONE_FAMILY = {"asym crossover": "meixner", "splice edge-ratio": "charlier"}  # the family each runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:     # argv is --config[=]path, the command, its options; those win
            at = 2 if "=" in argv[0] else 3
            args = _PARSER.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: --config {args.config}: {exc}", file=sys.stderr)
        return 1
    fn = vars(args).pop("fn")
    command = " ".join(filter(None, (args.command, getattr(args, "study", None))))
    try:
        if args.family != _ONE_FAMILY.get(command, args.family):
            raise DomainError(f"{command} is implemented for --family {_ONE_FAMILY[command]} "
                              f"only, not {args.family}")
        return fn(args, vars(args) | {"command": command})
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
