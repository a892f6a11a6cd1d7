"""pfkern benchmark: seeded CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload kernel-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Each repetition of a workload is one fresh single-threaded Python process
(bench/worker.py) that calls `pfkern.cli.main(argv)` for every request of
the workload in turn, so pfkern's caches start cold as they do for a user's
sweep script.  Repetitions are started until `--seconds` have passed (at
least MIN_REPS); set-up is timed over SETUP_SAMPLES spawns that only import.
Every repetition's outputs are checked by the gate (bench/gate.py).

With `--trace 1` one more repetition runs with timing shims around every
public pfkern function and the per-layer metrics are reported instead of
the end-to-end ones, together with the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  `correct` is false when a request fails that is not a
known defect (workloads.known_defect); known defects still count in
`failed`.  A full record with provenance goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
MIN_REPS = 2
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# bounded end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_max_s": "s",
    "peak_rss_mb": "MB",
}

# <layer>.<function>.<stat> read from the traced repetition
PER_LAYER = {
    **{f"kernels.{f}.{st}": u for f in ("adjudicate_composition", "adjudicate_projection")
       for st, u in (("self_s", "s"), ("calls", "count"), ("hit_ratio", "ratio"))},
    **{f"kernels.{f}.{st}": u for f in ("compose_contour", "projection_contour")
       for st, u in (("self_s", "s"), ("calls", "count"))},
    **{f"kernels.{f}.self_s": "s" for f in ("compose_columns", "multiplier_columns",
                                            "contour_wave_rows", "s4_block", "s1_block")},
    "kernels.oracle_block.self_s": "s",
    "kernels.oracle_block.calls": "count",
    "kernels.oracle_block.lattice_sites": "count",
    "kernels.projection_direct.self_s": "s",
    "symbols.phi_via_contour.self_s": "s",
    "symbols.phi_via_contour.calls": "count",
    "symbols.eps_phi_raw_via_contour.self_s": "s",
    "symbols.eps_phi_raw_via_contour.calls": "count",
    **{f"symbols.{f}.self_s": "s" for f in ("phi_image_under_symbol", "degree_integrand",
                                            "degree_prefactor", "eps_phi_via_contour")},
    "wavefunctions.get_table.calls": "count",
    "wavefunctions.get_table.hit_ratio": "ratio",
    "wavefunctions.wave_table.self_s": "s",
    "wavefunctions.wave_table.calls": "count",
    "lattice_ops.apply_eps.self_s": "s",
    "lattice_ops.apply_eps.calls": "count",
    **{f"lattice_ops.{f}.self_s": "s" for f in ("build_d", "build_epsilon_direct",
                                                "build_epsilon_factored", "check_mutual_inverse")},
    "families.truncate.self_s": "s",
    **{f"harness.{f}.self_s": "s" for f in ("bulk_convergence_test", "edge_convergence_test",
                                            "correction_extract", "crossover_test",
                                            "meixner_eps_gram")},
    "kuznetsov.m_h.self_s": "s",
    "kuznetsov.m_h.calls": "count",
    **{f"kuznetsov.{f}.self_s": "s" for f in ("spliced_s4", "spliced_oracle", "edge_ratio_report")},
    **{f"refkernels.{f}.self_s": "s" for f in ("sine_kernel", "airy_kernel", "bessel_kernel",
                                               "bessel_j")},
    "saddles.site_density.self_s": "s",
    "saddles.edge_data.self_s": "s",
    "fredholm.gap_probability.self_s": "s",
    "fredholm.discrete_gap.self_s": "s",
    "validate.run_validation.self_s": "s",
    **{f"reports.{f}.self_s": "s" for f in ("write_kernel_csv", "write_json", "write_table_csv")},
    "reports.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PFKERN_OUT"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(args: list[str], deadline: float) -> float:
    """Run the worker to completion; returns seconds from spawn to `ready`."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.monotonic() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not start: {line!r}")
        try:
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the run's deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return setup
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run_rep(workload, seed, k, deadline, trace=False) -> dict:
    tag = f"{workload}-s{seed}-{os.getpid()}-{k}"
    result = os.path.join(OUT, f"rep-{tag}.json")
    args = ["--workload", workload, "--seed", str(seed), "--result", result,
            "--work", os.path.join(OUT, f"work-{tag}")]
    if trace:
        args += ["--trace", "--spans", os.path.join(OUT, f"spans_{workload}_s{seed}.jsonl")]
    t0 = time.monotonic()
    setup = spawn(args, deadline)
    try:
        with open(result) as fh:
            rep = json.load(fh)
    finally:
        if os.path.exists(result):
            os.remove(result)
    rep["setup_s"] = setup
    rep["elapsed_s"] = time.monotonic() - t0
    return rep


def rep_metrics(rep) -> dict:
    secs = [r["seconds"] for r in rep["requests"]]
    return {"wall_s": rep["wall_s"], "req_p50_s": statistics.median(secs),
            "req_max_s": max(secs), "peak_rss_mb": rep["peak_rss_mb"]}


def source_provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    setups = [spawn(["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(run_rep(workload, seed, len(reps), deadline))
        last = reps[-1]["elapsed_s"]
        if time.monotonic() + last * (3 if trace else 1.5) > deadline:
            break
    traced = run_rep(workload, seed, len(reps), deadline, trace=True) if trace else None

    per_rep = [rep_metrics(r) for r in reps]
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "req_p50_s", "req_max_s", "peak_rss_mb"):
        metrics[name] = statistics.median(m[name] for m in per_rep)
    gated = reps + ([traced] if traced else [])
    requests = [r for rep in gated for r in rep["requests"]]
    failures = [r for r in requests if r["error"]]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "reps": len(reps),
        "requests_per_rep": len(reps[0]["requests"]),
        "attempted": len(requests), "failed": len(failures),
        "correct": all(r["known_defect"] for r in failures),
        "failures": sorted({(r["kind"], r["error"], bool(r["known_defect"])) for r in failures}),
        "metrics": metrics, "setup_samples": setups, "per_rep": per_rep,
        "provenance": {"seed": seed, **source_provenance(), **reps[0]["provenance"]},
        "why": workloads.WORKLOADS[workload],
        "request_seconds": [[r["kind"], " ".join(r["argv"]), r["seconds"]]
                            for r in reps[0]["requests"]],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.traced_wall_s"] = traced["wall_s"]
        layers["trace.untraced_wall_s"] = metrics["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        summary["layers"] = {name: layers.get(name, 0) for name in PER_LAYER}
        summary["layers_all"] = layers
    return summary


def report(summary: dict, trace: bool) -> None:
    p = summary["provenance"]
    print(f"== {summary['workload']} seed {summary['seed']}: {summary['reps']} rep(s) x "
          f"{summary['requests_per_rep']} requests; commit {p['git_commit'] or 'n/a'} "
          f"src {p['src_sha256'][:12]}; python {p['python']} numpy {p['numpy']} "
          f"scipy {p['scipy']}; {p['blas']} threads {p['blas_threads']}; nproc {p['nproc']}")
    m = summary["metrics"]
    for name, unit in END_TO_END.items():
        note = f"  (slowest of {summary['requests_per_rep']} requests)" if name == "req_max_s" else ""
        print(f"  {name:<14} {m[name]:12.6g} {unit}{note}")
    print(f"  {'req_p50_s':<14} {m['req_p50_s']:12.6g} s  (unbounded)")
    ratio = summary["failed"] / summary["attempted"]
    print(f"  {'fail_ratio':<14} {ratio:12.6g} ratio  ({summary['failed']}/{summary['attempted']}, "
          "unbounded)")
    for kind, error, known in summary["failures"]:
        print(f"    {'known defect' if known else 'FAILED'}: {kind}: {error}")
    print(f"  gate: {'PASS' if summary['correct'] else 'FAIL'}"
          + (" (known defects only)" if summary["failures"] and summary["correct"] else ""))
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<44} {summary['layers'][name]:12.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help=f"one of {sorted(workloads.WORKLOADS)} or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "pfkern", "cli.py")):
        print(f"pfkern sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            suffix = "_trace" if args.trace else ""
            with open(os.path.join(OUT, f"BENCH_{name}_s{args.seed}{suffix}.json"), "w") as fh:
                json.dump(summary, fh, indent=1)
            report(summary, bool(args.trace))
            summaries.append(summary)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    table = PER_LAYER if args.trace else END_TO_END
    key = "layers" if args.trace else "metrics"
    prefix = len(names) > 1
    metrics = {(f"{s['workload']}." if prefix else "") + name: {"value": s[key][name], "unit": unit}
               for s in summaries for name, unit in table.items()}
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
