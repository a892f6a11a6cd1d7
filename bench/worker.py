"""One repetition of a workload in a fresh, single-threaded process.

    python3 bench/worker.py --workload W --seed S --work DIR --result FILE [--trace]
    python3 bench/worker.py --setup-only

The process imports every pfkern module, prints `ready` on stdout (the
parent times set-up from spawn to that line), then issues the workload's
requests as a closed-loop client: each `pfkern.cli.main(argv)` call starts
when the previous one has returned.  After the timed loop it runs the
correctness gate on the outputs, deletes them, and writes a JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_pfkern():
    """Import every module of the pfkern package under ./src; returns them."""
    if not os.path.isfile(os.path.join(SRC, "pfkern", "cli.py")):
        raise ImportError(f"pfkern sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    names = sorted(m.name for m in pkgutil.iter_modules([os.path.join(SRC, "pfkern")]))
    return [importlib.import_module(f"pfkern.{n}") for n in names]


def blas_provenance() -> dict:
    """BLAS vendor and the thread count it runs with in this process."""
    import ctypes
    import glob
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        threads = fn()
    return {"blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def library_provenance() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_provenance()}


def run_requests(cli, reqs, work, tracer=None):
    """Issue every request; returns (outdirs, outcomes, seconds, wall_s).

    An outcome is the exit code, or the formatted traceback of an exception.
    """
    outdirs, outcomes, seconds = [], [], []
    start = time.perf_counter()
    for i, req in enumerate(reqs):
        outdir = os.path.join(work, f"r{i:02d}")
        if tracer is not None:
            tracer.request = i
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                outcome = cli.main([*req.argv, "--out", outdir])
        except SystemExit as exc:
            outcome = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # a traceback is a failed request, not a failed run
            outcome = traceback.format_exc(limit=-3)
        seconds.append(time.perf_counter() - t0)
        outdirs.append(outdir)
        outcomes.append(outcome)
    return outdirs, outcomes, seconds, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--work")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    modules = import_pfkern()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import gate
    import tracer as tracing
    import workloads
    cli = importlib.import_module("pfkern.cli")
    reqs = workloads.requests(args.workload, args.seed)
    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tr.install(modules)
    try:
        outdirs, outcomes, seconds, wall = run_requests(cli, reqs, args.work, tr)
    finally:
        if tr is not None:
            tr.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if tr is not None:
        layers = {**tracing.layer_stats(tr.spans), **tr.cache_hit_ratios(), **tr.counters}
        if args.spans:
            tr.write_spans(args.spans)
    t0 = time.perf_counter()
    verdicts = gate.check_all(reqs, outdirs, outcomes)
    gate_s = time.perf_counter() - t0
    shutil.rmtree(args.work, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "wall_s": wall, "peak_rss_mb": peak_rss_mb, "gate_s": gate_s,
        "requests": [{"kind": r.kind, "argv": list(r.argv), "seconds": s,
                      "outcome": o if isinstance(o, int) else "exception",
                      "error": v, "known_defect": workloads.known_defect(r)}
                     for r, s, o, v in zip(reqs, seconds, outcomes, verdicts)],
        "layers": layers,
        "provenance": library_provenance(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
