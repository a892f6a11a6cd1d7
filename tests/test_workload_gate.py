"""The benchmark's correctness gate inside Tier-1: every request of oracle-asym
at seeds 1-3, of contour-splice at seeds 1-10 and of kernel-sweep at seed 1 goes through
`pfkern.cli.main`, and `bench/gate.check_all` checks its output.  A request may
fail only where it failed when this test was written, and only as a known
defect (`workloads.known_defect`), so a change that loses a verdict shows here
before the benchmark's failed share moves."""
import os
import sys

import pytest

from pfkern.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# index in the workload's request list of each request that fails today: the
# contour-route kernels of Charlier and Meixner at N >= 16 (exit 2, or S off the
# oracle block by 3e-4 and 2e-5)
FAILING = {("kernel-sweep", 1): {4, 5, 6, 7, 17, 18, 20, 21, 22, 24}}
CASES = [("oracle-asym", 1), ("oracle-asym", 2), ("oracle-asym", 3),
         *(("contour-splice", seed) for seed in range(1, 11)), ("kernel-sweep", 1)]


@pytest.fixture(scope="module")
def bench():
    """The benchmark's `gate` and `workloads` modules, imported read-only."""
    sys.path.insert(0, BENCH)
    try:
        import gate
        import workloads
    finally:
        sys.path.remove(BENCH)
    return gate, workloads


@pytest.mark.parametrize("workload, seed", CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_no_workload_request_fails_that_passes_today(tmp_path, bench, workload, seed):
    gate, workloads = bench
    reqs = workloads.requests(workload, seed)
    outdirs = [str(tmp_path / f"r{i:02d}") for i in range(len(reqs))]
    codes = [main([*req.argv, "--out", out]) for req, out in zip(reqs, outdirs)]
    verdicts = gate.check_all(reqs, outdirs, codes)
    failed = {i for i, verdict in enumerate(verdicts) if verdict}
    new = {i: (reqs[i].kind, verdicts[i]) for i in failed - FAILING.get((workload, seed), set())}
    assert new == {}
    assert all(workloads.known_defect(reqs[i]) for i in failed)
