"""Tests of the benchmark itself: python3 -m pytest -q bench"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import tracer
import worker
import workloads
from workloads import Request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def modules():
    return worker.import_pfkern()


def _cli(modules):
    return next(m for m in modules if m.__name__ == "pfkern.cli")


def _small_kernel():
    fam = {"family": "krawtchouk", "M": 20, "p": 0.4}
    argv = ("kernel", "--family", "krawtchouk", "--M", "20", "--p", "0.4", "--beta", "4", "--N", "4")
    return Request("kernel", argv, {"family": fam, "beta": 4, "N": 4, "route": "contour"})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_deterministic_per_seed(name):
    def spec(seed):
        return [(r.kind, r.argv, r.params) for r in workloads.requests(name, seed)]
    assert spec(3) == spec(3)
    assert spec(3) != spec(4)
    sizes = {len(workloads.requests(name, s)) for s in range(5)}
    assert len(sizes) == 1


def test_shims_restore_originals(modules):
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    kernels = next(m for m in modules if m.__name__ == "pfkern.kernels")
    harness = next(m for m in modules if m.__name__ == "pfkern.harness")
    original = kernels.oracle_block
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        assert kernels.oracle_block is not original
        assert harness.oracle_block is kernels.oracle_block   # rebound where imported
        assert kernels._assemble_blocks is before[("pfkern.kernels", "_assemble_blocks")]
    finally:
        tr.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_sum_within_traced_wall(modules, tmp_path):
    reqs = [_small_kernel(),
            Request("asym edge", ("asym", "edge", "--family", "charlier", "--tau", "1.0",
                                  "--block", "K", "--A-list", "48,96"))]
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        _, outcomes, _, wall = worker.run_requests(_cli(modules), reqs, str(tmp_path), tr)
    finally:
        tr.restore()
    assert outcomes == [3, 0] or outcomes == [0, 0]
    stats = tracer.layer_stats(tr.spans)
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall
    assert stats["cli.main.calls"] == 2
    assert stats["kernels.adjudicate_composition.calls"] >= 1
    assert tr.counters["reports.bytes_written"] > 0
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(tr.spans))


def test_gate_flags_injected_wrong_answer(modules, tmp_path):
    req = _small_kernel()
    outdir = str(tmp_path / "r00")
    _, outcomes, _, _ = worker.run_requests(_cli(modules), [req], str(tmp_path))
    assert gate.check_all([req], [outdir], outcomes) == [None]

    csv = os.path.join(outdir, "kernel_krawtchouk_b4_N4.csv")
    lines = open(csv).read().splitlines()
    x, y, s, sd, es = lines[5].split(",")
    lines[5] = ",".join([x, y, repr(float(s) * (1 + 1e-6) + 1e-9), sd, es])
    with open(csv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = gate.check_all([req], [outdir], outcomes)[0]
    assert verdict and "S differs" in verdict


def test_gate_flags_wrong_study_value(tmp_path):
    req = Request("asym crossover", ("asym", "crossover"), {"alpha": 1.0})
    (tmp_path / "crossover.json").write_text(json.dumps({"alpha_hat": 1.5}))
    assert "alpha_hat" in gate.check_all([req], [str(tmp_path)], [0])[0]
    assert gate.check_all([req], [str(tmp_path)], ["Traceback\nTypeError: boom"]) == \
        ["raised TypeError: boom"]
    assert gate.check_all([req], [str(tmp_path)], [2]) == ["exit code 2"]


def test_benchmark_json_mirrors_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-asym",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
