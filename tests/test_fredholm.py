import numpy as np
import pytest

from pfkern.families import Charlier
from pfkern.fredholm import (bulk_scaled_gap_comparison, discrete_gap,
                             gap_probability, nystrom_det, sine_gap)
from pfkern.harness import Regime
from pfkern.refkernels import sine_kernel

CH = Regime(kind="charlier", tau=1.0)     # theta = A


def test_trivial_kernel_determinant_one():
    zero = lambda x, y: np.zeros((np.atleast_1d(x).size, np.atleast_1d(y).size))
    val, cert = gap_probability(zero, 0.0, 1.0)
    assert val == 1.0


def test_nystrom_node_doubling_certificate():
    val, cert = sine_gap(1.0)
    assert cert < 1e-10
    # classical value of the sine-kernel gap on [0,1] (unit density)
    assert val == pytest.approx(0.17, abs=0.02)


def test_discrete_gap_in_unit_interval_and_monotone():
    # at u = 2 one site spans rho_site = 0.25 in sine units, from A u = 128 on
    rep = bulk_scaled_gap_comparison(CH, 64, 2.0, [0.1, 0.6, 1.1, 1.6])
    assert [e["points"] for e in rep["entries"]] == [1, 3, 5, 7]
    vals = [e["discrete"] for e in rep["entries"]]
    assert all(0 < v <= 1 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # an interval with no site has gap probability 1
    empty = bulk_scaled_gap_comparison(CH, 64, 2.01, [0.05])["entries"][0]
    assert (empty["points"], empty["discrete"]) == (0, 1.0)


def test_gap_study_builds_one_kernel(monkeypatch):
    # every length reads the head of one K, on the longest interval's sites, from
    # the window route: no wave table
    from pfkern import fredholm, kernels
    monkeypatch.setattr(kernels, "wave_table", lambda *args: pytest.fail("built a wave table"))
    blocks, build = [], fredholm.gram_block
    monkeypatch.setattr(fredholm, "gram_block",
                        lambda *args: blocks.append(args[1:]) or build(*args))
    rep = bulk_scaled_gap_comparison(CH, 64, 2.0, [0.1, 1.6])
    assert [e["points"] for e in rep["entries"]] == [1, 7]
    ((N, beta, sites, route),) = blocks
    assert (N, beta, route) == (64, 2, "window") and np.array_equal(sites, np.arange(128, 135))
    # each determinant is the one on that interval's own sites, and the table's K agrees
    K = build(Charlier(theta=64.0), 64, 2, np.arange(128, 135), "window").K
    assert rep["entries"][0]["discrete"] == discrete_gap(K[:1, :1])
    assert rep["entries"][1]["discrete"] == discrete_gap(K)
    monkeypatch.undo()
    table_K = kernels.oracle_block(Charlier(theta=64.0), 64, 1, np.arange(128, 135)).K
    assert rep["entries"][1]["discrete"] == pytest.approx(discrete_gap(table_K), rel=1e-12)


@pytest.mark.parametrize("regime, A, u", [(CH, 64, 2.0), (Regime(kind="meixner", xi=0.25), 64, 1.0),
                                          (Regime(kind="krawtchouk", gamma=0.25, p=0.4), 64, 0.3)],
                         ids=["charlier", "meixner", "krawtchouk"])
def test_gap_study_builds_the_rows_it_reads(monkeypatch, regime, A, u):
    # rows 0..r-1 at the sites of the longest interval alone, built once
    from pfkern import kernels
    from pfkern.harness import bulk_frame
    from pfkern.kernels import rank_of
    built, rows = [], kernels.window_rows
    monkeypatch.setattr(kernels, "window_rows",
                        lambda *args: built.append(args[1:]) or rows(*args))
    rep = bulk_scaled_gap_comparison(regime, A, u, [0.5, 2.0])
    fam, N, *_ = bulk_frame(regime, A, u)
    lo, points = int(np.ceil(A * u)), max(e["points"] for e in rep["entries"])
    ((n_max, sites),) = built
    assert n_max == rank_of(fam, N) - 1 and np.array_equal(sites, np.arange(lo, lo + points))


def test_bulk_scaled_comparison():
    rep = bulk_scaled_gap_comparison(CH, 256, 3.0, [0.5, 1.0])
    for e in rep["entries"]:
        assert e["rel_diff"] < 0.02
        assert e["sine_certificate"] < 1e-8
