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
    val, cert = sine_gap(1.0, tol=1e-12)
    assert cert < 1e-12
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


def test_gap_study_builds_one_table(monkeypatch):
    # every length reads the rows of one table, on the longest interval's lattice
    from pfkern import wavefunctions
    builds = []
    build = wavefunctions.wave_table
    monkeypatch.setattr(wavefunctions, "wave_table",
                        lambda *args: builds.append(args[2]) or build(*args))
    rep = bulk_scaled_gap_comparison(CH, 64, 2.0, [0.1, 1.6])
    assert [e["points"] for e in rep["entries"]] == [1, 7]
    assert len(builds) == 1 and builds[0].x_max >= 134
    # each determinant is the one on that interval's own sites
    phi = wavefunctions.get_table(Charlier(theta=64.0), 65, 135).phi[:64]
    assert rep["entries"][0]["discrete"] == discrete_gap(phi, np.arange(128, 129))
    assert rep["entries"][1]["discrete"] == discrete_gap(phi, np.arange(128, 135))


def test_bulk_scaled_comparison():
    rep = bulk_scaled_gap_comparison(CH, 256, 3.0, [0.5, 1.0])
    for e in rep["entries"]:
        assert e["rel_diff"] < 0.02
        assert e["sine_certificate"] < 1e-8
