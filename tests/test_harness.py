import numpy as np
import pytest

from pfkern.families import Charlier, Meixner, truncate
from pfkern.harness import (Regime, _crossover_block, bulk_convergence_test,
                            coalescence_exponent, correction_dictionary,
                            correction_extract, crossover_test, edge_convergence_test,
                            eps_dictionary_closed_form)
from pfkern.kernels import oracle_block, oracle_lattice
from pfkern.saddles import saddle_solve
from pfkern.symbols import universal_symbol

CH = Regime(kind="charlier", tau=1.0)
KR = Regime(kind="krawtchouk", gamma=0.25, p=0.4)


def test_bulk_beta1_charlier_small():
    rep = bulk_convergence_test(CH, 1, 2.0, [24, 48])
    for e in rep["entries"]:
        assert abs(e["c_fit"] - 1) < 0.1
    assert rep["entries"][1]["sup_err_fitted"] < rep["entries"][0]["sup_err_fitted"]


def test_bulk_rank_one_shares_the_oracle_table():
    from pfkern.wavefunctions import _cached_table
    _cached_table.cache_clear()
    bulk_convergence_test(CH, 1, 2.0, [24, 48])
    assert _cached_table.cache_info().misses == 2   # one wave table per A


def test_bulk_diag_within_error():
    rep = bulk_convergence_test(CH, 1, 2.0, [48])
    e = rep["entries"][0]
    assert e["diag_err"] <= e["sup_err_raw"] + 1e-12


def test_bulk_beta4_scalar_documents_shape_failure():
    # K eps K is antisymmetric: its least-squares sine amplitude is ~0 and
    # no constant makes it sine-shaped; the harness must report that rather
    # than blow up
    rep = bulk_convergence_test(CH, 4, 2.0, [24, 48])
    for e in rep["entries"]:
        assert abs(e["c_fit"]) < 0.05
        assert e["sup_err_raw"] > 0.5


def test_edge_monotone_on_projection():
    rep = edge_convergence_test(CH, 1, [48, 96, 192], block="K")
    errs = [e["sup_err_fitted"] for e in rep["entries"]]
    assert rep["monotone_decreasing"]
    assert errs[-1] < 0.02
    assert abs(rep["entries"][-1]["c_fit"] - 1) < 0.05


def test_coalescence_square_root():
    assert coalescence_exponent(CH) == pytest.approx(0.5, abs=0.05)
    assert coalescence_exponent(KR) == pytest.approx(0.5, abs=0.05)


def test_correction_dictionary_closed_forms():
    bp = saddle_solve(Charlier(theta=48.0), 2.0, 48)
    # universal symbols on the unit circle (Charlier tau=1 saddles are e^+-i theta)
    M = lambda w: universal_symbol("eps", w)
    h = 1e-7
    Mp = lambda w: (M(w + h) - M(w - h)) / (2 * h)
    d = correction_dictionary(bp, M, Mp)
    cf = eps_dictionary_closed_form(bp.theta)
    assert d["Q0"] == pytest.approx(cf["Q0"], abs=1e-6)
    assert d["Qa"] == pytest.approx(cf["Qa"], abs=1e-5)
    assert d["Qb"] == pytest.approx(np.conj(d["Qa"]), abs=1e-12)


def test_dictionary_at_right_angle():
    cf = eps_dictionary_closed_form(np.pi / 2)
    assert cf["Q0"] == pytest.approx(0.0, abs=1e-12)
    assert cf["Qa"] == pytest.approx(-0.25)
    assert cf["Qb"] == pytest.approx(-0.25)


def test_correction_extract_beta1_two_basis():
    rep = correction_extract(CH, 1, 2.0, [48, 96])
    assert rep["relative_residual"] < 0.3
    # the density-gradient term matches its saddle prediction rho'/(2 rho^2),
    # which is -2/pi in closed form at tau = 1, u = 2
    assert rep["gradient_hat"] == pytest.approx(rep["gradient_predicted"], rel=0.05)
    assert rep["gradient_predicted"] == pytest.approx(-2 / np.pi, rel=1e-6)


def test_crossover_beta4_block_matches_doubled_lattice():
    # E = G^-1 on contour rows against the oracle on a lattice twice the
    # default length, which is itself off by up to 5e-5 as xi -> 1
    xs = np.arange(41)
    for xi in (0.25, 0.64, 0.81, 0.9, 1 - 1 / 32):
        fam = Meixner(xi=xi)
        S = _crossover_block(fam, 8, xs, 4, "S")
        lattice = truncate(fam, x_min=2 * oracle_lattice(fam, 8, xs).x_max)
        S_ref = oracle_block(fam, 8, 4, xs, lattice=lattice).S
        assert np.max(np.abs(S - S_ref)) < 1e-11 * np.max(np.abs(S_ref))


def test_crossover_small():
    rep = crossover_test(1.0, [12, 24], beta=1, block="K", x_top=30)
    errs = [e["err_vs_bessel_index0"] for e in rep["entries"]]
    assert errs[1] < errs[0]
    assert abs(rep["alpha_hat"] - 1.0) <= 0.2
