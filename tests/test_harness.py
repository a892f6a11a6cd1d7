import numpy as np
import pytest

from pfkern.families import Meixner, truncate
from pfkern.harness import (Regime, bulk_convergence_test, coalescence_exponent,
                            correction_extract, crossover_test, edge_convergence_test)
from pfkern.kernels import crossover_block, oracle_lattice
from pfkern.lattice_ops import apply_eps
from pfkern.wavefunctions import wave_table

CH = Regime(kind="charlier", tau=1.0)
KR = Regime(kind="krawtchouk", gamma=0.25, p=0.4)


def test_bulk_beta1_charlier_small():
    rep = bulk_convergence_test(CH, 1, 2.0, [24, 48])
    for e in rep["entries"]:
        assert abs(e["c_fit"] - 1) < 0.1
    assert rep["entries"][1]["sup_err_fitted"] < rep["entries"][0]["sup_err_fitted"]


def test_bulk_rank_one_shares_the_oracle_table(monkeypatch):
    from pfkern import kernels
    builds = []
    build = kernels.wave_table
    monkeypatch.setattr(kernels, "wave_table",
                        lambda *args: builds.append(args[1]) or build(*args))
    bulk_convergence_test(CH, 1, 2.0, [24, 48])
    assert len(builds) == 2   # one wave table per A
    # K and the rank-one term of the edge study come from the same block
    builds.clear()
    edge_convergence_test(CH, 1, [48, 96, 192], block="K")
    assert len(builds) == 3


def test_beta4_projection_applies_eps_to_one_row(monkeypatch):
    # K is the same at either beta, so a beta = 4 K request reads it off the
    # beta = 1 block, whose Gram applies eps to one row, not to all r
    from pfkern import kernels
    shapes, apply = [], kernels.apply_eps
    monkeypatch.setattr(kernels, "apply_eps",
                        lambda fam, v: shapes.append(v.shape) or apply(fam, v))
    rep = bulk_convergence_test(CH, 4, 2.0, [24, 48], block="K")
    assert len(shapes) == 2 and all(shape[1] == 1 for shape in shapes)
    rep1 = bulk_convergence_test(CH, 1, 2.0, [24, 48], block="K")
    assert rep["entries"] == [{k: v for k, v in e.items() if k != "rank_one_sup"}
                              for e in rep1["entries"]]


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


SWEEP_FIELDS = {"c_fit", "sup_err_fitted", "sup_err_raw", "diag_err", "rank_one_sup"}


def test_bulk_entries_keep_their_recorded_values():
    # recorded before the bulk and edge studies shared one sweep
    rep = bulk_convergence_test(CH, 1, 2.0, [24, 48])
    recorded = [(24, 0.9966296524720533, 0.17559763057444, 0.17837615306226684,
                 0.11309517670747564),
                (48, 0.9967046497098376, 0.11601415759129896, 0.11233650001325524,
                 0.07534968729510715)]
    for e, (A, c, err, raw, rank_one) in zip(rep["entries"], recorded):
        assert (e["A"], e["N"], e["rho_site"]) == (A, A, 0.25)
        assert (e["c_fit"], e["sup_err_fitted"], e["sup_err_raw"], e["diag_err"],
                e["rank_one_sup"]) == pytest.approx((c, err, raw, raw, rank_one), rel=1e-12)
    assert rep["slope"] == pytest.approx(-0.5979725050650304, rel=1e-12)
    assert set(rep["entries"][0]) == SWEEP_FIELDS | {"A", "N", "rho_site"}


def test_edge_entries_keep_their_recorded_values():
    rep = edge_convergence_test(CH, 1, [48, 96], block="K")
    recorded = [(48, 5.768998281229633, 0.9863701542676606, 0.02008938835710669,
                 0.1749020982262676),
                (96, 7.268482371328558, 0.9874651416272551, 0.01549896512640922,
                 0.1706716415088278)]
    for e, (A, c_A, c, err, rank_one) in zip(rep["entries"], recorded):
        assert e["A"] == A
        assert (e["c_A"], e["c_fit"], e["sup_err_fitted"], e["rank_one_sup"]) \
            == pytest.approx((c_A, c, err, rank_one), rel=1e-12)
    assert rep["monotone_decreasing"] and rep["u_star"] == 4.0
    assert set(rep["entries"][0]) == SWEEP_FIELDS | {"A", "c_A"}


def test_bulk_and_edge_reports_carry_the_sweep_summary():
    bulk = bulk_convergence_test(CH, 4, 2.0, [24, 48], block="K")
    edge = edge_convergence_test(CH, 4, [48, 96], block="K")
    for rep in (bulk, edge):
        assert {"beta", "block", "entries", "slope", "monotone_decreasing"} <= set(rep)
        assert rep["block"] == "K" and np.isfinite(rep["slope"])
        for e in rep["entries"]:
            assert "rank_one_sup" not in e and SWEEP_FIELDS - {"rank_one_sup"} <= set(e)
            assert e["diag_err"] <= e["sup_err_raw"]
    # the sweep's slope is that of the fitted errors in A
    errs = [e["sup_err_fitted"] for e in edge["entries"]]
    assert edge["slope"] == pytest.approx(np.log(errs[1] / errs[0]) / np.log(2), rel=1e-9)


def test_coalescence_square_root():
    assert coalescence_exponent(CH) == pytest.approx(0.5, abs=0.05)
    assert coalescence_exponent(KR) == pytest.approx(0.5, abs=0.05)
    assert coalescence_exponent(Regime(kind="meixner", xi=0.25)) == pytest.approx(0.5, abs=0.05)
    # the edge report carries it
    rep = edge_convergence_test(CH, 1, [48, 96], block="K")
    assert rep["coalescence_exponent"] == coalescence_exponent(CH)


def test_correction_extract_beta1_two_basis():
    rep = correction_extract(CH, 1, 2.0, [48, 96])
    assert rep["relative_residual"] < 0.3
    # the density-gradient term matches its saddle prediction rho'/(2 rho^2),
    # which is -2/pi in closed form at tau = 1, u = 2
    assert rep["gradient_hat"] == pytest.approx(rep["gradient_predicted"], rel=0.05)
    assert rep["gradient_predicted"] == pytest.approx(-2 / np.pi, rel=1e-6)


def test_crossover_beta4_block_matches_doubled_lattice():
    # E = G^-1 on contour rows against the oracle's Gram sandwich, E = Phi eps(Phi)^T
    # with the lattice eps, on a lattice twice the default length, which is itself
    # off by up to 5e-5 as xi -> 1
    xs = np.arange(41)
    for xi in (0.25, 0.64, 0.81, 0.9, 1 - 1 / 32):
        fam = Meixner(xi=xi)
        S = crossover_block(fam, 8, xs, 4, "S")
        lattice = truncate(fam, x_min=2 * oracle_lattice(fam, 8, xs).x_max)
        phi = wave_table(fam, 15, lattice).phi      # rows 0..r-1, r = 2N = 16
        S_ref = phi[:, xs].T @ (phi @ apply_eps(fam, phi.T)) @ phi[:, xs]
        assert np.max(np.abs(S - S_ref)) < 1e-11 * np.max(np.abs(S_ref))


def test_crossover_small():
    rep = crossover_test(1.0, [12, 24], beta=1, block="K")
    errs = [e["err_vs_bessel_index0"] for e in rep["entries"]]
    assert errs[1] < errs[0]
    assert abs(rep["alpha_hat"] - 1.0) <= 0.2


@pytest.mark.parametrize("alpha, alpha_hat, entries", [
    (0.5, 0.5125, [(16, 1.076981851908662, 1.0049700714718373, 0.23065935339386126,
                    0.008349172373613746),
                   (32, 1.076574436216593, 1.0041450597432704, 0.2285619717421641,
                    0.006370875882995338)]),
    (1.05, 1.05, [(16, 1.056187794606566, 1.012620337460132, 0.3467074098467111,
                   0.026431877603338084),
                  (32, 1.0560740423118127, 1.0113026249832133, 0.3425110676471516,
                   0.022409936111600772)])])
def test_crossover_fits_keep_their_recorded_values(alpha, alpha_hat, entries):
    # block K of the hard-edge crossover, recorded from per-degree contour
    # extraction and one Bessel kernel call per offset: the recovered rate and
    # the offsets stay, amplitudes and errors move by roundoff only
    rep = crossover_test(alpha, [16, 32], block="K")
    assert rep["alpha_hat"] == alpha_hat
    for e, (N, amp, amp0, err, err0) in zip(rep["entries"], entries):
        assert e["N"] == N and e["offset_index0"] == 0.5
        assert (e["amp"], e["amp_index0"], e["err_vs_bessel_alpha"], e["err_vs_bessel_index0"]) \
            == pytest.approx((amp, amp0, err, err0), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_grid_resample_matches_regular_grid_interpolator(seed):
    # the numpy bilinear resample against scipy's, extrapolation included:
    # the window nodes are floored sites, the grid reaches past both ends
    from scipy.interpolate import RegularGridInterpolator
    from pfkern.harness import DEFAULT_GRID, _grid_resample
    rng = np.random.default_rng(seed)
    A, u, rho = 96, rng.uniform(0.5, 2.5), rng.uniform(0.2, 0.8)
    seff = (np.unique(np.floor(A * u + DEFAULT_GRID / rho)) - A * u) * rho
    R = rng.normal(size=(seff.size, seff.size))
    for grid in (DEFAULT_GRID, np.linspace(-3.0, 3.0, 13)):
        f = RegularGridInterpolator((seff, seff), R, bounds_error=False, fill_value=None)
        ref = f(np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2))
        ref = ref.reshape(grid.size, grid.size)
        assert np.max(np.abs(_grid_resample(seff, R, grid) - ref)) <= 1e-14 * np.max(np.abs(ref))
