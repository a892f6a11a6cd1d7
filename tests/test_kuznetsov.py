from functools import partial

import numpy as np
import pytest

from pfkern.families import Charlier, DomainError, Krawtchouk, Meixner
from pfkern.kernels import compose_columns, default_window, gram_block, oracle_block
from pfkern.kuznetsov import (GaussianTest, branch_jump, edge_ratio_report, m_h,
                              m_h_numeric, reality_symmetry_check, spliced_oracle,
                              spliced_s4)
from pfkern.harness import Regime
from pfkern.symbols import contour_rows, eps_multiplier


def spliced_s1(fam, N, test):
    """K + (1/2) phi_a (x) (T_h eps phi_b): the beta = 1 block over the table
    rows with the spliced multiplier as its eps."""
    return gram_block(fam, N, 1, default_window(fam, N), "oracle",
                      eps_multiplier(fam, partial(m_h, test)))


def test_gaussian_closed_form_values():
    g = GaussianTest(sigma=1.0)
    assert m_h(g, 1.0 + 0j) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    assert m_h(g, np.e + 0j) == pytest.approx(np.sqrt(np.pi) / np.e, rel=1e-14)


def test_numeric_matches_closed_form_on_sector():
    g = GaussianTest(sigma=1.0)
    rng = np.random.default_rng(11)
    r = 0.5 + 1.5 * rng.random(50)
    ph = (2 * rng.random(50) - 1) * 3 * np.pi / 4
    w = r * np.exp(1j * ph)
    rel = np.max(np.abs(m_h_numeric(g, w) - m_h(g, w)) / np.abs(m_h(g, w)))
    assert rel < 1e-8


def test_reality_and_reflection():
    rep = reality_symmetry_check(GaussianTest(sigma=1.0))
    assert rep["max_imag_unit_circle"] < 1e-10
    assert rep["reflection_defect"] < 1e-10


def test_real_positive_axis_real():
    g = GaussianTest(sigma=3.0)
    assert abs(m_h(g, 2.5 + 0j).imag) < 1e-14


def test_branch_cut_rejected():
    with pytest.raises(DomainError):
        m_h(GaussianTest(sigma=1.0), -0.5 + 0j)


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Krawtchouk(M=60, p=0.4),
                                 Meixner(xi=0.25, beta_m=1.0)], ids=lambda f: f.name)
def test_spliced_contour_vs_oracle(fam):
    test = GaussianTest(sigma=2.0)
    blk = spliced_s4(fam, 6, test, default_window(fam, 6))
    orc = spliced_oracle(fam, 6, test, default_window(fam, 6))
    rel = np.max(np.abs(blk.S - orc.S)) / np.max(np.abs(orc.S))
    assert rel < 1e-6


def test_spliced_block_antisymmetry():
    # even/reality symmetry of the test keeps the spliced scalar block
    # antisymmetric up to the boundary-kernel defect measured unspliced
    fam = Charlier(theta=1.0)
    blk = spliced_s4(fam, 6, GaussianTest(sigma=2.0), default_window(fam, 6))
    defect = np.max(np.abs(blk.S + blk.S.T)) / np.max(np.abs(blk.S))
    assert defect < 1.5   # reported, not hidden: the realization is not eps


def test_constant_limit():
    # sigma -> infinity: m_h -> sqrt(pi/sigma), so the spliced block deforms
    # continuously to sqrt(pi/sigma) times the unspliced realization
    fam, N = Charlier(theta=1.0), 6
    window = default_window(fam, N)
    base = compose_columns(fam, N, window).S
    rels = []
    for sigma in (1e2, 1e4, 1e6):
        scale = np.sqrt(np.pi / sigma)
        spl = spliced_s4(fam, N, GaussianTest(sigma=sigma), window).S
        rels.append(np.max(np.abs(spl - scale * base)) / (scale * np.max(np.abs(base))))
    assert np.all(np.diff(rels) < 0)
    assert rels[-1] < 1e-4


def test_spliced_s1_rank_one():
    fam = Charlier(theta=1.0)
    blk = spliced_s1(fam, 6, GaussianTest(sigma=2.0))
    K = oracle_block(fam, 6, 4, blk.xs).K
    sv = np.linalg.svd(blk.S - K, compute_uv=False)
    assert sv[1] < 1e-8 * sv[0]


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Krawtchouk(M=60, p=0.4),
                                 Meixner(xi=0.25, beta_m=1.0)], ids=lambda f: f.name)
def test_spliced_s1_matches_window_formula(fam):
    # K + (1/2) phi_a (x) (T_h eps phi_b), the image taken on the window only
    from pfkern.kernels import beta1_indices
    from pfkern.wavefunctions import get_table
    N, test = 6, GaussianTest(sigma=2.0)
    xs = default_window(fam, N)
    a, b = beta1_indices(fam, N)
    image = contour_rows(fam, [b], xs, eps_multiplier(fam, partial(m_h, test)))[0]
    phi_a = get_table(fam, a + 1, None if fam.finite else int(xs[-1])).phi[a, xs]
    ref = oracle_block(fam, N, 4, xs).K + 0.5 * np.outer(phi_a, image)
    blk = spliced_s1(fam, N, test)
    assert np.array_equal(blk.xs, xs)
    assert np.max(np.abs(blk.S - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_spliced_s1_constant_limit():
    fam = Charlier(theta=1.0)
    sigma = 1e6
    blk = spliced_s1(fam, 6, GaussianTest(sigma=sigma))
    K = oracle_block(fam, 6, 4, blk.xs).K
    spliced_r1 = blk.S - K
    from pfkern.wavefunctions import get_table
    tab = get_table(fam, 8, x_max=int(blk.xs[-1]))
    base = 0.5 * np.outer(tab.phi[6, blk.xs],
                          contour_rows(fam, [5], blk.xs, eps_multiplier(fam))[0])
    rel = np.max(np.abs(spliced_r1 - np.sqrt(np.pi / sigma) * base))
    assert rel < 1e-4 * np.sqrt(np.pi / sigma) * np.max(np.abs(base)) + 1e-12


def test_branch_jump_recorded():
    j = branch_jump(GaussianTest(sigma=2.0), 0.5)
    assert j > 0   # circles cross the cut; the jump is measured, not hidden


def test_edge_ratio_small_scale():
    rep = edge_ratio_report(Regime(kind="charlier", tau=1.0),
                            GaussianTest(sigma=2.0), A=48)
    assert rep["predicted_ratio"] == pytest.approx(np.sqrt(np.pi / 2), rel=1e-10)
    assert rep["rel_diff"] < 0.15


def test_edge_ratio_pins_the_spliced_circles():
    # m_h has a branch cut that the extraction circles cross, so this value
    # moves if the radii or node counts of `default_contour` do
    rep = edge_ratio_report(Regime(kind="charlier", tau=1.0),
                            GaussianTest(sigma=2.0), A=96)
    assert rep["measured_ratio"] == pytest.approx(1.2917296127151738, rel=1e-12)
