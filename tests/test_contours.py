import numpy as np
import pytest

from pfkern.contours import ContourSpec, ContractError
from pfkern.families import Charlier, Krawtchouk, Meixner, truncate
from pfkern.lattice_ops import build_d, build_epsilon_direct
from pfkern.symbols import (charlier_w_map, contour_image, default_contour,
                            eps_phi_via_contour, inverse_eps_symbol, meixner_G,
                            ratio_map, symbol)
from pfkern.wavefunctions import get_table


def test_contour_spec_validation():
    with pytest.raises(ContractError):
        ContourSpec(radius=0.5, node_count=100)
    with pytest.raises(ContractError):
        ContourSpec(radius=-1.0)


def test_meixner_G_values():
    s = np.sqrt(0.5)
    assert meixner_G(0, 0.9 + 0j, s) == pytest.approx(1.0)
    assert meixner_G(1, 1.0 + 0j, s) == pytest.approx(1.0)
    for m in (1, 2, 5):
        assert meixner_G(m, s + 0j, s) == 0.0


def test_symbol_identities_on_grid():
    # Charlier t-plane: D * eps == 1; Meixner: D * eps == 1/w;
    # Krawtchouk: m_K (R^2 - 1) == 1 and D * m_K == 1/R
    rng = np.random.default_rng(7)
    z = 0.3 + 0.5 * rng.random(100) * np.exp(2j * np.pi * rng.random(100))
    ch = Charlier(theta=1.0)
    assert np.max(np.abs(symbol(ch, "D", z) * symbol(ch, "eps", z) - 1.0)) < 1e-14
    mx = Meixner(xi=0.5, beta_m=1.0)
    assert np.max(np.abs(symbol(mx, "D", z) * symbol(mx, "eps", z) - 1.0 / z)) < 1e-14
    kr = Krawtchouk(M=60, p=0.4)
    r = ratio_map(kr, z)
    assert np.max(np.abs(symbol(kr, "eps", z) * (r * r - 1.0) - 1.0)) < 1e-14
    assert np.max(np.abs(symbol(kr, "D", z) * symbol(kr, "eps", z) - 1.0 / r)) < 1e-14


def test_meixner_eps_symbol_at_zero():
    mx = Meixner(xi=0.5, beta_m=1.0)
    assert symbol(mx, "eps", np.array([1e-9 + 0j])) == pytest.approx(-1.0, abs=1e-8)


def test_inverse_eps_symbol_is_reciprocal_of_shift_difference():
    # (shift - shift^{-1}) * inverse_eps == 1 in the shift variable
    z = 0.4 * np.exp(2j * np.pi * np.linspace(0, 1, 37, endpoint=False))
    ch = Charlier(theta=2.0)
    d = (1 + z) - 1 / (1 + z)
    assert np.max(np.abs(d * inverse_eps_symbol(ch, z) - 1)) < 1e-14
    kr = Krawtchouk(M=30, p=0.3)
    r = ratio_map(kr, z)
    assert np.max(np.abs((r - 1 / r) * inverse_eps_symbol(kr, z) - 1)) < 1e-14
    mx = Meixner(xi=0.25, beta_m=1.0)
    d = (1 / z - z) / mx.s
    assert np.max(np.abs(d * inverse_eps_symbol(mx, z) - 1)) < 1e-14


def test_charlier_w_map():
    t, jac = charlier_w_map(1.0, 1.0 + 0j)
    assert t == pytest.approx(0.0)
    assert jac == pytest.approx(1.0)
    t, _ = charlier_w_map(1.0, 1j)
    assert t == pytest.approx(1j)
    t, jac = charlier_w_map(4.0, 1.0 + 0j)
    assert jac == pytest.approx(2.0)


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Krawtchouk(M=60, p=0.4)],
                         ids=lambda f: f.name)
def test_phi_contour_matches_recurrence(fam):
    tab = get_table(fam, 16, x_max=40 if not fam.finite else None)
    for n in (0, 1, 5, 15):
        xs = np.arange(0, 41)
        vals = contour_image(fam, n, xs)
        assert np.max(np.abs(vals - tab.phi[n, :41])) < 1e-9


def test_phi_contour_matches_recurrence_meixner():
    fam = Meixner(xi=0.25, beta_m=1.0)
    tab = get_table(fam, 16, x_max=40)
    for n in (0, 1, 7, 15):
        xs = np.arange(0, 41)
        vals = contour_image(fam, n, xs)
        assert np.max(np.abs(vals - tab.phi[n, :41])) < 1e-9


def test_meixner_beta2_contour_rejected():
    with pytest.raises(ContractError):
        contour_image(Meixner(xi=0.5, beta_m=2.0), 1, 3)


def test_radius_independence():
    fam = Charlier(theta=1.0)
    a = contour_image(fam, 6, 11, ContourSpec(radius=0.3))
    b = contour_image(fam, 6, 11, ContourSpec(radius=0.8))
    assert a == pytest.approx(b, abs=1e-10)


def test_charlier_phi0_contour_residue():
    # integrand e^{-theta t}/t has residue 1, so phi_0(x) = sqrt(w(x)/h_0)
    fam = Charlier(theta=1.0)
    from pfkern.families import weight
    for x in (0, 3, 9):
        assert contour_image(fam, 0, x) == pytest.approx(
            np.sqrt(weight(fam, x)), rel=1e-10)


@pytest.mark.parametrize("fam", [Charlier(theta=1.0), Meixner(xi=0.25, beta_m=1.0),
                                 Krawtchouk(M=60, p=0.4)], ids=lambda f: f.name)
def test_eps_phi_contour_vs_lattice(fam):
    lat = truncate(fam) if fam.finite else None
    if lat is None:
        from pfkern.families import TruncatedLattice
        lat = TruncatedLattice(x_max=160)
    tab = get_table(fam, 12, x_max=lat.x_max if not fam.finite else None)
    eps = build_epsilon_direct(fam, lat).mat
    d = build_d(fam, lat).mat
    half = lat.x_max // 2
    for n in (0, 3, 8):
        truth = eps @ tab.phi[n, : lat.size]
        vals = eps_phi_via_contour(fam, n, np.arange(half + 1))
        assert np.max(np.abs(vals - truth[: half + 1])) < 1e-8
        # D applied to the contour image reproduces phi_n
        full = eps_phi_via_contour(fam, n, np.arange(lat.size))
        rec = d @ full
        assert np.max(np.abs(rec[:half] - tab.phi[n, :half])) < 1e-8


@pytest.mark.parametrize("orientation", [1, -1])
def test_meixner_extraction_matches_defining_sum(orientation):
    # contour_image's FFT against sum_j core_j w_j z_j^-(x+1), sites beyond
    # the node count included (they alias onto x mod n in both)
    fam = Meixner(xi=0.36, beta_m=1.0)
    spec = ContourSpec(radius=0.8, node_count=64, orientation=orientation)
    z = spec.nodes()
    w = spec.weights(z)
    s, n = fam.s, 5
    core = np.sqrt(1 - s * s) / (1 - s * z) * ((z - s) / (1 - s * z)) ** n
    xs = np.array([0, 1, 7, 62, 63, 64, 65, 130, 200])
    terms = np.array([core * w * z ** (-(x + 1.0)) for x in xs])
    ref = terms.sum(axis=1).real
    got = contour_image(fam, n, xs, spec)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(terms).sum(axis=1))
    if orientation == 1:
        # below the node count the sum is the wave function itself
        tab = get_table(fam, n + 1, x_max=40)
        assert np.max(np.abs(got[:3] - tab.phi[n, xs[:3]])) < 1e-12


def test_meixner_extraction_memory_is_linear():
    # xi = 0.99 takes 16384 nodes; a sites x nodes array would need 9.5 GB
    import tracemalloc
    fam = Meixner(xi=0.99, beta_m=1.0)
    tracemalloc.start()
    try:
        vals = contour_image(fam, 3, np.arange(36368))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (36368,) and np.all(np.isfinite(vals))
    assert peak < 64 * 2 ** 20
