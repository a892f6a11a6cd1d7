import numpy as np
import pytest
from scipy.integrate import quad

from pfkern.families import Charlier, Krawtchouk, Meixner
from pfkern.saddles import (EdgeClassification, bulk_support, cos_theta, edge_data,
                            phase_derivative, rho_closed_form, saddle_pair, site_density)

MX = Meixner(xi=0.25, beta_m=1.0)     # s = 1/2
CH = Charlier(theta=32.0)             # tau = 1 at N = 32
KR = Krawtchouk(M=64, p=0.5)          # gamma = 1/2 at N = 32


def test_cos_theta_spot_values():
    assert cos_theta(CH, 2.0, N=32) == pytest.approx(0.0, abs=1e-14)
    assert cos_theta(MX, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert cos_theta(KR, 0.5, N=32) == pytest.approx(0.0, abs=1e-14)


def test_bulk_supports():
    assert bulk_support(MX) == pytest.approx((1 / 3, 3.0), rel=1e-14)
    assert bulk_support(CH, 32) == pytest.approx((0.0, 4.0), abs=1e-14)
    assert bulk_support(KR, 32) == pytest.approx((0.0, 1.0), abs=1e-14)


def test_saddle_residual_and_conjugacy():
    for fam, u, N in ((MX, 1.0, 16), (CH, 2.5, 32), (KR, 0.4, 32)):
        z_plus, z_minus = saddle_pair(fam, u, N)
        assert abs(phase_derivative(fam, z_plus, u, N, 1)) < 1e-12
        assert z_minus == pytest.approx(np.conj(z_plus))


def test_meixner_saddle_product_one():
    z_plus, z_minus = saddle_pair(MX, 1.0, 16)
    assert z_plus * z_minus == pytest.approx(1.0, abs=1e-12)


def test_charlier_saddle_modulus():
    # t_pm = tau^(-1/2) e^(+-i theta) at tau = 1
    z_plus, _ = saddle_pair(CH, 2.0, 32)
    assert abs(z_plus) == pytest.approx(1.0, abs=1e-12)
    assert z_plus == pytest.approx(1j, abs=1e-12)


def test_krawtchouk_saddle_modulus():
    g, p, q = 0.5, 0.5, 0.5
    z_plus, _ = saddle_pair(KR, 0.3, 32)
    assert abs(z_plus) == pytest.approx(np.sqrt(g / (p * q * (1 - g))), rel=1e-12)


def test_density_spot_values():
    rho = rho_closed_form(CH, 2.0, 32)
    assert rho == pytest.approx(1.0 / (2 * np.pi), rel=1e-13)
    rho_m = rho_closed_form(MX, 1.0)
    assert rho_m == pytest.approx(np.sqrt(0.75) / np.pi, rel=1e-12)


@pytest.mark.parametrize("fam,N", [(MX, 16), (CH, 32), (KR, 32)], ids=["mx", "ch", "kr"])
def test_density_integrates_to_one(fam, N):
    from pfkern.saddles import density_total_mass
    assert density_total_mass(fam, N) == pytest.approx(1.0, abs=1e-6)


def test_cos_theta_iff_bulk():
    lo, hi = bulk_support(MX)
    for u in np.linspace(lo + 1e-3, hi - 1e-3, 9):
        assert -1 < cos_theta(MX, u) < 1
    for u in (lo - 0.05, hi + 0.05):
        assert abs(cos_theta(MX, u)) >= 1
        with pytest.raises(EdgeClassification):
            saddle_pair(MX, u)


def test_site_density_vs_kernel_diagonal():
    fam = Charlier(theta=64.0)
    from pfkern.kernels import oracle_block
    x = np.array([128])
    K = oracle_block(fam, 64, 4, x).K
    assert K[0, 0] == pytest.approx(site_density(fam, 2.0, 64), abs=2e-3)


def test_site_density_edges():
    # soft right edge: density vanishes; saturated Meixner left edge: -> 1
    assert site_density(CH, 4.2, 32) == 0.0
    assert site_density(MX, 0.2) == 1.0


def test_argmax_on_admissible_circle():
    # Re(phase) along |z| = |z_+| peaks at the saddle angles
    fam, u, N = CH, 2.5, 32
    z_plus, _ = saddle_pair(fam, u, N)
    r = abs(z_plus)
    ang = np.linspace(0.02, np.pi - 0.02, 720)
    tau = 1.0
    z = r * np.exp(1j * ang)
    phase = u * np.log(1 + z) - tau * z - np.log(z)
    k = np.argmax(phase.real)
    assert ang[k] == pytest.approx(np.angle(z_plus), abs=0.02)


def test_edge_data_charlier():
    ed = edge_data(CH, 32)
    assert ed["u_star"] == pytest.approx(4.0)
    assert ed["z_star"] == pytest.approx(1.0)
    assert ed["kappa"] == pytest.approx(-1.0)
    assert abs(ed["lam"]) == pytest.approx(0.5)


# the phases of the module docstring, written out per family
PHASES = {
    "mx": (MX, 16, 1.0, lambda z, u: np.log(1 - z / MX.s) - np.log(1 - MX.s * z) - u * np.log(z)),
    "ch": (CH, 32, 2.5, lambda z, u: -z + u * np.log(1 + z) - np.log(z)),
    "kr": (Krawtchouk(M=64, p=0.4), 16, 0.4,
           lambda z, u: (1 - u) * np.log(1 + 0.4 * z) + u * np.log(1 - 0.6 * z) - 0.25 * np.log(z)),
}


@pytest.mark.parametrize("key", sorted(PHASES))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_phase_derivative_matches_centred_difference(key, order):
    # each order against a centred difference of the order below; order 0 is
    # the phase as written in the module docstring
    fam, N, u, phase = PHASES[key]
    below = phase if order == 1 else (lambda z, u: phase_derivative(fam, z, u, N, order - 1))
    h = 1e-5
    for z in (0.3 + 0.7j, -0.4 + 0.9j, 1.1 - 0.6j):
        fd = (below(z + h, u) - below(z - h, u)) / (2 * h)
        assert phase_derivative(fam, z, u, N, order) == pytest.approx(fd, rel=1e-7)
