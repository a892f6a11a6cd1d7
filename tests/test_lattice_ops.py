import numpy as np
import pytest

from pfkern.families import (Charlier, Krawtchouk, Meixner, QuadratureError, TruncatedLattice,
                             truncate)
from pfkern.lattice_ops import (apply_d, apply_eps, build_d, build_epsilon_direct,
                                check_mutual_inverse, dump_csv, eps_separable_exponents,
                                interior_window)
from pfkern.wavefunctions import get_table


class ConstantWeight:
    """w == c test weight on a finite window (not a production family)."""

    name = "constant"
    finite = False

    def __init__(self, c=1.0):
        self.c = c

    def log_weight(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.log(self.c))


FAMS = [Charlier(theta=1.0), Meixner(xi=0.25, beta_m=1.0), Krawtchouk(M=60, p=0.4)]


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_apply_d_matches_build_d(fam):
    lat = truncate(fam, 0) if fam.finite else TruncatedLattice(x_max=80)
    v = np.random.default_rng(5).standard_normal((lat.size, 3))
    ref = build_d(fam, lat).mat @ v
    assert np.max(np.abs(apply_d(fam, v) - ref)) < 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(apply_d(fam, v[:, 0]) - ref[:, 0])) < 1e-14 * np.max(np.abs(ref))


def test_d_bandedness():
    # D = D+ - D-: one positive superdiagonal, its negative below, zero elsewhere
    for fam in (Charlier(theta=4.0), *FAMS):
        lat = truncate(fam, 0) if fam.finite else TruncatedLattice(x_max=30)
        d = build_d(fam, lat).mat
        idx = np.arange(lat.x_max)
        band = np.zeros_like(d, dtype=bool)
        band[idx, idx + 1] = True
        band[idx + 1, idx] = True
        assert np.all(d[~band] == 0.0)
        assert np.all(d[idx, idx + 1] > 0)
        assert np.array_equal(d[idx + 1, idx], -d[idx, idx + 1])


def test_dplus_entry_charlier():
    # the D+ half of D is its superdiagonal
    d = build_d(Charlier(theta=1.0), TruncatedLattice(x_max=10)).mat
    # w(0) = w(1) = e^-1 so the first superdiagonal entry is 1
    assert d[0, 1] == pytest.approx(1.0, rel=1e-14)
    assert np.count_nonzero(np.triu(d)) == 10


def test_dminus_first_row_zero():
    # the D- half of D is its subdiagonal, which has nothing in row 0
    for fam in FAMS:
        lat = TruncatedLattice(x_max=20) if not fam.finite else truncate(fam, 0)
        d = build_d(fam, lat).mat
        assert np.all(np.tril(d)[0] == 0.0)


def test_constant_weight_d_is_shift_stencil():
    fam = ConstantWeight(1.0)
    lat = TruncatedLattice(x_max=12)
    d = build_d(fam, lat)
    f = np.sin(0.3 * np.arange(13))
    v = d.mat @ f
    for x in range(1, 12):
        assert v[x] == pytest.approx(f[x + 1] - f[x - 1], abs=1e-14)


def test_constant_weight_epsilon_entries():
    fam = ConstantWeight(1.0)
    lat = TruncatedLattice(x_max=15)
    eps = build_epsilon_direct(fam, lat)
    assert eps.mat[0, 1] == pytest.approx(-1.0)
    assert eps.mat[1, 0] == pytest.approx(1.0)
    for k in range(1, 7):
        assert eps.mat[2, 2 * k + 1] == pytest.approx(-1.0)   # all k >= m
    assert eps.mat[2, 1] == 0.0


def _signed_checkerboard(n):
    # Y(2i, 2j+1) = -1 for j >= i, Y(2i+1, 2j) = +1 for j <= i
    i, j = np.indices((n, n))
    Y = np.where((i % 2 == 0) & (j % 2 == 1) & (j > i), -1.0, 0.0)
    return Y + np.where((i % 2 == 1) & (j % 2 == 0) & (j < i), 1.0, 0.0)


def test_constant_weight_factored_is_upsilon():
    # with w == 1 the factors F are 1 and apply_eps is the signed checkerboard
    eps = apply_eps(ConstantWeight(1.0), np.eye(10))
    assert np.array_equal(eps, _signed_checkerboard(10))


def test_upsilon_pattern():
    Y = apply_eps(ConstantWeight(1.0), np.eye(8))
    assert Y[1, 0] == 1.0 and Y[0, 1] == -1.0
    assert Y[0, 3] == -1.0 and Y[3, 0] == 1.0 and Y[3, 2] == 1.0
    assert np.all(Y + Y.T == 0)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_direct_equals_factored(fam):
    # the defining sums against the factorization as the blocks run it
    lat = truncate(fam, 0) if fam.finite else TruncatedLattice(x_max=80)
    d = build_epsilon_direct(fam, lat).mat
    f = apply_eps(fam, np.eye(lat.size))
    win = interior_window(lat)
    assert np.max(np.abs(d[win, win] - f[win, win])) < 1e-12


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_epsilon_antisymmetric(fam):
    lat = truncate(fam, 0) if fam.finite else TruncatedLattice(x_max=80)
    e = build_epsilon_direct(fam, lat)
    win = interior_window(lat)
    assert np.max(np.abs(e.mat[win, win] + e.mat.T[win, win])) < 1e-10


@pytest.mark.filterwarnings("error")
class GrowingWeight:
    """w(x) = e^(x^2) test weight: its eps entries themselves pass 1e308."""

    def log_weight(self, x):
        return np.asarray(x, dtype=float) ** 2


def test_apply_eps_refuses_overflowing_factors():
    # alpha_m = m and beta_k = k + 1/2 both grow, so no shift brings them into
    # range: a numerical failure rather than a warning and NaN entries
    with pytest.raises(QuadratureError, match="2000 lattice"):
        apply_eps(GrowingWeight(), np.ones(2000))


@pytest.mark.parametrize("fam, x_max", [(Charlier(theta=1536.0), 4000),
                                        (Krawtchouk(M=3072, p=0.4), None)],
                         ids=["charlier-1536", "krawtchouk-3072"])
def test_apply_eps_shifts_chains_that_sit_far_apart(fam, x_max):
    # alpha near -768 and beta near +770 at theta = 1536 (+-785 at M = 3072):
    # exp(alpha) and exp(beta) apart leave the double range, their shifted
    # products do not, and D eps = eps D = 1 holds on the interior window
    alpha, beta = eps_separable_exponents(fam, truncate(fam, x_max or 0).size)
    assert alpha.max() < -709 and beta.max() > 709
    res = check_mutual_inverse(fam, get_table(fam, 20, x_max))
    assert res["interior_residual"] < 1e-12


def test_mutual_inverse_charlier():
    fam = Charlier(theta=1.0)
    tab = get_table(fam, 22, x_max=120)
    res = check_mutual_inverse(fam, tab)
    assert res["interior_residual"] < 1e-8


def test_mutual_inverse_meixner():
    fam = Meixner(xi=0.25, beta_m=1.0)
    tab = get_table(fam, 22, x_max=200)
    res = check_mutual_inverse(fam, tab)
    assert res["interior_residual"] < 1e-8


def test_mutual_inverse_krawtchouk_odd_m():
    # for odd M the lattice difference operator is invertible and the
    # parity-split inverse is exact; see the even-M test below
    fam = Krawtchouk(M=61, p=0.4)
    res = check_mutual_inverse(fam, get_table(fam, 22))
    assert res["interior_residual"] < 1e-8
    assert res["full_residual"] < 1e-8


def test_mutual_inverse_krawtchouk_even_m_boundary_defect():
    # even M makes D a singular (odd-dimension) antisymmetric matrix; the
    # even rows of eps(D phi) then pick up an explicit top-boundary term:
    #   (eps D phi_n)(2m) - phi_n(2m) = -T(m) phi_n(M),
    #   T(m) = sqrt(w(2m)/w(M)) prod_{j=m}^{M/2-1} w(2j+1)/w(2j)
    fam = Krawtchouk(M=60, p=0.4)
    lat = truncate(fam, 0)
    tab = get_table(fam, 22)
    D = build_d(fam, lat).mat
    E = build_epsilon_direct(fam, lat).mat
    lw = fam.log_weight(np.arange(61).astype(float))
    half = 30
    for n in (5, 12, 20):
        defect = E @ (D @ tab.phi[n]) - tab.phi[n]
        for m in (0, 3, 10):
            logT = 0.5 * (lw[2 * m] - lw[60]) + np.sum(lw[2 * m + 1:60:2] - lw[2 * m:60:2])
            pred = -np.exp(logT) * tab.phi[n, 60]
            assert defect[2 * m] == pytest.approx(pred, rel=1e-9, abs=1e-13)
        # odd rows are anchored at the bottom and stay exact
        assert np.max(np.abs(defect[1::2])) < 1e-10


def test_csv_dump(tmp_path):
    fam = Charlier(theta=1.0)
    lat = TruncatedLattice(x_max=6)
    path = tmp_path / "d.csv"
    dump_csv(build_d(fam, lat), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 1 + 2 * 6
