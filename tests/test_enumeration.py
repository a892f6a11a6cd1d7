"""An independent referee for the projection kernels: the beta = 2 ensemble of n
points on a few sites, prod_{i<j} (x_i - x_j)^2 prod_i w(x_i), summed over every
n-subset from the family's log weight alone (no recurrence, table or contour).
Its projection kernel K has rank n, so rho_1(x) = K(x, x), rho_2(x, y) is the
2 x 2 determinant of K, and P(no point in J) = det(I - K) on J."""
import itertools

import numpy as np
import pytest

from pfkern.families import Charlier, Krawtchouk, Meixner
from pfkern.fredholm import discrete_gap
from pfkern.kernels import gram_block, oracle_block, rank_of


def beta2_enumeration(family, n, size, gaps):
    """(rho_1 on 0..size-1, rho_2 on pairs with a zero diagonal, [P(no point in J) for J
    in gaps]) of the n-point beta = 2 ensemble on the sites 0..size-1."""
    conf = np.array(list(itertools.combinations(range(size), n)))
    i, j = np.triu_indices(n, 1)
    log_p = (2 * np.log(conf[:, j] - conf[:, i]).sum(axis=1)
             + family.log_weight(np.arange(size))[conf].sum(axis=1))
    p = np.exp(log_p - log_p.max())
    p /= p.sum()
    rho1 = np.bincount(conf.ravel(), np.repeat(p, n), size)
    rho2 = sum(np.bincount(conf[:, a] * size + conf[:, b], p, size * size)
               for a, b in zip(i, j)).reshape(size, size)
    empty = [p[~np.isin(conf, J).any(axis=1)].sum() for J in gaps]
    return rho1, rho2 + rho2.T, empty


CASES = [(Krawtchouk(M=12, p=0.4), 3, 13), (Charlier(theta=2.0), 3, 40),
         (Meixner(xi=0.3), 1, 40), (Meixner(xi=0.3), 2, 40)]
GAPS = [np.arange(0, 2), np.arange(3, 7), np.array([5])]


@pytest.mark.parametrize("family, N, size", CASES,
                         ids=["krawtchouk-M12-N3", "charlier-N3", "meixner-N1", "meixner-N2"])
def test_oracle_kernel_and_gaps_match_the_enumeration(family, N, size):
    # K from the wave table and from the window rows (no table)
    rho1, rho2, empty = beta2_enumeration(family, rank_of(family, N), size, GAPS)
    sites = np.arange(size)
    for K in (oracle_block(family, N, 4, sites).K, gram_block(family, N, 2, sites, "window").K):
        assert np.max(np.abs(np.diag(K) - rho1)) <= 1e-12
        det2 = np.outer(np.diag(K), np.diag(K)) - K * K.T
        np.fill_diagonal(det2, 0.0)
        assert np.max(np.abs(det2 - rho2)) <= 1e-12
        gaps = [discrete_gap(K[np.ix_(J, J)]) for J in GAPS]
        assert np.max(np.abs(np.subtract(gaps, empty))) <= 1e-12
