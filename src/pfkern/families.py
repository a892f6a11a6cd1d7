"""Classical discrete weight families: Meixner, Charlier, Krawtchouk.

Each family carries its log weight log w(x) on the integer lattice (Z>=0,
or {0..M} for Krawtchouk) and the Jacobi (three-term recurrence)
coefficients of the monic orthogonal polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# B_2k / (2k (2k - 1)), k = 7..1: Stirling's series in 1/x^(2k-1), highest first
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_LOG_FACTORIAL = np.log(np.cumprod(np.r_[1.0, np.arange(1.0, 12.0)]))   # of the exact k!, k < 12


def log_gamma(x):
    """log Gamma(x) elementwise for x > 0: log (x - 1)! of the exact factorial at the
    integers below 13, elsewhere Stirling's series to the y^-13 term (the next is 8e-16 at 8)
    at y = x + m >= 8, less log(x (x+1) ... (x+m-1)) where x < 8."""
    shape, x = np.shape(x), np.asarray(x, dtype=float).ravel()
    m = np.maximum(np.ceil(8.0 - x), 0.0)
    y = x + m
    out = (y - 0.5) * np.log(y) - y + np.log(2 * np.pi) / 2 + np.polyval(_STIRLING, 1 / (y * y)) / y
    low, j = np.flatnonzero(x < 13), np.arange(8.0)
    out[low] -= np.log(np.where(j < m[low, None], x[low, None] + j, 1.0).prod(axis=1))
    whole = low[(x[low] == np.rint(x[low])) & (x[low] > 0)]
    out[whole] = _LOG_FACTORIAL[x[whole].astype(int) - 1]
    return out.reshape(shape)


@lru_cache(maxsize=16)
def _log_gamma_at(x: float) -> float:
    """log Gamma(x) at one point: a family's normalising constant, which every
    `log_weight` call reads; cached here, not on the family, whose fields the reports write."""
    return float(log_gamma(x))


class DomainError(ValueError):
    """Argument outside the lattice/parameter domain of a family."""


class QuadratureError(RuntimeError):
    """A quadrature result failed its consistency check."""


@dataclass(frozen=True)
class Meixner:
    """Meixner weight w(x) = (beta_m)_x / x! * xi^x on Z>=0."""

    xi: float
    beta_m: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise DomainError(f"Meixner xi must be in (0,1), got {self.xi}")
        if self.beta_m <= 0.0:
            raise DomainError(f"Meixner beta_m must be > 0, got {self.beta_m}")

    @property
    def s(self) -> float:
        return float(np.sqrt(self.xi))

    name = "meixner"
    finite = False

    def log_weight(self, x):
        x = np.asarray(x, dtype=float)
        lg = log_gamma(np.stack([self.beta_m + x, x + 1]))     # one call for both arrays
        return lg[0] - _log_gamma_at(self.beta_m) - lg[1] + x * np.log(self.xi)

    def jacobi(self, n):
        """Monic recurrence p_{n+1} = (x - a_n) p_n - b_n^2 p_{n-1}."""
        n = np.asarray(n, dtype=float)
        a = (n * (1 + self.xi) + self.beta_m * self.xi) / (1 - self.xi)
        b2 = self.xi * n * (n + self.beta_m - 1) / (1 - self.xi) ** 2
        return a, b2


@dataclass(frozen=True)
class Charlier:
    """Charlier (Poisson) weight w(x) = e^-theta theta^x / x! on Z>=0."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < np.inf:
            raise DomainError(f"Charlier theta must be finite and > 0, got {self.theta}")

    name = "charlier"
    finite = False

    def log_weight(self, x):
        x = np.asarray(x, dtype=float)
        return -self.theta + x * np.log(self.theta) - log_gamma(x + 1)

    def jacobi(self, n):
        n = np.asarray(n, dtype=float)
        return n + self.theta, n * self.theta


@dataclass(frozen=True)
class Krawtchouk:
    """Krawtchouk weight w(x) = C(M,x) p^x q^(M-x) on {0,...,M}."""

    M: int
    p: float

    def __post_init__(self):
        if self.M < 0 or int(self.M) != self.M:
            raise DomainError(f"Krawtchouk M must be a nonnegative integer, got {self.M}")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"Krawtchouk p must be in (0,1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    name = "krawtchouk"
    finite = True

    def log_weight(self, x):
        x = np.asarray(x, dtype=float)
        lg = log_gamma(np.stack([x + 1, self.M - x + 1]))
        return (_log_gamma_at(self.M + 1.0) - lg[0] - lg[1]
                + x * np.log(self.p) + (self.M - x) * np.log(self.q))

    def jacobi(self, n):
        n = np.asarray(n, dtype=float)
        a = self.p * (self.M - n) + n * self.q
        b2 = n * self.p * self.q * (self.M - n + 1)
        return a, b2


@dataclass(frozen=True)
class TruncatedLattice:
    """Window {0..x_max} carrying enough l2 mass of sqrt(w) for the tests.

    Invariant: discarded tail mass of w is below 1e-14 relative to the
    retained mass (exact lattice for Krawtchouk).
    """

    x_max: int

    @property
    def size(self) -> int:
        return self.x_max + 1

    def grid(self):
        return np.arange(self.x_max + 1)


def truncate(family, x_min: int) -> TruncatedLattice:
    """Smallest window {0..x_max}, x_max >= x_min, with w(x_max) below 1e-16 of the peak and
    tail mass < 1e-14, found by doubling a search window; each doubling weighs only new sites."""
    if family.finite:
        return TruncatedLattice(x_max=family.M)
    block = 256
    x_hi = max(x_min, block)
    lw = family.log_weight(np.arange(x_hi + 1))
    while True:
        peak = lw.max()
        w = np.exp(lw - peak)
        csum = np.cumsum(w)
        total = csum[-1]
        # geometric tail certificate: ratio of last consecutive weights < 1
        ratio = np.exp(lw[-1] - lw[-2])
        if ratio < 1.0:
            tail = w[-1] * ratio / (1 - ratio)
            small = np.nonzero((w < 1e-16) & ((total - csum + tail) < 1e-14 * csum))[0]
            small = small[small >= x_min]
            if small.size:
                return TruncatedLattice(x_max=int(small[0]))
        if x_hi > 10_000_000:
            raise DomainError("truncation search failed; weight decays too slowly")
        lw = np.concatenate([lw, family.log_weight(np.arange(x_hi + 1, 2 * x_hi + 1))])
        x_hi *= 2
