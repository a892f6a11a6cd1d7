"""Classical discrete weight families: Meixner, Charlier, Krawtchouk.

Each family carries its log weight log w(x) on the integer lattice (Z>=0,
or {0..M} for Krawtchouk) and the Jacobi (three-term recurrence)
coefficients of the monic orthogonal polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


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
        return (gammaln(self.beta_m + x) - gammaln(self.beta_m)
                - gammaln(x + 1) + x * np.log(self.xi))

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
        if self.theta <= 0.0:
            raise DomainError(f"Charlier theta must be > 0, got {self.theta}")

    name = "charlier"
    finite = False

    def log_weight(self, x):
        x = np.asarray(x, dtype=float)
        return -self.theta + x * np.log(self.theta) - gammaln(x + 1)

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
        return (gammaln(self.M + 1) - gammaln(x + 1) - gammaln(self.M - x + 1)
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


def truncate(family, x_min: int = 0) -> TruncatedLattice:
    """Smallest window from x_min on with w below 1e-16 of its peak and tail mass < 1e-14."""
    if family.finite:
        return TruncatedLattice(x_max=family.M)
    block = 256
    x_hi = max(x_min, block)
    while True:
        x = np.arange(x_hi + 1)
        lw = family.log_weight(x)
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
        x_hi *= 2
