"""Origin-centred circles for the trapezoidal rule on analytic integrands.

Quadrature convention: values approximate (1/(2 pi i)) * oint f(z) dz, which
for the circle z = r e^(i a), traversed counter-clockwise, equals the mean
over nodes of f(z) z.  Each circle carries a fixed node count, chosen by its
caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ContractError(ValueError):
    """Contour violates a family admissibility predicate."""


class QuadratureError(RuntimeError):
    """A quadrature result failed its consistency check."""


@lru_cache(maxsize=32)
def unit_roots(n: int) -> np.ndarray:
    """The n nodes exp(2 pi i k / n), built once and read-only."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True)
class ContourSpec:
    """Origin-centred circle with its trapezoid node count."""

    radius: float
    node_count: int = 256

    def __post_init__(self):
        if self.radius <= 0:
            raise ContractError(f"radius must be positive, got {self.radius}")
        n = self.node_count
        if n < 16 or (n & (n - 1)) != 0:
            raise ContractError(f"node_count must be a power of two >= 16, got {n}")

    def nodes(self):
        return self.radius * unit_roots(self.node_count)

    def weights(self, z):
        """Quadrature weights w_j such that sum_j w_j f(z_j) ~ (1/2pi i) oint f."""
        return z / len(z)
