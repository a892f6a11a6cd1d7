"""Circle contours for the trapezoidal rule on analytic integrands.

Quadrature convention: values approximate (1/(2 pi i)) * oint f(z) dz, which
for a circle z = c + r e^(i a) equals the mean over nodes of f(z) (z - c).
Each circle carries a fixed node count, chosen by its caller.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """Contour violates a family admissibility predicate."""


class QuadratureError(RuntimeError):
    """A quadrature result failed its consistency check."""


@dataclass(frozen=True)
class ContourSpec:
    """Circle of given orientation with its trapezoid node count."""

    radius: float
    center: complex = 0.0 + 0.0j
    node_count: int = 256
    orientation: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise ContractError(f"radius must be positive, got {self.radius}")
        n = self.node_count
        if n < 16 or (n & (n - 1)) != 0:
            raise ContractError(f"node_count must be a power of two >= 16, got {n}")
        if self.orientation not in (1, -1):
            raise ContractError("orientation must be +-1")

    def nodes(self, node_count: int | None = None):
        n = node_count or self.node_count
        a = 2.0 * np.pi * np.arange(n) / n
        if self.orientation < 0:
            a = -a
        z = self.center + self.radius * np.exp(1j * a)
        return z

    def weights(self, z):
        """Quadrature weights w_j such that sum_j w_j f(z_j) ~ (1/2pi i) oint f."""
        return self.orientation * (z - self.center) / len(z)
