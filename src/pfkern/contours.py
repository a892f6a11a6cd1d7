"""Circle contours and trapezoidal quadrature for analytic integrands.

Quadrature convention: values approximate (1/(2 pi i)) * oint f(z) dz, which
for a circle z = c + r e^(i a) equals the mean over nodes of f(z) (z - c).
Node counts double until the two-level error estimate meets the tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ContractError(ValueError):
    """Contour violates a family admissibility predicate."""


class QuadratureError(RuntimeError):
    def __init__(self, msg, last=None, prev=None):
        super().__init__(msg)
        self.last = last
        self.prev = prev


MAX_NODES = 2 ** 20


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


def circle_quadrature(integrand, spec: ContourSpec, tol: float = 1e-10,
                      start_nodes: int | None = None):
    """Adaptive trapezoid on a circle; returns (value, error_estimate, nodes).

    The integrand must accept a complex ndarray; the error estimate is the
    difference between consecutive node-doubling levels.
    """
    n = start_nodes or spec.node_count
    z = spec.nodes(n)
    val = np.sum(integrand(z) * spec.weights(z))
    prev = None
    while True:
        if not np.isfinite(val):
            raise QuadratureError("integrand not finite on contour", last=val)
        n2 = 2 * n
        if n2 > MAX_NODES:
            raise QuadratureError(f"no convergence at {n} nodes", last=val, prev=prev)
        z = spec.nodes(n2)
        val2 = np.sum(integrand(z) * spec.weights(z))
        err = abs(val2 - val)
        if err < tol:
            return val2, err, n2
        prev, val, n = val, val2, n2
