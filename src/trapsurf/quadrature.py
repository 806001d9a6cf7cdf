"""Quadrature over axis-aligned parameter boxes.

Non-periodic axes default to Gauss-Legendre nodes (which never touch the
interval endpoints, so coordinate poles are avoided); periodic axes use the
endpoint-free uniform (trapezoid) rule, which is spectrally accurate for
smooth periodic integrands.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

RULES = ("auto", "gauss", "trapezoid")
# Most points evaluated in one array call of the grid kernel: it bounds the
# kernel's temporaries, so peak memory does not grow with the grid.
BLOCK_NODES = 256


def _count(n):
    """A node count given as an integer value (an integer string included)."""
    try:
        value = int(n) if isinstance(n, str) else n
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"points per axis must be integers, got {n!r}")


@dataclass(frozen=True)
class GridSpec:
    """Sampling/quadrature control: nodes per axis and rule identifier."""

    points_per_axis: tuple
    rule: str = "auto"

    def __post_init__(self):
        pts = tuple(_count(n) for n in self.points_per_axis)
        object.__setattr__(self, "points_per_axis", pts)
        if any(n < 2 for n in pts):
            raise ValueError("need at least 2 points per axis")
        if self.rule not in RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


def axis_rule(lo, hi, n, rule, periodic):
    """Nodes and weights on one axis; returns (x, w) arrays of length n."""
    lo, hi = float(lo), float(hi)
    if rule == "auto":
        rule = "trapezoid" if periodic else "gauss"
    if rule == "trapezoid":
        if periodic:
            x = lo + (hi - lo) * np.arange(n) / n
            w = np.full(n, (hi - lo) / n)
        else:
            x = np.linspace(lo, hi, n)
            w = np.full(n, (hi - lo) / (n - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
        return x, w
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    return x, w


def grid_rules(domain, periodic, spec: GridSpec):
    """Per-axis (nodes, weights) for a box `domain` of shape (d, 2)."""
    domain = np.asarray(domain, dtype=float)
    d = domain.shape[0]
    if len(spec.points_per_axis) != d:
        raise ValueError("points_per_axis length must match parameter dimension")
    return [
        axis_rule(domain[a, 0], domain[a, 1], spec.points_per_axis[a], spec.rule,
                  periodic[a])
        for a in range(d)
    ]


def grid_nodes(domain, periodic, spec: GridSpec):
    """All tensor-product nodes (N, d), first axis slowest, and combined
    weights (N,)."""
    rules = grid_rules(domain, periodic, spec)
    axes = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, len(rules))
    # products taken left to right, as np.prod over each node's weights
    weights = reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    return points, weights


def node_blocks(points):
    """Consecutive blocks of at most BLOCK_NODES rows of `points`."""
    return [points[i:i + BLOCK_NODES] for i in range(0, len(points), BLOCK_NODES)]


def integrate(fn, domain, periodic, spec: GridSpec):
    """Quadrature over the box of fn, which maps a block of nodes (N, d)
    to values (N,); pairwise-summed."""
    points, weights = grid_nodes(domain, periodic, spec)
    values = np.concatenate([fn(block) for block in node_blocks(points)])
    return float(np.sum(weights * values))
