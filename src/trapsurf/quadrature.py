"""Quadrature over axis-aligned parameter boxes.

The rule on each axis follows from whether the axis is periodic.  A
periodic axis takes the endpoint-free uniform (trapezoid) rule, which is
spectrally accurate for smooth periodic integrands; any other axis takes
Gauss-Legendre nodes, which never touch the interval endpoints, so
coordinate poles are avoided.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

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
    """Sampling/quadrature control: nodes per axis."""

    points_per_axis: tuple

    def __post_init__(self):
        pts = tuple(_count(n) for n in self.points_per_axis)
        object.__setattr__(self, "points_per_axis", pts)
        if any(n < 2 for n in pts):
            raise ValueError("need at least 2 points per axis")


def axis_rule(lo, hi, n, periodic):
    """Nodes and weights on one axis, (x, w) arrays of length n: the
    endpoint-free uniform rule if the axis is periodic, else Gauss-Legendre."""
    lo, hi = float(lo), float(hi)
    if periodic:
        return lo + (hi - lo) * np.arange(n) / n, np.full(n, (hi - lo) / n)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    return x, w


def grid_nodes(domain, periodic, spec: GridSpec):
    """All tensor-product nodes (N, d) of a box `domain` of shape (d, 2),
    first axis slowest, and combined weights (N,)."""
    if len(spec.points_per_axis) != len(domain):
        raise ValueError("points_per_axis length must match parameter dimension")
    rules = [axis_rule(lo, hi, n, per) for (lo, hi), n, per
             in zip(domain, spec.points_per_axis, periodic)]
    axes = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, len(rules))
    # products taken left to right, as np.prod over each node's weights
    weights = reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    return points, weights


def node_blocks(points):
    """Consecutive blocks of at most BLOCK_NODES rows of `points`."""
    return [points[i:i + BLOCK_NODES] for i in range(0, len(points), BLOCK_NODES)]


def map_blocks(fn, points):
    """fn over the node blocks of `points`, where fn maps a block (N, d) to
    a tuple of per-node arrays (N, ...); each output concatenated over the
    blocks."""
    outputs = zip(*(fn(block) for block in node_blocks(points)))
    return tuple(np.concatenate(parts) for parts in outputs)
