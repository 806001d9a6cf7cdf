"""Central finite-difference stencils on blocks of points.

Used as the fallback whenever analytic derivative callbacks are not
supplied.  The stencil is an extra axis on the block: the shifted points
of all nodes are stacked and handed to `f`, which maps a block of points
(M, n) to values (M, ...), in blocks of at most BLOCK_NODES points.  First
derivatives use the 4th-order 5-point stencil (`gradient`) or the 3-point
one (`gradient3`) with per-node step h = eps**(1/3) * (1 + |x|).  Both are
limited by roundoff there, O(eps**(2/3)), and the 3-point O(h**2) truncation
is of that order too.  Second derivatives (4th order) use the wider-optimal
h = eps**(1/6) * (1 + |x|) so that roundoff and truncation balance.
"""

import numpy as np

from .errors import DerivativeFailure, PointOutsideChart
from .quadrature import node_blocks

_EPS = np.finfo(float).eps
STEP_FIRST = _EPS ** (1.0 / 3.0)
STEP_SECOND = _EPS ** (1.0 / 6.0)
_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_COEFFS = (1.0, -8.0, 8.0, -1.0)


def _eval(f, points):
    """f at every stencil point, as (len(points), N, ...); the stacked
    points are evaluated in blocks of at most BLOCK_NODES."""
    try:
        values = np.concatenate([np.asarray(f(block), dtype=float) for block in
                                 node_blocks(np.concatenate(points))])
    except PointOutsideChart as exc:
        raise DerivativeFailure(
            f"finite-difference stencil left the chart domain: {exc}"
        ) from exc
    return values.reshape((len(points), len(points[0])) + values.shape[1:])


def _shift(x, h, axis, offset):
    """x + offset * h * e_axis for every node of the block x."""
    out = x.copy()
    out[:, axis] = x[:, axis] + offset * h[:, axis]
    return out


def _per_node(h, values):
    """h (N,) shaped to broadcast against values (N, ...)."""
    return h.reshape(h.shape + (1,) * (values.ndim - 1))


def gradient(f, x):
    """All first partials at a block x (N, n): result[k, i] = d f / d x[i]
    at node k."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    h = STEP_FIRST * (1.0 + np.abs(x))
    points = [_shift(x, h, i, o) for i in range(n) for o in _OFFSETS]
    vals = _eval(f, points)
    out = []
    for i in range(n):
        fm2, fm1, fp1, fp2 = vals[4 * i:4 * i + 4]
        out.append((fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2)
                   / (12.0 * _per_node(h[:, i], fm2)))
    return np.stack(out, axis=1)


def gradient3(f, x):
    """`gradient` by the 3-point central stencil (f(x + h) - f(x - h)) / 2h."""
    x = np.asarray(x, dtype=float)
    h = STEP_FIRST * (1.0 + np.abs(x))
    vals = _eval(f, [_shift(x, h, i, o) for i in range(x.shape[1]) for o in (-1.0, 1.0)])
    return np.stack([(vals[2 * i + 1] - vals[2 * i]) / (2.0 * _per_node(h[:, i], vals[0]))
                     for i in range(x.shape[1])], axis=1)


def hessian(f, x):
    """All second partials at a block x (N, n): result[k, i, j] =
    d^2 f / dx[i] dx[j] at node k (symmetric)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    h = STEP_SECOND * (1.0 + np.abs(x))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    points = [x] + [_shift(x, h, i, o) for i in range(n) for o in _OFFSETS]
    for i, j in pairs:
        # mixed partial: tensor product of two 4-point first-derivative stencils
        points += [_shift(_shift(x, h, i, oi), h, j, oj)
                   for oi in _OFFSETS for oj in _OFFSETS]
    vals = _eval(f, points)
    f0 = vals[0]
    out = np.empty((len(x), n, n) + f0.shape[1:])
    for i in range(n):
        fm2, fm1, fp1, fp2 = vals[1 + 4 * i:5 + 4 * i]
        hi = _per_node(h[:, i], f0)
        out[:, i, i] = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * hi * hi)
    for k, (i, j) in enumerate(pairs):
        block = vals[1 + 4 * n + 16 * k:1 + 4 * n + 16 * (k + 1)]
        acc = None
        for m, (ci, cj) in enumerate((ci, cj) for ci in _COEFFS for cj in _COEFFS):
            term = (ci * cj) * block[m]
            acc = term if acc is None else acc + term
        val = acc / (144.0 * _per_node(h[:, i], f0) * _per_node(h[:, j], f0))
        out[:, i, j] = val
        out[:, j, i] = val
    return out
