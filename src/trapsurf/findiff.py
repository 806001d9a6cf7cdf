"""Derivatives of block callables, for when no analytic derivative callback
is supplied.

A callable `f` maps a block of points (M, n) to values (M, ...).  Every
derivative stacks its shifted points on an extra axis of the block and hands
them to `f` in blocks of at most BLOCK_NODES points.  Which path runs depends
on who made `f`:

- A callable made by the expression compiler (marked `compiled`, see
  `expressions._bind`) takes complex steps.  The gradient is
  Im f(x + i h e_i) / h with h = 1e-30: no difference is taken, so it is
  exact to roundoff at any step.  The hessian applies the real 4-point
  first-derivative stencil in x_j, with step s = eps**(1/5) * (1 + |x|), to
  f(x + i h e_i), takes the imaginary part over h and symmetrizes; its
  O(s**4) truncation balances the O(eps / s) roundoff.  Neither sees the
  1/sin**2 loss of a real second difference near a chart pole.
- Every other callable gets real central stencils: first derivatives by the
  4th-order 5-point stencil (`gradient`) or the 3-point one (`gradient3`,
  always real) with per-node step h = eps**(1/3) * (1 + |x|), and second
  derivatives (4th order) by h = eps**(1/6) * (1 + |x|), so that roundoff
  and truncation balance.

A complex step across a branch point of the grammar (sqrt or log of a
negative number) or from one (sqrt(0)) returns a finite, wrong value.  So
the complex path first evaluates `f` in real arithmetic at real points
around x (x and x +- h e_j for the gradient, with the real gradient's step
h; x +- s e_j and x +- 2s e_j for the hessian) and raises DerivativeFailure
if any value there is not finite: where the real stencils would have failed
too, short of a branch point that lies between h and 2h from x along an
axis, where the complex gradient is right.
"""

import numpy as np

from .errors import DerivativeFailure, PointOutsideChart
from .quadrature import node_blocks

_EPS = np.finfo(float).eps
STEP_FIRST = _EPS ** (1.0 / 3.0)
STEP_SECOND = _EPS ** (1.0 / 6.0)
STEP_COMPLEX = 1e-30
STEP_MIXED = _EPS ** (1.0 / 5.0)
_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_COEFFS = (1.0, -8.0, 8.0, -1.0)


def _eval(f, points, dtype=float):
    """f at every stencil point, as (len(points), N, ...) of `dtype`: points
    is a sequence of blocks (N, n), stacked and evaluated in blocks of at
    most BLOCK_NODES."""
    points = np.asarray(points)
    try:
        values = np.concatenate([np.asarray(f(block), dtype=dtype) for block in
                                 node_blocks(points.reshape(-1, points.shape[-1]))])
    except PointOutsideChart as exc:
        raise DerivativeFailure(
            f"finite-difference stencil left the chart domain: {exc}"
        ) from exc
    return values.reshape(points.shape[:2] + values.shape[1:])


def _shift(x, h, axis, offset):
    """x + offset * h * e_axis for every node of the block x."""
    out = x.copy()
    out[:, axis] = x[:, axis] + offset * h[:, axis]
    return out


def _per_node(h, values):
    """h (N,) shaped to broadcast against values (N, ...)."""
    return h.reshape(h.shape + (1,) * (values.ndim - 1))


def _axis_points(x, step, offsets):
    """x + o step_j e_j for each axis j and each offset o, as
    (n * len(offsets), N, n), the offsets of one axis together."""
    n = x.shape[1]
    shifts = step.T[:, None, :, None] * np.eye(n)[:, None, None, :]   # step_j e_j
    return (x + np.asarray(offsets)[:, None, None] * shifts).reshape(-1, len(x), n)


def _finite_at(f, x, points):
    """Raise DerivativeFailure unless f is finite at the real stencil
    `points` of every node of the block x."""
    values = _eval(f, points)
    bad = ~np.isfinite(values.reshape(len(points), len(x), -1)).all(axis=(0, 2))
    if bad.any():
        raise DerivativeFailure(f"derivative stencil at {x[np.argmax(bad)]} meets a "
                                "non-finite value")


def gradient(f, x):
    """All first partials at a block x (N, n): result[k, i] = d f / d x[i]
    at node k."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    h = STEP_FIRST * (1.0 + np.abs(x))
    if getattr(f, "compiled", False):
        _finite_at(f, x, np.concatenate([x[None], _axis_points(x, h, (-1.0, 1.0))]))
        steps = x + STEP_COMPLEX * 1j * np.eye(n)[:, None, :]   # x + i h e_i, (n, N, n)
        return np.moveaxis(_eval(f, steps, complex).imag / STEP_COMPLEX, 0, 1)
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
    if getattr(f, "compiled", False):
        return _complex_hessian(f, x)
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


def _complex_hessian(f, x):
    """`hessian` of a compiled f: the 4-point stencil in x_j of
    Im f(x + i h e_i) / h, symmetrized."""
    n, nodes = x.shape[1], len(x)
    s = STEP_MIXED * (1.0 + np.abs(x))
    real = _axis_points(x, s, _OFFSETS)
    _finite_at(f, x, real)
    steps = real + STEP_COMPLEX * 1j * np.eye(n)[:, None, None, :]   # [i, (j, o)] + i h e_i
    vals = _eval(f, steps.reshape(-1, nodes, n), complex).imag
    tail = vals.shape[2:]
    # d[i, j, k] = d_j (d_i f) at node k, over the stencil's 12 s_j h
    d = np.tensordot(_COEFFS, vals.reshape((n, n, 4, nodes) + tail), axes=(0, 2))
    d /= (12.0 * STEP_COMPLEX * s.T).reshape((1, n, nodes) + (1,) * len(tail))
    return np.moveaxis(0.5 * (d + np.swapaxes(d, 0, 1)), 2, 0)
