"""Seeded random objects for property runs: polynomial vector fields and
parameter points.  All randomness flows through an explicit numpy
Generator so runs are reproducible.
"""

import numpy as np

from .expressions import blockwise
from .geometry import VectorField


def random_polynomial_field(rng, dim):
    """Random quadratic vector field, coefficients of scale 0.5.

    Components are xi^mu = c0 + c1 . x + x . c2 . x with an analytic
    jacobian, so the field is exact for derivative-sensitive checks.  Both
    callables evaluate a block of points (N, dim) in one call.
    """
    c0 = 0.5 * rng.standard_normal(dim)
    c1 = 0.5 * rng.standard_normal((dim, dim))
    c2 = 0.5 * rng.standard_normal((dim, dim, dim))
    c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))

    @blockwise
    def value(x):
        # a stacked matvec rounds like c1 @ x at one point; an einsum may not
        return (c0 + (c1 @ x[:, :, None])[:, :, 0]
                + np.einsum("mnr,kn,kr->km", c2, x, x))

    @blockwise
    def jacobian(x):
        return c1 + 2.0 * np.einsum("mnr,kr->kmn", c2, x)

    return VectorField(value=value, jacobian=jacobian, name="random-poly")
