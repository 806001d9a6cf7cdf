import numpy as np
import pytest

from trapsurf.sampling import random_polynomial_field


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_random_field_blocks_equal_the_per_point_formulas(dim):
    for seed in range(20):
        xi = random_polynomial_field(np.random.default_rng(seed), dim)
        # the same coefficients, drawn again from the same seed
        rng = np.random.default_rng(seed)
        c0 = 0.5 * rng.standard_normal(dim)
        c1 = 0.5 * rng.standard_normal((dim, dim))
        c2 = 0.5 * rng.standard_normal((dim, dim, dim))
        c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))
        points = 3.0 * np.random.default_rng(100 + seed).standard_normal((30, dim))
        value = [c0 + c1 @ x + np.einsum("mnr,n,r->m", c2, x, x) for x in points]
        jacobian = [c1 + 2.0 * np.einsum("mnr,r->mn", c2, x) for x in points]
        assert np.array_equal(xi.value_block(points), np.array(value))
        assert np.array_equal(xi.jacobian_block(points), np.array(jacobian))
