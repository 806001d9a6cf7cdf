import numpy as np

from trapsurf import expressions, findiff


def test_gradient3_is_exact_on_quadratics_up_to_roundoff():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=3)

    def quadratic(x):
        return np.stack([np.einsum("ki,ij,kj->k", x, a, x) + x @ b + 0.7,
                         x[:, 0] * x[:, 2]], axis=1)

    x = 3.0 * rng.normal(size=(50, 3))
    exact = np.stack([x @ (a + a.T) + b,
                      np.stack([x[:, 2], np.zeros(50), x[:, 0]], axis=1)], axis=2)
    got = findiff.gradient3(quadratic, x)
    assert got.shape == findiff.gradient(quadratic, x).shape == (50, 3, 2)
    # no truncation: what is left is the roundoff of f, eps |f| / h with
    # h = eps**(1/3) (1 + |x|), about 4e-11 |f| at most
    assert np.all(np.abs(got - exact) <= 1e-9 * (1.0 + np.abs(quadratic(x)))[:, None, :])


def test_gradient3_on_sin_and_exp():
    rng = np.random.default_rng(3)

    def smooth(x):
        return np.sin(x[:, 0]) * np.exp(x[:, 1]) + np.cos(x[:, 2])

    x = rng.uniform(-2.0, 2.0, size=(200, 3))
    exact = np.stack([np.cos(x[:, 0]) * np.exp(x[:, 1]),
                      np.sin(x[:, 0]) * np.exp(x[:, 1]), -np.sin(x[:, 2])], axis=1)
    # truncation h**2 |f'''| / 6 <= (3 eps**(1/3))**2 e**2 / 6, about 4e-10,
    # the same order as the roundoff
    assert np.abs(findiff.gradient3(smooth, x) - exact).max() < 1e-8


def _quadratic_texts(a, b):
    """f = x A x + b x + 0.7 and x0 * x2, as expression texts in x0, x1, x2."""
    quad = " + ".join(f"({float(a[i, j])!r})*x{i}*x{j}" for i in range(3) for j in range(3))
    lin = " + ".join(f"({float(b[i])!r})*x{i}" for i in range(3))
    return [f"{quad} + {lin} + 0.7", "x0*x2"]


def test_complex_steps_are_exact_on_quadratics_up_to_roundoff():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=3)
    f, = expressions.template(("x0", "x1", "x2"), _quadratic_texts(a, b)).bind()
    assert f.compiled
    x = 3.0 * rng.normal(size=(50, 3))
    exact_gradient = np.stack([x @ (a + a.T) + b,
                               np.stack([x[:, 2], np.zeros(50), x[:, 0]], axis=1)], axis=2)
    second = np.zeros((3, 3))
    second[0, 2] = second[2, 0] = 1.0
    exact_hessian = np.broadcast_to(np.stack([a + a.T, second], axis=2), (50, 3, 3, 2))
    # no stencil error: the gradient is f's own roundoff, eps |d f|; the
    # hessian's stencil in x_j adds eps |d f| / s, s = eps**(1/5) (1 + |x|)
    scale = 1.0 + np.abs(exact_gradient).max(axis=1, keepdims=True)
    assert np.all(np.abs(findiff.gradient(f, x) - exact_gradient) <= 1e-14 * scale)
    assert np.all(np.abs(findiff.hessian(f, x) - exact_hessian)
                  <= 1e-12 * scale[:, :, None])
