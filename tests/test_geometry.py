import math

import numpy as np
import pytest

from trapsurf.errors import DegenerateMetric, PointOutsideChart
from trapsurf.geometry import (
    _CAUSAL_CODES,
    _TIME_CODES,
    Causal,
    TimeOrientation,
    VectorField,
    absolute_metric,
    causal_label,
    lie_derivative,
    metric_from_expressions,
    vector_field_from_expressions,
)

from conftest import cat


def two_dim_expanding():
    return metric_from_expressions(
        ("t", "x"),
        [["-1", "0"], ["0", "t**2"]],
        time_orientation=["1", "0"],
        chart_bounds=[(0.0, None), (None, None)],
        name="2d-expanding",
    )


def test_minkowski_components():
    g = cat("minkowski").at([0.3, -1.0, 2.0, 0.5])
    assert np.allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_robertson_walker_components():
    g = cat("robertson_walker", scale="t2").at([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(g, np.diag([-1.0, 16.0, 16.0, 16.0]))


def test_schwarzschild_ef_components_at_horizon():
    g = cat("schwarzschild_ef").at([0.0, 2.0, math.pi / 2, 0.0])
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 2] = 4.0
    expected[3, 3] = 4.0
    assert np.allclose(g, expected)


def test_flat_christoffels_vanish(rng):
    mink = cat("minkowski")
    for _ in range(10):
        p = rng.normal(size=4)
        assert np.max(np.abs(mink.christoffel_at(p))) < 1e-12


def test_expanding_christoffels_closed_form():
    g2 = two_dim_expanding()
    gam = g2.christoffel_at([3.0, 0.4])
    assert gam[0, 1, 1] == pytest.approx(3.0, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert gam[1, 1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    rw = cat("robertson_walker", scale="t")
    gam = rw.christoffel_at([2.0, 0.0, 1.0, -1.0])
    assert gam[0, 1, 1] == pytest.approx(2.0, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-12)


def _labels(metric, vs, p):
    """(Causal, TimeOrientation) of each vector of the block `vs` at p."""
    ps = np.repeat(np.asarray(p, dtype=float)[None], len(vs), axis=0)
    g = metric.metric_block(ps)
    causal, time = causal_label(np.asarray(vs, dtype=float), g, absolute_metric(g),
                                metric.future_block(ps))
    return list(zip(_CAUSAL_CODES[causal], _TIME_CODES[time]))


def test_causal_character_examples():
    vs = [[1, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0],
          [1e-12, 0, 0, 0]]
    assert _labels(cat("minkowski"), vs, np.zeros(4)) == [
        (Causal.TIMELIKE, TimeOrientation.FUTURE),
        (Causal.TIMELIKE, TimeOrientation.PAST),
        (Causal.NULL, TimeOrientation.FUTURE),
        (Causal.SPACELIKE, TimeOrientation.NOT_APPLICABLE),
        (Causal.ZERO, TimeOrientation.NOT_APPLICABLE),
    ]


def test_causal_character_scaling_and_flip_properties():
    rng = np.random.default_rng(123)
    metrics = [cat("minkowski"), cat("ppwave")]
    for _ in range(200):
        metric = metrics[rng.integers(len(metrics))]
        p = rng.normal(size=4)
        v = rng.normal(size=4)
        (label, time), scaled, (flipped_label, flipped_time) = _labels(
            metric, [v, 3.7 * v, -v], p)
        # positive rescaling preserves both labels
        assert scaled == (label, time)
        # v -> -v keeps the causal type and flips the orientation
        assert flipped_label == label
        if time is TimeOrientation.FUTURE:
            assert flipped_time is TimeOrientation.PAST
        elif time is TimeOrientation.PAST:
            assert flipped_time is TimeOrientation.FUTURE
        else:
            assert flipped_time is TimeOrientation.NOT_APPLICABLE


def _lie(metric, xi, ps):
    """The Lie-derivative kernel on the metric's and field's arrays at ps."""
    return lie_derivative(metric.metric_block(ps), metric.partials_block(ps),
                          xi.value_block(ps), xi.jacobian_block(ps))


def test_lie_derivative_killing_and_conformal(rng):
    mink = cat("minkowski")
    for name in ("time_translation", "boost_x", "rotation_z"):
        ps = rng.normal(size=(5, 4))
        assert np.max(np.abs(_lie(mink, cat(name), ps))) < 1e-12

    ps = rng.normal(size=(1, 4))
    assert np.allclose(_lie(mink, cat("dilation"), ps), 2.0 * mink.metric_block(ps))

    for scale, rate in (("t", np.ones_like), ("t2", lambda t: 2.0 * t)):
        rw = cat("robertson_walker", scale=scale)
        xi = cat("rw_conformal", scale=scale)
        ps = np.array([[1.7, 0.2, -0.4, 0.9], [2.5, -1.0, 0.3, 0.0]])
        lie = _lie(rw, xi, ps)
        expected = 2.0 * rate(ps[:, 0])[..., None, None] * rw.metric_block(ps)
        assert np.allclose(lie, expected, atol=1e-12)


def test_finite_difference_partials_match_analytic(rng):
    ef = cat("schwarzschild_ef")
    ef_fd = ef.without_analytic_derivatives()
    ps = np.array([[rng.normal(), 1.0 + 3.0 * rng.random(),
                    0.3 + 2.0 * rng.random(), rng.normal()] for _ in range(5)])
    exact = ef.partials_block(ps)
    approx = ef_fd.partials_block(ps)
    scale = 1.0 + np.max(np.abs(exact), axis=(1, 2, 3))
    assert np.all(np.max(np.abs(exact - approx), axis=(1, 2, 3)) < 1e-6 * scale)


def _compatibility_residual(metric, p):
    dg = metric.partials_block(p[None])[0]
    g = metric.at(p)
    gam = metric.christoffel_at(p)
    # nabla_rho g_{mu nu} must vanish for the Levi-Civita connection
    nabla = (dg
             - np.einsum("srm,sn->rmn", gam, g)
             - np.einsum("srn,ms->rmn", gam, g))
    return float(np.max(np.abs(nabla)))


def test_metric_compatibility(rng):
    for name, params in (("schwarzschild_ef", {}), ("robertson_walker", {}),
                         ("ppwave", {})):
        metric = cat(name, **params)
        for _ in range(5):
            p = np.array([0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random(),
                          0.3 + rng.random(), rng.normal()])
            assert _compatibility_residual(metric, p) < 1e-8
            fd = metric.without_analytic_derivatives()
            assert _compatibility_residual(fd, p) < 1e-5


def test_vector_field_fd_jacobian_matches_analytic(rng):
    xi = cat("dilation")
    p = rng.normal(size=4)
    assert np.allclose(xi.jacobian_at(p), VectorField(value=xi.value).jacobian_at(p),
                       atol=1e-8)


def test_point_outside_chart():
    rw = cat("robertson_walker")
    with pytest.raises(PointOutsideChart):
        rw.at([-1.0, 0.0, 0.0, 0.0])
    ef = cat("schwarzschild_ef")
    with pytest.raises(PointOutsideChart):
        ef.christoffel_at([0.0, -0.5, 1.0, 0.0])


def test_degenerate_metric_detected():
    g2 = metric_from_expressions(("t", "x"), [["-1", "0"], ["0", "t**2"]],
                                 name="unbounded")
    with pytest.raises(DegenerateMetric):
        g2.at([0.0, 1.0])


def test_metric_must_be_symmetric():
    with pytest.raises(ValueError):
        metric_from_expressions(("t", "x"), [["-1", "t"], ["0", "1"]])


def test_vector_field_numpy_callable():
    xi = VectorField(value=lambda p: np.array([p[1], p[0], 0.0, 0.0]))
    p = np.array([2.0, 3.0, 0.0, 0.0])
    assert np.allclose(xi.at(p), [3.0, 2.0, 0.0, 0.0])
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.allclose(xi.jacobian_at(p), expected, atol=1e-9)


def test_expression_field_constants():
    xi = vector_field_from_expressions(("t", "x"), ["c*t", "0"],
                                       constants={"c": 2.5})
    assert np.allclose(xi.at([2.0, 0.0]), [5.0, 0.0])
