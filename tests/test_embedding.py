import math

import numpy as np
import pytest

from trapsurf.embedding import Embedding, embedding_from_expressions
from trapsurf.errors import (
    DegenerateInducedMetric,
    NotClosed,
    RankDeficientImmersion,
)
from trapsurf.quadrature import GridSpec

from conftest import cat

TWO_PI = 2.0 * math.pi


def wavy_circle():
    return embedding_from_expressions(
        cat("minkowski"), ("u1",),
        ["0", "cos(u1)", "sin(u1) + 0.3*sin(2*u1)", "0"],
        param_domain=[(0.0, TWO_PI)], periodic=(True,), closed=True,
        name="wavy_circle",
    )


def circle():
    return embedding_from_expressions(
        cat("minkowski"), ("u1",), ["0", "cos(u1)", "sin(u1)", "0"],
        param_domain=[(0.0, TWO_PI)], periodic=(True,), closed=True,
        name="circle",
    )


def test_plane_induced_metric():
    data = cat("spacelike_plane").induced([0.3, -0.6])
    assert np.allclose(data.gamma, np.eye(2))
    assert data.vol_density == pytest.approx(1.0)


def test_sphere_induced_metric_at_equator():
    data = cat("round_sphere").induced([math.pi / 2, 0.0])
    assert np.allclose(data.p, [0.0, 2.0, 0.0, 0.0])
    assert np.allclose(data.frame[:, 0], [0.0, 0.0, 0.0, -2.0])
    assert np.allclose(data.frame[:, 1], [0.0, 0.0, 2.0, 0.0])
    assert np.allclose(data.gamma, np.diag([4.0, 4.0]))
    assert data.vol_density == pytest.approx(4.0)


def test_null_curve_is_degenerate():
    null_line = embedding_from_expressions(
        cat("minkowski"), ("u1",), ["u1", "u1", "0", "0"],
        param_domain=[(0.0, 1.0)], name="null_line",
    )
    with pytest.raises(DegenerateInducedMetric):
        null_line.induced([0.5])


def test_rank_deficient_map_rejected():
    collapsed = embedding_from_expressions(
        cat("minkowski"), ("u1", "u2"), ["0", "u1", "u1", "0"],
        param_domain=[(0.0, 1.0), (0.0, 1.0)], name="collapsed",
    )
    with pytest.raises(RankDeficientImmersion):
        collapsed.induced([0.5, 0.5])


def test_decompose_examples():
    sphere = cat("round_sphere")
    data = sphere.induced([math.pi / 2, 0.0])
    tan, nor = sphere.decompose([0.0, 1.0, 0.0, 0.0], data)
    assert np.allclose(tan, 0.0, atol=1e-12)
    assert np.allclose(nor, [0.0, 1.0, 0.0, 0.0])
    tan, nor = sphere.decompose([0.0, 0.0, 1.0, 0.0], data)
    assert np.allclose(tan, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(nor, 0.0, atol=1e-12)


def test_decompose_properties(rng):
    embeddings = [cat("round_sphere"), cat("ring_torus"), cat("ef_sphere"),
                  cat("ppwave_wavy_torus"), cat("timelike_plane")]
    for _ in range(100):
        emb = embeddings[rng.integers(len(embeddings))]
        u = emb.random_parameter_point(rng)
        v = rng.normal(size=emb.ambient.dim)
        data = emb.induced(u)
        tan, nor = emb.decompose(v, data)
        assert np.allclose(tan + nor, v, atol=1e-10)
        g = emb.ambient.at(data.p)
        for a in range(emb.dim):
            assert abs(nor @ g @ data.frame[:, a]) < 1e-10 * (1 + np.abs(v).max())
        tan2, nor2 = emb.decompose(tan, data)
        assert np.allclose(tan2, tan, atol=1e-10)
        assert np.allclose(nor2, 0.0, atol=1e-10)


def test_decompose_block_matches_columns(rng):
    for name in ("ef_sphere", "t_const_hypersurface_rw", "accelerated_curve"):
        emb = cat(name)
        u = emb.random_parameter_point(rng)
        data = emb.induced(u)
        block = rng.normal(size=(emb.ambient.dim, 3))
        tan, nor = emb.decompose(block, data)
        for k in range(3):
            tan_k, nor_k = emb.decompose(block[:, k], data)
            # matrix and vector products may sum in another order: a few ulps
            ulps = 16 * np.finfo(float).eps * (np.abs(tan_k).max() + np.abs(nor_k).max())
            assert np.abs(tan[:, k] - tan_k).max() <= ulps
            assert np.abs(nor[:, k] - nor_k).max() <= ulps


def test_closed_volumes():
    assert cat("round_sphere").volume(GridSpec((24, 24))) == pytest.approx(
        16.0 * math.pi, rel=1e-12)
    assert cat("flat_torus").volume(GridSpec((8, 8))) == pytest.approx(
        TWO_PI ** 2, rel=1e-12)
    # Pappus: area = (2 pi major) * (2 pi minor)
    assert cat("ring_torus").volume(GridSpec((24, 24))) == pytest.approx(
        4.0 * math.pi ** 2 * 3.0, rel=1e-10)
    assert circle().volume(GridSpec((16,))) == pytest.approx(TWO_PI, rel=1e-12)


def test_volume_requires_closed_or_explicit_boundary():
    plane = cat("spacelike_plane")
    with pytest.raises(NotClosed):
        plane.volume(GridSpec((8, 8)))
    assert plane.volume(GridSpec((8, 8)), allow_boundary=True) == pytest.approx(
        4.0, rel=1e-12)


def test_gauss_rule_converges_on_polar_axis():
    sphere = cat("round_sphere")
    target = 16.0 * math.pi
    err4 = abs(sphere.volume(GridSpec((4, 4))) - target)
    err32 = abs(sphere.volume(GridSpec((32, 32))) - target)
    assert err32 < 1e-10 * target
    assert err4 > err32


def test_trapezoid_rule_converges_on_periodic_axis():
    wavy = wavy_circle()
    ref = wavy.volume(GridSpec((256,)))
    errs = [abs(wavy.volume(GridSpec((n,))) - ref) for n in (4, 8, 16, 32)]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] < 1e-5


def test_volume_is_reparametrization_invariant():
    a = cat("round_sphere").volume(GridSpec((24, 24)))
    b = cat("round_sphere_alt").volume(GridSpec((24, 24)))
    assert abs(a - b) < 1e-8 * abs(a)


def test_sample_box_respects_pole_margin(rng):
    sphere = cat("round_sphere")
    box = sphere.sample_box()
    (lo0, hi0), (lo1, hi1) = box
    assert lo0 > 0.0 and hi0 < math.pi          # padded non-periodic axis
    assert lo1 == 0.0 and hi1 == TWO_PI          # periodic axis untouched
    for _ in range(200):
        u = sphere.random_parameter_point(rng)
        assert lo0 <= u[0] <= hi0 and lo1 <= u[1] <= hi1


def test_finite_difference_frames_match_analytic(rng):
    sphere = cat("round_sphere")
    fd = sphere.without_analytic_derivatives()
    us = np.array([sphere.random_parameter_point(rng) for _ in range(5)])
    assert np.allclose(fd.frame_block(us), sphere.frame_block(us), atol=1e-8)
    assert np.allclose(fd.second_frame_block(us), sphere.second_frame_block(us),
                       atol=1e-6)


def test_numpy_chart_map_supported():
    emb = Embedding(
        ambient=cat("minkowski"), dim=1,
        chart_map=lambda u: np.array([0.0, math.cos(u[0]), math.sin(u[0]), 0.0]),
        param_domain=[(0.0, TWO_PI)], periodic=(True,), closed=True,
        name="numpy_circle",
    )
    assert emb.volume(GridSpec((32,))) == pytest.approx(TWO_PI, rel=1e-9)


def test_dimension_bounds_checked():
    with pytest.raises(ValueError):
        Embedding(ambient=cat("minkowski"), dim=4,
                  chart_map=lambda u: u, param_domain=[(0, 1)] * 4)
