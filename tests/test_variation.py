import math
from dataclasses import replace

import numpy as np
import pytest

from trapsurf.cli import EQ3_EMBEDDINGS, VARIATION_EMBEDDINGS
from trapsurf.errors import FlowLeftChart, NotClosed, NotConformal
from trapsurf.expressions import blockwise
from trapsurf.geometry import VectorField, vector_field_from_expressions
from trapsurf.quadrature import GridSpec
from trapsurf.sampling import random_polynomial_field
from trapsurf.variation import (
    CONFORMAL_TOL,
    PARALLEL_TOL,
    FlowSpec,
    conformal_check,
    first_variation_density,
    flow_block,
    flow_volume_oracle,
    killing_integral_check,
    null_killing_constraint_check,
    rhs_identity,
    volume_variation,
)

from conftest import cat, flowed_embedding

MINK_COORDS = ("t", "x", "y", "z")


def test_first_variation_density_examples(rng):
    sphere = cat("round_sphere")  # radius 2
    u = sphere.random_parameter_point(rng)
    # Killing flows preserve the volume element
    assert first_variation_density(sphere, cat("time_translation"), u) == \
        pytest.approx(0.0, abs=1e-12)
    # a homothety rescales every d-volume at rate d
    assert first_variation_density(sphere, cat("dilation"), u) == \
        pytest.approx(2.0, abs=1e-12)
    # unit outward flow of a sphere: rate 2/r
    assert first_variation_density(sphere, cat("radial_unit"), u) == \
        pytest.approx(1.0, abs=1e-10)


def test_rhs_identity_examples(rng):
    sphere = cat("round_sphere")
    u = sphere.random_parameter_point(rng)
    assert rhs_identity(sphere, cat("radial_unit"), u) == pytest.approx(
        1.0, abs=1e-9)
    assert rhs_identity(sphere, cat("dilation"), u) == pytest.approx(
        2.0, abs=1e-9)


def test_surface_divergence_of_tangential_killing(rng):
    torus = cat("ring_torus")
    rotation = cat("rotation_z")
    for _ in range(5):
        u = torus.random_parameter_point(rng)
        # rotation about z is tangent to the torus and divergence-free
        p = torus.point(u)
        tan, nor = torus.decompose(rotation.at(p), torus.induced_block([u]).node(0))
        assert np.allclose(nor, 0.0, atol=1e-10)
        # g(xi, H) = 0 for a tangent xi: the identity is the divergence alone
        assert abs(rhs_identity(torus, rotation, u)) < 1e-8


def test_tangential_components_of_normal_field_vanish(rng):
    sphere = cat("round_sphere")
    u = sphere.random_parameter_point(rng)
    tangent, _ = sphere.decompose(cat("radial_unit").at(sphere.point(u)),
                                 sphere.induced_block([u]).node(0))
    assert np.allclose(tangent, 0.0, atol=1e-12)


def test_identity_property_random_triples():
    rng = np.random.default_rng(42)
    names = ("round_sphere", "ring_torus", "flat_torus", "accelerated_curve",
             "comoving_sphere_rw", "ef_sphere", "ppwave_wavy_torus")
    embeddings = [cat(n) for n in names]
    for _ in range(60):
        emb = embeddings[rng.integers(len(embeddings))]
        xi = random_polynomial_field(rng, emb.ambient.dim)
        u = emb.random_parameter_point(rng)
        lhs = first_variation_density(emb, xi, u)
        rhs = rhs_identity(emb, xi, u)
        assert abs(lhs - rhs) < 1e-6


def test_divergence_integrates_to_zero_on_closed_surfaces():
    rng = np.random.default_rng(7)
    grid = GridSpec((12, 12))
    # surfaces that are compact in the ambient chart: any smooth field works
    for name in ("round_sphere", "ring_torus", "comoving_sphere_rw"):
        emb = cat(name)
        xi = random_polynomial_field(rng, emb.ambient.dim)
        result = volume_variation(emb, xi, grid)
        scale = abs(result.expansion_term) + abs(result.total) + 1.0
        assert abs(result.divergence_term) < 1e-7 * scale
    # tori closed only under the periodic identification: the field must
    # descend to the quotient, i.e. be periodic in the compact coordinates
    for name, coords in (("flat_torus", ("t", "x", "y", "z")),
                         ("ppwave_wavy_torus", ("u", "v", "x", "y"))):
        xi = vector_field_from_expressions(
            coords, ["sin(x)", "cos(y)", "sin(x + y)", "cos(x)"])
        result = volume_variation(cat(name), xi, grid)
        scale = abs(result.expansion_term) + abs(result.total) + 1.0
        assert abs(result.divergence_term) < 1e-7 * scale


def test_volume_variation_examples():
    grid = GridSpec((16, 16))
    sphere = cat("round_sphere")
    # outward unit flow of a round sphere: dV/dtau = (2/r) * area = 8 pi r
    out = volume_variation(sphere, cat("radial_unit"), grid)
    assert out.total == pytest.approx(16.0 * math.pi, rel=1e-6)
    # Killing flow: volume is exactly preserved
    still = volume_variation(sphere, cat("time_translation"), grid)
    assert abs(still.total) < 1e-10
    # extremal submanifold, normal-supported field: both terms vanish
    flat = volume_variation(cat("flat_torus"), cat("time_translation"), grid)
    assert abs(flat.total) < 1e-10


def test_volume_variation_requires_closed():
    with pytest.raises(NotClosed):
        volume_variation(cat("spacelike_plane"), cat("dilation"),
                         GridSpec((8, 8)))


def test_flow_oracle_matches_identity():
    grid = GridSpec((16, 16))
    sphere = cat("round_sphere")
    oracle = flow_volume_oracle(sphere, FlowSpec(cat("radial_unit"), 1e-3), grid)
    assert oracle == pytest.approx(16.0 * math.pi, rel=1e-5)
    oracle = flow_volume_oracle(sphere, FlowSpec(cat("time_translation"), 1e-3),
                                grid)
    assert abs(oracle) < 1e-7


def test_flow_oracle_agrees_with_identity_on_random_fields():
    rng = np.random.default_rng(11)
    grid = GridSpec((12, 12))
    for name in ("round_sphere", "ring_torus", "ef_sphere"):
        emb = cat(name)
        xi = random_polynomial_field(rng, emb.ambient.dim)
        direct = volume_variation(emb, xi, grid).total
        oracle = flow_volume_oracle(emb, FlowSpec(xi, 1e-4), grid)
        assert abs(direct - oracle) / max(abs(oracle), 1e-8) < 1e-4


def test_flow_leaving_chart_is_an_error():
    ef = cat("ef_sphere", radius=1.0)
    inward = vector_field_from_expressions(("v", "r", "th", "ph"),
                                           ["0", "-1", "0", "0"])
    with pytest.raises(FlowLeftChart):
        flow_block(ef.ambient, inward, ef.point_block([[1.0, 1.0]]), tau=2.0)
    with pytest.raises(FlowLeftChart):
        flow_volume_oracle(ef, FlowSpec(inward, 2.0), GridSpec((4, 4)))
    # the second RK4 stage, p - tau/2 e_r, leaves r > 0 at nodes 1 and 2
    points = np.array([[0.0, r, 1.0, 0.0] for r in (3.0, 0.4, 0.2)])
    stage = points + 0.5 * 1.0 * np.array([0.0, -1.0, 0.0, 0.0])
    with pytest.raises(FlowLeftChart) as info:
        flow_block(ef.ambient, inward, points, tau=1.0)
    assert str(stage[1]) in str(info.value)
    assert str(stage[2]) not in str(info.value)


@pytest.mark.parametrize("kind", ["lifted", "expression"])
def test_flow_of_a_block_equals_flow_of_each_row(kind):
    rng = np.random.default_rng(5)
    mink = cat("minkowski")
    if kind == "lifted":
        # a per-point callable, stacked node by node by expressions.lift
        xi = VectorField(value=lambda x: np.array(
            [1.0 + x[1] * x[2], np.sin(x[0]) * x[3], np.exp(-x[1] ** 2),
             np.cos(x[2]) / 2]))
        assert xi.value.__qualname__.startswith("lift.")
    else:
        xi = vector_field_from_expressions(
            MINK_COORDS, ["1 + x*y", "sin(t) * z", "exp(-x**2)", "cos(y) / 2"])
    points = rng.normal(size=(7, 4))
    block = flow_block(mink, xi, points, tau=0.3)
    rows = [flow_block(mink, xi, row[None], tau=0.3)[0] for row in points]
    assert np.array_equal(block, np.array(rows))


def test_flow_oracle_evaluates_the_field_on_blocks():
    sphere = cat("round_sphere")
    value = cat("dilation").value
    shapes = []

    @blockwise
    def counted(points):
        shapes.append(np.shape(points))
        return value(points)

    grid = GridSpec((4, 4))
    oracle = flow_volume_oracle(sphere, FlowSpec(VectorField(value=counted), 1e-4),
                                grid)
    # dV/dtau = 2 V for the dilation, on the grid's own quadrature
    assert oracle == pytest.approx(2.0 * sphere.volume(grid), rel=1e-6)
    # the 16 nodes, then their 2 * 2 * 16 = 64 stencil points of the 3-point
    # stencil: the first RK4 stage once for both flows, the other three on
    # the stacked +tau and -tau points; 7 + 4 * 7 = 35 field rows per node
    assert shapes == [(16, 4)] + [(32, 4)] * 3 + [(64, 4)] + [(128, 4)] * 3


@pytest.mark.parametrize("name", ["round_sphere", "ring_torus", "ef_sphere"])
def test_flow_oracle_equals_two_flowed_embeddings(name):
    rng = np.random.default_rng(23)
    emb = cat(name)
    xi = random_polynomial_field(rng, emb.ambient.dim)
    # 288 nodes: two node blocks, and stencils over several evaluation blocks
    grid, tau = GridSpec((12, 24)), 1e-4
    v_plus, v_minus = (flowed_embedding(emb, xi, t).volume(grid) for t in (tau, -tau))
    oracle = flow_volume_oracle(emb, FlowSpec(xi, tau), grid)
    # the oracle differences Phi and the RK4 step on a 3-point stencil, the
    # flowed Embedding its flowed position on the 5-point one: the frames
    # differ by roundoff and truncation, which the 1/tau of the difference
    # amplifies in the flowed Embeddings
    assert oracle == pytest.approx((v_plus - v_minus) / (2.0 * tau), rel=1e-7)


def test_flow_oracle_error_does_not_grow_as_tau_shrinks():
    # the worst pair of `verify variation --seed 41`: differencing the RK4
    # step leaves it about 1e-8 and 1e-7 from the identity at tau = 1e-6 and
    # 1e-7; frames differenced from the flowed positions, whose roundoff the
    # 1/tau amplifies, leave 3.3e-4 and 3.1e-3
    rng = np.random.default_rng(41)
    for _ in range(8):
        emb = cat(VARIATION_EMBEDDINGS[rng.integers(len(VARIATION_EMBEDDINGS))])
        xi = random_polynomial_field(rng, emb.ambient.dim)
    assert emb.name == "ppwave_wavy_torus"
    grid = GridSpec((16, 16))
    direct = volume_variation(emb, xi, grid).total
    for tau in (1e-6, 1e-7):
        oracle = flow_volume_oracle(emb, FlowSpec(xi, tau), grid)
        assert abs(direct - oracle) <= 1e-6 * abs(oracle)


def test_flow_oracle_names_the_flowed_surface():
    plane = cat("spacelike_plane")
    with pytest.raises(NotClosed, match="spacelike_plane@tau=0.0001"):
        flow_volume_oracle(plane, FlowSpec(cat("dilation"), 1e-4), GridSpec((4, 4)))


def test_fd_fallback_matches_the_analytic_identity():
    rng = np.random.default_rng(17)
    for name in EQ3_EMBEDDINGS:
        emb = cat(name)
        fd = emb.without_analytic_derivatives()
        for _ in range(30):
            xi = random_polynomial_field(rng, emb.ambient.dim)
            u = emb.random_parameter_point(rng)
            analytic = rhs_identity(emb, xi, u)
            assert abs(rhs_identity(fd, xi, u) - analytic) <= 1e-7 * (1.0 + abs(analytic))


def test_conformal_check():
    mink = cat("minkowski")
    rng = np.random.default_rng(3)
    sample = [rng.normal(size=4) for _ in range(8)]

    res = conformal_check(mink, cat("dilation"), sample)
    assert res.residual < 1e-12
    assert res.psi == pytest.approx(np.ones(8), abs=1e-12)

    res = conformal_check(mink, cat("time_translation"), sample)
    assert res.residual < CONFORMAL_TOL
    assert res.psi == pytest.approx(np.zeros(8), abs=1e-12)

    rw = cat("robertson_walker", scale="t")
    rw_sample = [np.array([1.0 + 2.0 * rng.random(), *rng.normal(size=3)])
                 for _ in range(8)]
    res = conformal_check(rw, cat("rw_conformal", scale="t"), rw_sample)
    assert res.residual < CONFORMAL_TOL
    assert res.psi == pytest.approx(np.ones(8), abs=1e-10)

    shear = vector_field_from_expressions(MINK_COORDS, ["0", "x**2", "0", "0"])
    res = conformal_check(mink, shear, sample)
    assert not res.residual < CONFORMAL_TOL


@pytest.mark.parametrize("scale", ["1e-9", "1e-6"])
def test_conformal_residual_does_not_depend_on_the_scale_of_xi(scale):
    # an absolute residual would pass 1e-9 * x**2 d_x as Killing (5.97e-9 on
    # the sphere, under CONFORMAL_TOL) and fail 1e-6 * x**2 d_x (5.97e-6)
    rng = np.random.default_rng(3)
    sample = rng.normal(size=(8, 4))
    shear = vector_field_from_expressions(MINK_COORDS, ["0", "x**2", "0", "0"])
    scaled = vector_field_from_expressions(MINK_COORDS, ["0", f"{scale} * x**2", "0", "0"])
    mink = cat("minkowski")
    assert conformal_check(mink, scaled, sample).residual == pytest.approx(
        conformal_check(mink, shear, sample).residual, rel=1e-12)
    with pytest.raises(NotConformal, match="7.500e-01"):
        killing_integral_check(cat("round_sphere"), scaled, GridSpec((16, 16)))


def test_killing_integral_identity_expanding_universe():
    emb = cat("comoving_sphere_rw")
    xi = cat("rw_conformal", scale="t")
    res = killing_integral_check(emb, xi, GridSpec((24, 24)))
    assert res.residual < 1e-6
    assert res.psi_sign == "positive"
    assert res.flux > 0.0
    assert res.obstruction_ok
    # Psi = 1, so lhs is the area and the flux is d * area
    area = emb.volume(GridSpec((24, 24)))
    assert res.lhs == pytest.approx(area, rel=1e-10)
    assert res.flux == pytest.approx(2.0 * area, rel=1e-8)


def _row_counted(fn, rows, key):
    """fn, adding the number of points of each block it sees to rows[key]."""
    @blockwise
    def counted(points):
        rows[key] += len(points)
        return fn(points)

    return counted


def test_killing_integral_reads_the_node_bundle():
    # Psi, the conformal residual and g(xi, H) at the nodes come from the
    # extrinsic block's g and dg and one evaluation of xi: one row per node
    emb, xi = cat("comoving_sphere_rw"), cat("rw_conformal", scale="t")
    rows = {"components": 0, "value": 0}
    counted = replace(emb, ambient=replace(emb.ambient, components=_row_counted(
        emb.ambient.components, rows, "components")))
    counted_xi = replace(xi, value=_row_counted(xi.value, rows, "value"))
    grid = GridSpec((24, 24))
    res = killing_integral_check(counted, counted_xi, grid)
    nodes = 576
    assert nodes > 256  # more than one block
    assert rows == {"components": nodes, "value": nodes}
    assert res == killing_integral_check(emb, xi, grid)


def test_killing_integral_identity_flat_killing_fields():
    grid = GridSpec((16, 16))
    for emb_name in ("round_sphere", "ring_torus"):
        for field_name in ("time_translation", "boost_x", "rotation_z"):
            res = killing_integral_check(cat(emb_name), cat(field_name), grid)
            assert res.psi_sign == "zero"
            assert abs(res.flux) < 1e-8
            assert res.obstruction_ok


def test_killing_integral_rejects_non_conformal_and_open():
    shear = vector_field_from_expressions(MINK_COORDS, ["0", "x**2", "0", "0"])
    with pytest.raises(NotConformal):
        killing_integral_check(cat("round_sphere"), shear, GridSpec((8, 8)))

    # xi = ((y - 1/2)_+^2, 0, 0, 0): Lie_xi g has a t-y component only where
    # y > 1/2, while Psi and g(xi, H) vanish at every node of the sphere
    @blockwise
    def value(p):
        out = np.zeros_like(p)
        out[:, 0] = np.maximum(p[:, 2] - 0.5, 0.0) ** 2
        return out

    @blockwise
    def jacobian(p):
        out = np.zeros(p.shape + p.shape[1:])
        out[:, 0, 2] = 2.0 * np.maximum(p[:, 2] - 0.5, 0.0)
        return out

    half_shear = VectorField(value=value, jacobian=jacobian, name="half_shear")
    with pytest.raises(NotConformal, match="half_shear"):
        killing_integral_check(cat("round_sphere"), half_shear, GridSpec((24, 24)))
    with pytest.raises(NotClosed):
        killing_integral_check(cat("spacelike_plane"), cat("dilation"),
                               GridSpec((8, 8)))


def test_null_killing_constraint():
    grid = GridSpec((12, 12))
    xi = cat("ppwave_null_killing")
    # wavy torus: H = 2 * wobble * cos(u1) cos(u2) d/dv, never spacelike
    fit = null_killing_constraint_check(cat("ppwave_wavy_torus"), xi, grid)
    assert fit.max_residual < PARALLEL_TOL
    assert not fit.spacelike_somewhere
    assert np.max(np.abs(fit.lambdas)) == pytest.approx(0.2, abs=1e-6)
    # geodesic torus: H = 0 fits trivially
    fit = null_killing_constraint_check(cat("ppwave_torus"), xi, grid)
    assert fit.max_residual < PARALLEL_TOL and not fit.spacelike_somewhere
    # a flat-space sphere has spacelike H everywhere
    fit = null_killing_constraint_check(cat("round_sphere"),
                                        cat("time_translation"), grid)
    assert fit.spacelike_somewhere


def test_parallel_fit_uses_the_given_tolerance():
    grid = GridSpec((12, 12))
    # H is exactly along d/dv; a slightly tilted field fits it up to ~1e-9
    tilted = vector_field_from_expressions(("u", "v", "x", "y"),
                                           ["0", "1", "1e-8", "0"])
    wavy = cat("ppwave_wavy_torus")
    fit = null_killing_constraint_check(wavy, tilted, grid)
    assert 0.0 < fit.max_residual < PARALLEL_TOL


def test_tangential_part_is_the_induced_connection(rng):
    # the tangential part of the ambient derivative of a frame field
    # reproduces the Christoffel symbols of the induced metric
    sphere = cat("round_sphere")
    for _ in range(5):
        u = sphere.random_parameter_point(rng)
        th = u[0]
        data = sphere.induced_block([u]).node(0)
        gam = sphere.ambient.christoffel_at(data.p)
        grad = sphere.second_frame_block(u[None])[0] + np.einsum(
            "mrs,ra,sb->mab", gam, data.frame, data.frame)
        g = sphere.ambient.metric_block([data.p])[0]
        coeffs = np.einsum("cd,md,mab->cab", data.gamma_inv,
                           g @ data.frame, grad)
        assert coeffs[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th),
                                                abs=1e-8)
        assert coeffs[1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th),
                                                abs=1e-8)


def test_flow_spec_validation():
    xi = cat("time_translation")
    with pytest.raises(ValueError):
        FlowSpec(xi, tau_step=-1.0)
