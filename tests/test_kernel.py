"""The batched grid kernel against its N = 1 view, node by node."""

import re
from dataclasses import replace

import numpy as np
import pytest

from trapsurf import catalog
from trapsurf.embedding import embedding_from_expressions
from trapsurf.errors import NotSpacelike, PointOutsideChart
from trapsurf.expressions import blockwise
from trapsurf.extrinsic import (_classify_block, classify_submanifold, extrinsic_block,
                                extrinsic_data)
from trapsurf.geometry import NULL_BAND_TOL, MetricField, VectorField
from trapsurf.quadrature import GridSpec, grid_nodes
from trapsurf.sampling import random_polynomial_field
from trapsurf.variation import FlowSpec, flow_volume_oracle

from conftest import cat, flowed_embedding

EMBEDDINGS = tuple(e.name for e in catalog.list_entries() if e.kind == "embedding")
SMALL_GRID = {1: (5,), 2: (3, 4), 3: (2, 2, 3)}


def _fields(ext):
    base = ext.base
    return {"p": base.p, "g": base.g, "absg": base.absg, "frame": base.frame,
            "gamma": base.gamma, "gamma_inv": base.gamma_inv,
            "vol_density": base.vol_density, "shape": ext.shape,
            "mean_curvature": ext.mean_curvature, "h_norm2": ext.h_norm2}


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", EMBEDDINGS)
def test_block_equals_single_nodes(name, fd):
    emb = cat(name)
    if fd:
        emb = emb.without_analytic_derivatives()
    points, _ = grid_nodes(emb.param_domain, emb.periodic,
                           GridSpec(SMALL_GRID[emb.dim]))
    block = _fields(extrinsic_block(emb, points))
    for i, u in enumerate(points):
        single = _fields(extrinsic_data(emb, u))
        for key, values in block.items():
            # each quantity's scale: its largest magnitude on the grid, at
            # least 1 (catalog lengths and coordinates are of order 1)
            scale = max(float(np.abs(values).max()), 1.0)
            assert np.abs(values[i] - single[key]).max() <= 1e-12 * scale, (key, u)


def test_grid_larger_than_a_block_matches_single_labels():
    emb = cat("ef_sphere", radius=2.0)
    points, _ = grid_nodes(emb.param_domain, emb.periodic, GridSpec((24, 24)))
    assert len(points) > 256
    cols = classify_submanifold(emb, GridSpec((24, 24))).columns
    assert np.array_equal(cols.u, points)
    for i, u in enumerate(points):
        single = _classify_block(emb, u[None], NULL_BAND_TOL)
        assert (cols.causal[i], cols.time[i]) == (single.causal[0], single.time[0])
        assert cols.h_norm2[i] == pytest.approx(single.h_norm2[0], rel=1e-12, abs=1e-15)


def _first_failing_node(emb, grid, failing):
    points, _ = grid_nodes(emb.param_domain, emb.periodic, grid)
    bad = failing(points)
    assert 0 < np.argmax(bad) and bad.any()
    return points[np.argmax(bad)]


def _printed(values):
    """A pattern matching the printed form of a 1-d array."""
    return re.escape(str(np.asarray(values)))


def test_batched_errors_name_the_first_failing_node():
    grid = GridSpec((4, 4))
    # timelike where |d t / d u1| = 2 u1 > 1
    bent = embedding_from_expressions(
        cat("minkowski"), ("u1", "u2"), ["u1**2", "u1", "u2", "0"],
        param_domain=[(0.0, 1.0), (0.0, 1.0)], name="bent_plane",
    )
    first = _first_failing_node(bent, grid, lambda u: 2.0 * u[:, 0] > 1.0)
    with pytest.raises(NotSpacelike, match=_printed(first)):
        classify_submanifold(bent, grid)

    # a plane through t = 0 of an expanding universe, t = -u1: the nodes
    # with u1 >= 0 leave the chart
    plane = embedding_from_expressions(
        cat("robertson_walker"), ("u1", "u2"), ["-u1", "u2", "0", "0"],
        param_domain=[(-1.0, 1.0), (0.0, 1.0)], name="crossing_plane",
    )
    first = _first_failing_node(plane, grid, lambda u: u[:, 0] >= 0.0)
    with pytest.raises(PointOutsideChart, match=_printed(plane.point(first))):
        plane.volume(grid, allow_boundary=True)


def _blocks_only(fn):
    @blockwise
    def checked(x):
        assert np.ndim(x) == 2, np.shape(x)
        return fn(x)

    return checked


def test_callables_only_ever_see_blocks():
    sphere, xi = cat("round_sphere"), cat("dilation")
    mink = sphere.ambient
    metric = replace(mink, components=_blocks_only(mink.components))
    emb = replace(sphere, ambient=metric, chart_map=_blocks_only(sphere.chart_map))
    field = replace(xi, value=_blocks_only(xi.value))
    u, p = np.array([1.1, 0.4]), np.array([0.5, 1.0, -2.0, 0.3])
    assert np.array_equal(emb.point(u), sphere.point(u))
    assert np.array_equal(field.at(p), xi.at(p))
    assert np.array_equal(metric.at(p), mink.at(p))
    label, expected = (_classify_block(e, u[None], NULL_BAND_TOL) for e in (emb, sphere))
    assert np.array_equal(label.causal, expected.causal)
    assert np.array_equal(label.h_norm2, expected.h_norm2)
    grid = GridSpec((4, 4))
    assert (flow_volume_oracle(emb, FlowSpec(field, 1e-4), grid)
            == flow_volume_oracle(sphere, FlowSpec(xi, 1e-4), grid))


CALLABLES = {MetricField: ("components", "derivatives", "time_orientation", "chart_domain"),
             VectorField: ("value", "jacobian")}


def _lifted(obj):
    """The names of obj's callables (and its ambient's) that go through lift."""
    names = CALLABLES.get(type(obj), ("chart_map", "jacobian", "hessian"))
    found = [name for name in names if getattr(obj, name) is not None
             and getattr(obj, name).__qualname__.startswith("lift.")]
    if hasattr(obj, "ambient"):
        found += [f"ambient.{name}" for name in _lifted(obj.ambient)]
    return found


def test_library_objects_are_natively_blockwise():
    objects = [catalog.instantiate(e.name) for e in catalog.list_entries()
               if e.builder is not None]
    xi = random_polynomial_field(np.random.default_rng(0), 4)
    sphere = cat("round_sphere")
    objects += [xi, flowed_embedding(sphere, xi, 1e-4)]
    for obj in objects:
        assert _lifted(obj) == [], obj.name
