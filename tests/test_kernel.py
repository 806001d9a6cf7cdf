"""The batched grid kernel against its N = 1 view, node by node."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapsurf import catalog
from trapsurf.embedding import embedding_from_expressions
from trapsurf.errors import NotSpacelike, PointOutsideChart
from trapsurf.expressions import blockwise
from trapsurf.extrinsic import (_classify_block, classify_submanifold, extrinsic_block,
                                extrinsic_data, positive_definite)
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
        plane.induced_block(grid_nodes(plane.param_domain, plane.periodic, grid)[0])


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
    assert np.array_equal(metric.metric_block([p])[0], mink.metric_block([p])[0])
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


def test_the_kernel_factorizes_each_node_once(monkeypatch):
    # the np.linalg calls of a classification on blocks of matrices (N, n, n),
    # by name and shape (the Gauss rule's eigvalsh takes one matrix)
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "matrix_rank", "inv", "det", "solve"):
        def recording(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) == 3:
                calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    classify_submanifold(cat("ef_sphere", radius=2.0), GridSpec((16, 32)))
    sphere_calls = calls[:]
    calls.clear()
    # codimension 1: the normal frame is the projected future vector
    classify_submanifold(cat("t_const_hypersurface_rw", scale="t2"), GridSpec((8, 8, 8)))
    monkeypatch.undo()
    blocks = [(256, 4, 4)] * 2
    for recorded in (sphere_calls, calls):
        assert [shape for name, shape in recorded if name == "eigh"] == blocks
        assert not [call for call in recorded
                    if call[0] in ("eigvalsh", "svd", "matrix_rank")]
    assert ("inv", (256, 4, 4)) not in sphere_calls
    assert not [call for call in sphere_calls if call[1][1:] == (2, 2)]   # gamma is 2 x 2
    assert [shape for name, shape in sphere_calls if name == "det"] == blocks  # metric_block
    # det gamma once per block, read again by the spacelike check
    assert [shape for name, shape in calls if name == "det" and shape[1:] == (3, 3)] \
        == [(256, 3, 3)] * 2


_FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(_FRACTIONS, min_size=1, max_size=6))
@pytest.mark.parametrize("name", EMBEDDINGS)
def test_bundle_algebra_matches_numpy(name, fractions):
    emb = cat(name)
    box = np.asarray(emb.sample_box())
    us = box[:, 0] + np.asarray(fractions)[:, :emb.dim] * (box[:, 1] - box[:, 0])
    data = emb.induced_block(us)
    eye = np.eye(emb.ambient.dim)
    for k in range(len(us)):
        g, gamma = data.g[k], data.gamma[k]
        assert np.abs(data.g_inv[k] @ g - eye).max() <= 1e-13 * np.linalg.cond(g)
        bound = 1e-13 * np.linalg.cond(gamma)
        inverse = np.linalg.inv(gamma)
        assert np.abs(data.gamma_inv[k] - inverse).max() <= bound * np.abs(inverse).max()
        volume = math.sqrt(abs(np.linalg.det(gamma)))
        assert abs(data.vol_density[k] - volume) <= bound * volume
    spacelike = np.linalg.eigvalsh(data.gamma)[:, 0] > 0.0
    assert np.array_equal(positive_definite(data.gamma, data.gamma_det), spacelike)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
def test_sylvester_agrees_with_the_least_eigenvalue(d, sizes, negative, seed):
    # gamma = Q diag(w) Q^T with |w| in [0.1, 10], so no sign is in doubt
    w = np.where(negative, -1.0, 1.0)[:d] * np.asarray(sizes)[:d]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    gamma = (q * w) @ q.T
    gamma = 0.5 * (gamma + gamma.T)[None]
    pd = positive_definite(gamma, np.linalg.det(gamma))[0]
    assert pd == (np.linalg.eigvalsh(gamma)[0, 0] > 0.0)
    assert pd == (w > 0.0).all()
