"""Expression templates: compiled once per text and names, bound per object."""

import inspect
import re

import numpy as np
import pytest

from trapsurf import catalog, expressions
from trapsurf.errors import InvalidExpression
from trapsurf.extrinsic import classify_submanifold, extrinsic_block
from trapsurf.geometry import (MetricField, VectorField, metric_from_expressions,
                               vector_field_from_expressions)
from trapsurf.quadrature import GridSpec, grid_nodes

SMALL_GRID = {1: (5,), 2: (3, 4), 3: (2, 2, 3)}


def compiles():
    """How many templates have been compiled in this process."""
    return expressions._compile.cache_info().misses


def test_fresh_parameters_reuse_the_compiled_template():
    expressions._compile.cache_clear()
    # the sphere's map, its metric and the metric's time orientation
    inside = catalog.instantiate("ef_sphere", radius=1.5)
    assert compiles() == 3
    outside = catalog.instantiate("ef_sphere", radius=3.0)
    assert compiles() == 3
    # an inline text compiles once, on first use, for every constant value
    fn, = expressions.template(("r",), ["M / r"], {"M": 1.0}).bind({"M": 1.0})
    assert compiles() == 4
    again, = expressions.template(("r",), ["M / r"], {"M": 2.0}).bind({"M": 2.0})
    assert compiles() == 4
    assert np.array_equal(2.0 * fn([[4.0]]), again([[4.0]]))

    grid = GridSpec((4, 8))
    assert classify_submanifold(inside, grid).verdict == "FutureTrapped"
    assert classify_submanifold(outside, grid).verdict == "AbsolutelyNonTrapped"
    for emb, r in ((inside, 1.5), (outside, 3.0)):
        points, _ = grid_nodes(emb.param_domain, emb.periodic, grid)
        exact = 4.0 * (1.0 - 2.0 / r) / r**2
        h_norm2 = extrinsic_block(emb, points).h_norm2
        assert np.abs(h_norm2 - exact).max() <= 1e-12 * abs(exact)


@pytest.mark.parametrize("bad", ["r + q", "__import__('os').system('true')"])
def test_bad_text_raises_on_every_attempt(bad):
    for _ in range(2):
        with pytest.raises(InvalidExpression):
            vector_field_from_expressions(("r", "th"), [bad, "0"])
        with pytest.raises(InvalidExpression):
            metric_from_expressions(("r", "th"), [["1", bad], [bad, "r**2"]])


def test_symmetry_is_checked_at_the_objects_values():
    comps = [["-1", "a"], ["b", "1"]]
    metric = metric_from_expressions(("t", "x"), comps, constants={"a": 0.25, "b": 0.25})
    assert np.array_equal(metric.metric_block([[0.0, 0.0]])[0], [[-1.0, 0.25], [0.25, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        metric_from_expressions(("t", "x"), comps, constants={"a": 0.25, "b": 0.5})
    with pytest.raises(ValueError, match="symmetric"):
        metric_from_expressions(("t", "x"), [["-1", "x"], ["0", "1"]])


@pytest.mark.parametrize("upper, lower", [("x*t", "t*x"), ("(x+t)+1", "x+(t+1)"),
                                          ("2*a", "a + a")])
def test_symmetry_accepts_equal_values_of_different_texts(upper, lower):
    comps = [["-1", upper, "0"], [lower, "1", "0"], ["0", "0", "1"]]
    metric = metric_from_expressions(("t", "x", "y"), comps, constants={"a": 0.25})
    g = metric.metric_block([[0.5, 2.0, 0.0]])[0]
    assert g[0, 1] == g[1, 0]


def test_constant_shadowing_a_coordinate_is_a_constant():
    xi = vector_field_from_expressions(("t", "x"), ["x*t", "0"], constants={"x": 2.0})
    assert np.array_equal(xi.at([3.0, 5.0]), [6.0, 0.0])
    assert np.array_equal(xi.jacobian_at([3.0, 5.0]), [[2.0, 0.0], [0.0, 0.0]])


def test_cache_is_bounded():
    bound = expressions.TEMPLATE_CACHE_SIZE
    for k in range(bound + 8):
        expressions.template(("x",), [f"x + {k}"])
    assert expressions._compile.cache_info().currsize <= bound


# -- every catalog entry against a build from value-interpolated text -------

BUILDERS = {
    "metric_from_expressions": ("components", "time_orientation"),
    "embedding_from_expressions": ("chart_map",),
    "vector_field_from_expressions": ("components",),
}


def _interpolate(texts, constants):
    if isinstance(texts, (list, tuple)):
        return [_interpolate(t, constants) for t in texts]
    for name, value in constants.items():
        texts = re.sub(rf"\b{name}\b", f"({float(value)!r})", texts)
    return texts


def _interpolating(builder, text_args):
    """`builder` with each constant's value written into its texts."""
    signature = inspect.signature(builder)

    def build(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        constants = bound.arguments.pop("constants", None) or {}
        for key in text_args:
            if bound.arguments.get(key) is not None:
                bound.arguments[key] = _interpolate(bound.arguments[key], constants)
        return builder(*bound.args, **bound.kwargs)

    return build


def _draw(entry, rng):
    """Parameter values within 25% of each default (+-0.5 around 0), a
    random choice, or (Minkowski) an integer dimension."""
    params = {}
    for spec in entry.params:
        if spec.choices is not None:
            params[spec.name] = spec.choices[int(rng.integers(len(spec.choices)))]
        elif entry.name == "minkowski":
            params[spec.name] = float(rng.integers(2, 9))
        else:
            default = float(spec.default)
            half = 0.25 * abs(default) if default else 0.5
            params[spec.name] = float(rng.uniform(default - half, default + half))
    return params


def _arrays(obj):
    if isinstance(obj, MetricField):
        points = 1.0 + 0.1 * np.arange(obj.dim) + 0.05 * np.arange(3)[:, None]
        return {"g": obj.metric_block(points), "christoffel": obj.christoffel_block(points)}
    if isinstance(obj, VectorField):
        points = 1.0 + 0.1 * np.arange(4) + 0.05 * np.arange(3)[:, None]
        return {"value": obj.value_block(points), "jacobian": obj.jacobian_block(points)}
    points, _ = grid_nodes(obj.param_domain, obj.periodic, GridSpec(SMALL_GRID[obj.dim]))
    ext = extrinsic_block(obj, points)
    return {"g": ext.base.g, "christoffel": obj.ambient.christoffel_block(ext.base.p),
            "frame": ext.base.frame, "shape": ext.shape}


INSTANTIABLE = [e for e in catalog.list_entries() if e.builder is not None]


@pytest.mark.parametrize("draw", [None, 1, 2], ids=["defaults", "draw1", "draw2"])
@pytest.mark.parametrize("entry", INSTANTIABLE, ids=[e.name for e in INSTANTIABLE])
def test_catalog_matches_value_interpolated_text(monkeypatch, entry, draw):
    params = {} if draw is None else _draw(
        entry, np.random.default_rng([INSTANTIABLE.index(entry), draw]))
    compiled = _arrays(catalog.instantiate(entry.name, **params))
    for name, text_args in BUILDERS.items():
        monkeypatch.setattr(catalog, name, _interpolating(getattr(catalog, name), text_args))
    reference = _arrays(catalog.instantiate(entry.name, **params))
    for key, ref in reference.items():
        # relative to the quantity's largest magnitude, at least 1 (catalog
        # lengths and coordinates are of order 1)
        scale = max(float(np.abs(ref).max()), 1.0)
        assert np.abs(compiled[key] - ref).max() <= 1e-12 * scale, (key, params)
