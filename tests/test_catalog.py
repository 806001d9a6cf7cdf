import math

import numpy as np
import pytest

from trapsurf import catalog, expressions
from trapsurf.errors import ParamOutOfRange, UnknownEntry
from trapsurf.extrinsic import classify_submanifold, extrinsic_block
from trapsurf.quadrature import GridSpec, grid_nodes
from trapsurf.variation import conformal_check, killing_integral_check

from conftest import cat

EXPECTED_METRICS = {"minkowski", "robertson_walker", "schwarzschild_ef",
                    "ppwave"}
EXPECTED_EMBEDDINGS = {
    "round_sphere", "round_sphere_alt", "flat_torus", "ring_torus",
    "straight_line", "accelerated_curve", "spacelike_plane", "timelike_plane",
    "comoving_sphere_rw", "comoving_worldline_rw", "t_const_hypersurface_rw",
    "ef_sphere", "ppwave_torus", "ppwave_wavy_torus",
}
EXPECTED_FIELDS = {"time_translation", "dilation", "boost_x", "rotation_z",
                   "radial_unit", "rw_conformal", "ppwave_null_killing"}


def by_kind(kind):
    return {e.name for e in catalog.list_entries() if e.kind == kind}


def test_catalog_contents():
    assert by_kind("metric") == EXPECTED_METRICS
    assert by_kind("embedding") == EXPECTED_EMBEDDINGS
    assert by_kind("vector_field") == EXPECTED_FIELDS
    assert {"schwarzschild_transition",
            "rw_expanding_killing_integral"} <= by_kind("scenario")


def test_listing_is_deterministic():
    names = [e.name for e in catalog.list_entries()]
    assert names == [e.name for e in catalog.list_entries()]
    kinds = [e.kind for e in catalog.list_entries()]
    order = {"metric": 0, "embedding": 1, "vector_field": 2, "scenario": 3}
    assert kinds == sorted(kinds, key=order.get)


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog.get_entry("no_such_thing")
    with pytest.raises(UnknownEntry):
        catalog.instantiate("no_such_thing")
    # scenarios carry expected data but are not instantiable objects
    with pytest.raises(UnknownEntry):
        catalog.instantiate("schwarzschild_transition")


def test_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        catalog.instantiate("schwarzschild_ef", mass=0.0)
    with pytest.raises(ParamOutOfRange):
        catalog.instantiate("round_sphere", radius=-2.0)
    with pytest.raises(ParamOutOfRange):
        catalog.instantiate("robertson_walker", scale="exp")
    with pytest.raises(ParamOutOfRange):
        catalog.instantiate("round_sphere", radous=2.0)
    for t_start, t_end in ((3.0, 1.0), (2.0, 2.0)):   # a reversed or empty box
        with pytest.raises(ParamOutOfRange, match="lo < hi"):
            catalog.instantiate("comoving_worldline_rw", t_start=t_start, t_end=t_end)


def test_every_embedding_is_an_immersion(rng):
    for entry in catalog.list_entries():
        if entry.kind != "embedding":
            continue
        emb = cat(entry.name)
        for _ in range(3):
            u = emb.random_parameter_point(rng)
            data = emb.induced(u)
            assert data.vol_density > 0.0


def test_time_orientations_are_timelike(rng):
    cases = {
        "minkowski": lambda: rng.normal(size=4),
        "robertson_walker": lambda: np.array([0.5 + 3 * rng.random(),
                                              *rng.normal(size=3)]),
        "schwarzschild_ef": lambda: np.array([rng.normal(),
                                              0.2 + 4 * rng.random(),
                                              *rng.normal(size=2)]),
        "ppwave": lambda: rng.normal(size=4),
    }
    for name, draw in cases.items():
        metric = cat(name)
        for _ in range(10):
            p = draw()
            t_vec = metric.time_orientation(p[None])[0]
            assert t_vec @ metric.at(p) @ t_vec < 0.0


def test_declared_symmetry_fields_pass_conformal_residual(rng):
    mink_sample = [rng.normal(size=4) for _ in range(10)]
    for name, psi in (("time_translation", 0.0), ("boost_x", 0.0),
                      ("rotation_z", 0.0), ("dilation", 1.0)):
        res = conformal_check(cat("minkowski"), cat(name), mink_sample)
        assert res.residual < 1e-8, name
        assert res.psi == pytest.approx(np.full(10, psi), abs=1e-10)

    rw_sample = [np.array([1.0 + 2 * rng.random(), *rng.normal(size=3)])
                 for _ in range(10)]
    for scale, rate in (("t", lambda t: 1.0), ("t2", lambda t: 2 * t),
                        ("const", lambda t: 0.0)):
        res = conformal_check(cat("robertson_walker", scale=scale),
                              cat("rw_conformal", scale=scale), rw_sample)
        assert res.residual < 1e-8, scale
        assert res.psi == pytest.approx([rate(p[0]) for p in rw_sample], abs=1e-8)

    res = conformal_check(cat("ppwave"), cat("ppwave_null_killing"),
                          mink_sample)
    assert res.residual < 1e-8
    assert res.psi == pytest.approx(np.zeros(10), abs=1e-12)


def test_parameters_change_the_geometry():
    small = cat("round_sphere", radius=1.0)
    assert small.volume(GridSpec((16, 16))) == pytest.approx(4.0 * math.pi,
                                                             rel=1e-10)
    mink3 = cat("minkowski", dimension=3)
    assert mink3.dim == 3
    assert np.allclose(mink3.at([0, 0, 0]), np.diag([-1.0, 1.0, 1.0]))


def test_minkowski_dimension_must_be_an_integer():
    with pytest.raises(ParamOutOfRange, match="integer"):
        catalog.instantiate("minkowski", dimension=1.7)
    with pytest.raises(ParamOutOfRange, match="integer"):
        catalog.instantiate("minkowski", dimension=3.5)


def test_closed_embedding_names():
    closed = {e.name for e in catalog.list_entries()
              if e.kind == "embedding" and cat(e.name).closed}
    assert "round_sphere" in closed and "ring_torus" in closed
    assert "spacelike_plane" not in closed and "straight_line" not in closed


# -- every `expected` record, run -------------------------------------------

GRIDS = {1: (16,), 2: (12, 24), 3: (6, 6, 6)}


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


def _number(text, values):
    """A record's expression text with the entry's numeric parameters as
    constants."""
    numbers = {k: v for k, v in values.items() if not isinstance(v, str)}
    fn, = expressions.template((), [text], numbers).bind(numbers)
    return float(fn(np.empty((1, 0)))[0, 0])


def _grid(emb):
    return GridSpec(GRIDS[emb.dim])


def _extrinsic(emb):
    points, _ = grid_nodes(emb.param_domain, emb.periodic, _grid(emb))
    return extrinsic_block(emb, points)


def _area(entry, values, value):
    emb = cat(entry.name, **values)
    assert emb.volume(_grid(emb)) == pytest.approx(_number(value, values), rel=1e-10)


def _h_norm2(entry, values, value):
    expected = _number(value, values)
    h_norm2 = _extrinsic(cat(entry.name, **values)).h_norm2
    assert np.allclose(h_norm2, expected, rtol=1e-9, atol=1e-12 * (1.0 + abs(expected)))


def _zero(quantity):
    """The check that `quantity` of the object's arrays equals the record."""
    def check(entry, values, value):
        obj = cat(entry.name, **values)
        if entry.kind == "metric":
            points = 1.0 + 0.1 * np.arange(obj.dim) + 0.05 * np.arange(3)[:, None]
            array = obj.christoffel_block(points)
        else:
            array = getattr(_extrinsic(obj), quantity)
        assert np.allclose(array, _number(value, values), rtol=0.0, atol=1e-12)
    return check


def _verdict(radius_over_mass=None):
    """The verdict check; an EF sphere is moved to r = ratio * M first."""
    def check(entry, values, value):
        if radius_over_mass is not None:
            values = {**values, "radius": radius_over_mass * values["mass"]}
        emb = cat(entry.name, **values)
        assert classify_submanifold(emb, _grid(emb)).verdict == value
    return check


def _h_parallel_null_killing(entry, values, value):
    ext = _extrinsic(cat(entry.name, **values))
    h_vec = ext.mean_curvature
    xi = cat("ppwave_null_killing").value_block(ext.base.p)
    wedge = h_vec[:, :, None] * xi[:, None, :] - h_vec[:, None, :] * xi[:, :, None]
    assert np.abs(h_vec).max() > 0.0
    assert bool(np.abs(wedge).max() <= 1e-12 * np.abs(h_vec).max()) == value


def _radii(entry, values, value):
    assert "verdicts" in entry.expected     # the radii are the verdicts' inputs


def _transition_verdicts(entry, values, value):
    radii = entry.expected["radii"]["value"]
    for radius, verdict in zip(radii, value, strict=True):
        report = classify_submanifold(cat("ef_sphere", radius=radius), GridSpec((12, 24)))
        assert report.verdict == verdict, radius


def _rw_killing():
    return killing_integral_check(cat("comoving_sphere_rw", scale="t"),
                                  cat("rw_conformal", scale="t"), GridSpec((24, 24)))


def _residual_below(entry, values, value):
    assert _rw_killing().residual < _number(value, values)


def _flux_sign(entry, values, value):
    result = _rw_killing()
    assert result.obstruction_ok
    assert ("positive" if result.flux > 0 else "not positive") == value


CHECKS = {
    "area": _area,
    "h_norm2": _h_norm2,
    "christoffel": _zero("christoffel"),
    "shape_tensor": _zero("shape"),
    "mean_curvature": _zero("mean_curvature"),
    "verdict": _verdict(),
    "verdict[r<2M]": _verdict(1.0),
    "verdict[r=2M]": _verdict(2.0),
    "verdict[r>2M]": _verdict(3.0),
    "h_parallel_null_killing": _h_parallel_null_killing,
    "radii": _radii,
    "verdicts": _transition_verdicts,
    "residual_below": _residual_below,
    "flux_sign": _flux_sign,
}
RECORDED = [(entry, draw) for entry in catalog.list_entries() if entry.expected
            for draw in ((None, 1, 2) if entry.params else (None,))]


@pytest.mark.parametrize("entry, draw", RECORDED, ids=[
    f"{e.name}-{'defaults' if d is None else f'draw{d}'}" for e, d in RECORDED])
def test_expected_records(entry, draw):
    params = {} if draw is None else _draw(entry, np.random.default_rng([draw, *entry.name.encode()]))
    values = entry.resolve_params(params)
    for key, record in entry.expected.items():
        assert key in CHECKS, f"no check for the record {key!r} of {entry.name!r}"
        CHECKS[key](entry, values, record["value"])
