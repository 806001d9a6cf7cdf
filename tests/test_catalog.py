import math

import numpy as np
import pytest

from trapsurf import catalog
from trapsurf.errors import ParamOutOfRange, UnknownEntry
from trapsurf.extrinsic import classify_submanifold
from trapsurf.quadrature import GridSpec
from trapsurf.variation import conformal_check

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


def test_transition_scenario_regression():
    entry = catalog.get_entry("schwarzschild_transition")
    radii = entry.expected["radii"]["value"]
    verdicts = entry.expected["verdicts"]["value"]
    grid = GridSpec((12, 24))
    for radius, verdict in zip(radii, verdicts):
        report = classify_submanifold(cat("ef_sphere", radius=radius), grid)
        assert report.verdict == verdict, radius
