import csv
import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapsurf import catalog
from trapsurf.embedding import Embedding, embedding_from_expressions
from trapsurf.errors import ConfigError, NotLorentzian, NotNormal, NotSpacelike
from trapsurf.expressions import blockwise
from trapsurf.extrinsic import (
    LabelColumns,
    _categories,
    _classify_block,
    _float_reprs,
    classify_submanifold,
    expansion,
    extrinsic_block,
    extrinsic_data,
    normal_frame,
    null_normal_pair,
    second_fundamental_form,
)
from trapsurf.geometry import (_CAUSAL_CODES, _TIME_CODES, NULL_BAND_TOL, Causal,
                               TimeOrientation, metric_from_expressions)
from trapsurf.quadrature import GridSpec

from conftest import cat


def sphere_unit_normal(u):
    th, ph = u
    return np.array([0.0, math.sin(th) * math.cos(ph),
                     math.sin(th) * math.sin(ph), math.cos(th)])


def test_totally_geodesic_cases(rng):
    for name in ("straight_line", "spacelike_plane", "flat_torus",
                 "ppwave_torus", "comoving_worldline_rw"):
        emb = cat(name)
        for _ in range(5):
            u = emb.random_parameter_point(rng)
            shape = extrinsic_data(emb, u).shape
            assert shape.shape == (emb.ambient.dim, emb.dim, emb.dim)
            assert np.max(np.abs(shape)) < 1e-12


def test_sphere_shape_tensor_closed_form(rng):
    sphere = cat("round_sphere")  # radius 2
    for _ in range(20):
        u = sphere.random_parameter_point(rng)
        ext = extrinsic_data(sphere, u)
        n_hat = sphere_unit_normal(u)
        expected = np.einsum("m,ab->mab", n_hat, ext.base.gamma) / 2.0
        assert np.allclose(ext.shape, expected, atol=1e-10)
        # H = (2/r) n_hat points outward, so the volume grows along H
        assert np.allclose(ext.mean_curvature, n_hat, atol=1e-10)
        g = sphere.ambient.metric_block([ext.base.p])[0]
        assert float(ext.mean_curvature @ g @ n_hat) == pytest.approx(1.0,
                                                                      abs=1e-10)


def test_shape_tensor_is_symmetric_and_normal(rng):
    embeddings = [cat("round_sphere"), cat("ring_torus"), cat("ef_sphere"),
                  cat("comoving_sphere_rw"), cat("ppwave_wavy_torus")]
    for _ in range(30):
        emb = embeddings[rng.integers(len(embeddings))]
        u = emb.random_parameter_point(rng)
        ext = extrinsic_data(emb, u)
        assert np.max(np.abs(ext.shape - ext.shape.transpose(0, 2, 1))) < 1e-10
        g = emb.ambient.metric_block([ext.base.p])[0]
        scale = 1.0 + np.abs(ext.shape).max()
        for a in range(emb.dim):
            for b in range(emb.dim):
                for c in range(emb.dim):
                    inner = ext.shape[:, a, b] @ g @ ext.base.frame[:, c]
                    assert abs(inner) < 1e-8 * scale


def test_normality_of_finite_difference_shape(rng):
    emb = cat("ring_torus").without_analytic_derivatives()
    for _ in range(5):
        u = emb.random_parameter_point(rng)
        ext = extrinsic_data(emb, u)
        g = emb.ambient.metric_block([ext.base.p])[0]
        for a in range(emb.dim):
            inner = ext.mean_curvature @ g @ ext.base.frame[:, a]
            assert abs(inner) < 1e-5


def test_second_fundamental_form_and_trace(rng):
    sphere = cat("round_sphere")
    u = sphere.random_parameter_point(rng)
    data = sphere.induced_block([u]).node(0)
    n_hat = sphere_unit_normal(u)
    k_n = second_fundamental_form(sphere, u, n_hat)
    assert np.allclose(k_n, data.gamma / 2.0, atol=1e-10)
    # trace consistency: expansion along n equals tr(gamma^-1 K_n)
    trace = float(np.einsum("ab,ab->", data.gamma_inv, k_n))
    assert expansion(sphere, u, n_hat) == pytest.approx(trace, abs=1e-10)
    assert expansion(sphere, u, n_hat) == pytest.approx(1.0, abs=1e-10)


def test_non_normal_vector_rejected(rng):
    sphere = cat("round_sphere")
    u = sphere.random_parameter_point(rng)
    tangent = sphere.induced_block([u]).node(0).frame[:, 1]
    with pytest.raises(NotNormal):
        expansion(sphere, u, tangent)
    with pytest.raises(NotNormal):
        second_fundamental_form(sphere, u, tangent)


@pytest.mark.parametrize("radius", [2.0, 1e-9, 1e9])
def test_the_normal_check_is_scale_free(radius):
    # |g(n, e_a)| is weighed against |n| |e_a| alone: a unit tangent vector of
    # a tiny sphere is rejected, and a null normal is accepted at every size
    sphere, u = cat("round_sphere", radius=radius), np.array([1.2, 0.7])
    tangent = sphere.induced_block([u]).node(0).frame[:, 1]
    with pytest.raises(NotNormal):
        expansion(sphere, u, tangent / np.linalg.norm(tangent))
    lp, lm = null_normal_pair(sphere, u, [0.0, 1.0, 0.0, 0.0])
    assert expansion(sphere, u, lp) > 0.0 > expansion(sphere, u, lm)


def test_mean_curvature_closed_forms(rng):
    for radius in (1.0, 2.0, 3.0):
        sphere = cat("round_sphere", radius=radius)
        u = sphere.random_parameter_point(rng)
        ext = extrinsic_data(sphere, u)
        assert ext.h_norm2 == pytest.approx(4.0 / radius ** 2, abs=1e-8)

    curve = cat("accelerated_curve")  # accel = 2
    for _ in range(5):
        u = curve.random_parameter_point(rng)
        assert extrinsic_data(curve, u).h_norm2 == pytest.approx(4.0, abs=1e-8)

    worldline = cat("comoving_worldline_rw")
    for _ in range(5):
        u = worldline.random_parameter_point(rng)
        assert np.max(np.abs(extrinsic_data(worldline, u).mean_curvature)) < 1e-10


def test_ef_sphere_mean_curvature_closed_form(rng):
    for radius in (1.0, 2.0, 3.0):
        emb = cat("ef_sphere", radius=radius)
        u = emb.random_parameter_point(rng)
        expected = 4.0 * (1.0 - 2.0 / radius) / radius ** 2
        assert extrinsic_data(emb, u).h_norm2 == pytest.approx(expected,
                                                               abs=1e-8)


def test_normal_frame_spans_orthocomplement(rng):
    # a spacelike circle in the t = 0 slice of Minkowski: codimension 3, so
    # the Gram-Schmidt runs past two columns
    circle = embedding_from_expressions(
        cat("minkowski"), ("ph",), ["0", "3*cos(ph)", "3*sin(ph)", "0"],
        param_domain=[(0.0, 2.0 * math.pi)], periodic=(True,))
    for emb in (cat("ef_sphere"), cat("t_const_hypersurface_rw"), circle,
                cat("round_sphere")):
        data = emb.induced_block([emb.random_parameter_point(rng) for _ in range(5)])
        t_vec = emb.ambient.future_block(data.p)
        n, n2 = normal_frame(emb, data, t_vec)
        k = emb.codim
        assert n.shape == (5, emb.ambient.dim, k) and n2.shape == (5, k)
        n_t = np.swapaxes(n, 1, 2)
        assert np.abs(n_t @ data.g @ data.frame).max() < 1e-10
        # g-orthonormal, timelike columns first and future-pointing
        assert np.allclose(n_t @ data.g @ n, n2[:, :, None] * np.eye(k), atol=1e-10)
        assert np.allclose(np.abs(n2), 1.0)
        assert np.all(np.diff(np.sign(n2), axis=1) >= 0.0)
        assert np.all(np.einsum("kmi,kmn,kn->ki", n, data.g, t_vec)[n2 < 0.0] < 0.0)


def test_null_normal_pair_expansions():
    outward = np.array([0.0, 1.0, 0.0, 0.0])  # d/dr
    u = np.array([1.2, 0.7])
    # horizon sphere: outgoing expansion vanishes, ingoing is negative
    horizon = cat("ef_sphere", radius=2.0)
    lp, lm = null_normal_pair(horizon, u, outward)
    g = horizon.ambient.metric_block([horizon.point(u)])[0]
    t_vec = horizon.ambient.time_orientation(horizon.point(u)[None])[0]
    assert abs(lp @ g @ lp) < 1e-10
    assert abs(lm @ g @ lm) < 1e-10
    assert lp @ g @ lm == pytest.approx(-1.0, abs=1e-10)
    assert lp @ g @ t_vec < 0.0 and lm @ g @ t_vec < 0.0  # both future
    assert expansion(horizon, u, lp) == pytest.approx(0.0, abs=1e-9)
    assert expansion(horizon, u, lm) < 0.0

    for radius, signs in ((1.0, (-1, -1)), (3.0, (1, -1))):
        emb = cat("ef_sphere", radius=radius)
        lp, lm = null_normal_pair(emb, u, outward)
        tp, tm = expansion(emb, u, lp), expansion(emb, u, lm)
        assert np.sign(tp) == signs[0] and np.sign(tm) == signs[1]
        # boost-invariant combination recovers g(H, H)
        assert -2.0 * tp * tm == pytest.approx(
            extrinsic_data(emb, u).h_norm2, abs=1e-9)


def _catalog_embeddings():
    return [cat(e.name) for e in catalog.list_entries() if e.kind == "embedding"]


def test_null_expansions_give_the_mean_curvature_norm(rng):
    # g(H, H) = -2 theta_+ theta_- with g(l+, l-) = -1, on every spacelike
    # codimension-2 catalog surface and across the Schwarzschild horizon
    cases = [emb for emb in _catalog_embeddings() if emb.codim == 2 and np.all(
        np.linalg.eigvalsh(emb.induced_block([emb.random_parameter_point(rng)]).gamma[0])
        > 0.0)]
    cases += [cat("ef_sphere", radius=r) for r in (1.5, 2.0, 3.0)]
    assert len(cases) >= 12
    for emb in cases:
        for _ in range(8):
            u = emb.random_parameter_point(rng)
            lp, lm = null_normal_pair(emb, u, rng.normal(size=4))
            p = emb.point(u)
            g, t_vec = emb.ambient.metric_block([p])[0], emb.ambient.future_block(p[None])[0]
            assert abs(lp @ g @ lp) < 1e-12 and abs(lm @ g @ lm) < 1e-12
            assert lp @ g @ lm == pytest.approx(-1.0, abs=1e-12)
            assert lp @ g @ t_vec < 0.0 and lm @ g @ t_vec < 0.0
            # the boost: g(l+, T) = g(l-, T) = g(n_0, T)/sqrt(2)
            assert abs((lp - lm) @ g @ t_vec) <= 1e-12 * abs(lp @ g @ t_vec), emb.name
            h2 = extrinsic_data(emb, u).h_norm2
            theta = expansion(emb, u, lp) * expansion(emb, u, lm)
            assert abs(h2 + 2.0 * theta) <= 1e-12 * max(1.0, abs(h2)), emb.name


def test_finite_differences_match_the_analytic_extrinsic_bundle(rng):
    # FD errors in d^2 Phi are absolute in the ambient scale, and gamma^-1
    # amplifies them by the induced metric's condition number: near the
    # poles of a sphere chart it grows like 1/sin^2(theta).  An embedding
    # given a jacobian but no hessian differences Phi for its second frame.
    for emb in _catalog_embeddings():
        us = np.array([emb.random_parameter_point(rng) for _ in range(64)])
        analytic = extrinsic_block(emb, us)
        bound = 1e-7 * np.linalg.cond(analytic.base.gamma)
        no_hessian = replace(emb, hessian=None)
        assert np.array_equal(no_hessian.second_frame_block(us),
                              emb.without_analytic_derivatives().second_frame_block(us))
        for fd in (extrinsic_block(emb.without_analytic_derivatives(), us),
                   extrinsic_block(no_hessian, us)):
            for a, f in ((analytic.shape, fd.shape),
                         (analytic.mean_curvature, fd.mean_curvature),
                         (analytic.h_norm2, fd.h_norm2)):
                err = (np.abs(f - a) / np.maximum(1.0, np.abs(a))).reshape(len(us), -1)
                assert np.all(err.max(axis=1) <= bound), emb.name


def test_null_normal_pair_requires_spacelike_codim2():
    with pytest.raises(NotSpacelike):
        null_normal_pair(cat("timelike_plane"), [0.1, 0.1], [0, 0, 1, 0])
    with pytest.raises(ValueError):
        null_normal_pair(cat("straight_line"), [0.5], [0, 1, 0, 0])


@pytest.mark.parametrize("g00, space, orientation, error", [
    ("1", "1", ["1", "0", "0", "0"], NotLorentzian),          # all plus
    ("-1", "t**2", ["0", "1", "0", "0"], NotLorentzian),      # RW, spacelike T
    ("-1", "t**2", None, ConfigError),                        # no time orientation
])
def test_causal_classification_checks_the_ambient_at_every_node(g00, space,
                                                                orientation, error):
    comps = [[g00 if i == j == 0 else space if i == j else "0" for j in range(4)]
             for i in range(4)]
    metric = metric_from_expressions(("t", "x", "y", "z"), comps,
                                     time_orientation=orientation)
    sphere = embedding_from_expressions(
        metric, ("th", "ph"), ["2", "5*sin(th)*cos(ph)", "5*sin(th)*sin(ph)", "5*cos(th)"],
        param_domain=[(0.0, math.pi), (0.0, 2.0 * math.pi)], periodic=(False, True))
    with pytest.raises(error):
        null_normal_pair(sphere, [1.0, 0.5], [0, 1, 0, 0])
    with pytest.raises(error):
        classify_submanifold(sphere, GridSpec((4, 4)))


def _node_labels(cols):
    """An independent per-node reference of label columns: one record per
    node, its causal and time codes decoded one by one."""
    return [SimpleNamespace(
        u=cols.u[i], causal=_CAUSAL_CODES[cols.causal[i]], time=_TIME_CODES[cols.time[i]],
        h_norm2=float(cols.h_norm2[i]), ref_norm=float(cols.ref_norm[i]),
        margin=float(cols.margin[i]),
        theta=None if cols.theta is None else float(cols.theta[i]))
        for i in range(len(cols.u))]


def _classify_point(E, u):
    """The label at one parameter point: the N = 1 case of the grid kernel."""
    return _node_labels(_classify_block(E, np.array([u], dtype=float), NULL_BAND_TOL))[0]


def test_classify_point_examples():
    u = [1.0, 1.0]
    lab = _classify_point(cat("ef_sphere", radius=1.0), u)
    assert (lab.causal, lab.time) == (Causal.TIMELIKE, TimeOrientation.FUTURE)
    lab = _classify_point(cat("ef_sphere", radius=2.0), u)
    assert (lab.causal, lab.time) == (Causal.NULL, TimeOrientation.FUTURE)
    lab = _classify_point(cat("ef_sphere", radius=3.0), u)
    assert lab.causal is Causal.SPACELIKE
    lab = _classify_point(cat("round_sphere"), u)
    assert lab.causal is Causal.SPACELIKE
    lab = _classify_point(cat("flat_torus"), u)
    assert lab.causal is Causal.ZERO
    with pytest.raises(NotSpacelike):
        _classify_point(cat("timelike_plane"), [0.2, 0.2])


def test_node_geometry_is_evaluated_once(monkeypatch):
    emb = cat("ef_sphere")
    components = emb.ambient.components
    blocks = []

    @blockwise
    def counted_components(points):
        blocks.append(np.shape(points))
        return components(points)

    counted = replace(emb, ambient=replace(emb.ambient, components=counted_components))
    decomposes = []

    def counted_decompose(self, *args, _original=Embedding.decompose):
        decomposes.append(1)
        return _original(self, *args)

    monkeypatch.setattr(Embedding, "decompose", counted_decompose)
    report = classify_submanifold(counted, GridSpec((4, 8)))
    assert len(report.columns.u) == 32
    # one batched evaluation of g serves the frame, |g|, Christoffels and labels
    assert blocks == [(32, 4)]
    assert decomposes == [1]


def test_classification_verdicts():
    grid = GridSpec((12, 24))
    expected = {
        1.0: "FutureTrapped",
        1.5: "FutureTrapped",
        1.9: "FutureTrapped",
        2.0: "MarginallyFutureTrapped",
        2.1: "AbsolutelyNonTrapped",
        3.0: "AbsolutelyNonTrapped",
    }
    for radius, verdict in expected.items():
        report = classify_submanifold(cat("ef_sphere", radius=radius), grid)
        assert report.verdict == verdict, radius
        assert report.boundary_count == 0

    assert classify_submanifold(cat("round_sphere"), grid).verdict == \
        "AbsolutelyNonTrapped"
    assert classify_submanifold(cat("flat_torus"), grid).verdict == "Extremal"
    assert classify_submanifold(cat("spacelike_plane"), grid).verdict == \
        "Extremal"


def test_expanding_hypersurface_is_past_trapped():
    # comoving slice of an expanding universe: H = -(3 adot / a) d/dt
    emb = cat("t_const_hypersurface_rw")  # a = t at t = 2
    report = classify_submanifold(emb, GridSpec((4, 4, 4)))
    assert report.verdict == "PastTrapped"
    assert any("hypersurface" in note for note in report.notes)
    assert report.columns.theta == pytest.approx(np.full(64, -1.5), abs=1e-9)


def test_h_norm2_monotone_toward_horizon():
    # g(H,H) = 4(1 - 2M/r)/r^2 increases on (0, 3M]
    u = np.array([1.3, 0.4])
    values = [extrinsic_data(cat("ef_sphere", radius=r), u).h_norm2
              for r in (1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_mean_curvature_is_isometry_equivariant(rng):
    # a boosted sphere is congruent to the original: g(H, H) is unchanged
    sphere = cat("round_sphere")
    rapidity = 0.3
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = math.cosh(rapidity)
    boost[0, 1] = boost[1, 0] = math.sinh(rapidity)
    boosted = Embedding(
        ambient=sphere.ambient, dim=2,
        chart_map=lambda u: boost @ sphere.point(u),
        param_domain=sphere.param_domain, periodic=sphere.periodic,
        closed=True, name="boosted_sphere",
    )
    for _ in range(5):
        u = sphere.random_parameter_point(rng)
        assert extrinsic_data(boosted, u).h_norm2 == pytest.approx(
            extrinsic_data(sphere, u).h_norm2, abs=1e-8)


def test_report_serialization_round_trip():
    report = classify_submanifold(cat("round_sphere"), GridSpec((4, 4)))
    data = json.loads(report.to_json())
    assert data["schema"] == "report_v1"
    assert data["kind"] == "classification"
    assert data["verdict"] == "AbsolutelyNonTrapped"
    assert len(data["points"]) == 16
    header, *rows = csv.reader(io.StringIO(report.to_csv(("u1", "u2"))))
    assert header == ["u1", "u2", "h_norm2", "label", "margin"]
    assert len(rows) == 16
    assert {row[3] for row in rows} == {"Spacelike/NotApplicable"}
    assert [float(row[0]) for row in rows] == report.columns.u[:, 0].tolist()


def _odd_name_sphere():
    """A round sphere whose name holds the points key, quotes, a backslash
    and a newline, as a JSON writer that splices text must survive."""
    return embedding_from_expressions(
        cat("minkowski"), ("u1", "u2"),
        ["0", "sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
        param_domain=[(0.0, math.pi), (0.0, 2.0 * math.pi)], periodic=[False, True],
        closed=True, name='odd\n  "points": [] \\ "sphere"')


WRITER_REPORTS = {
    "ef_sphere": lambda: classify_submanifold(cat("ef_sphere"), GridSpec((8, 16))),
    "rw_slice": lambda: classify_submanifold(cat("t_const_hypersurface_rw"),
                                             GridSpec((4, 4, 4))),
    "ppwave_mixed": lambda: classify_submanifold(cat("ppwave_wavy_torus"),
                                                 GridSpec((12, 12))),
    "odd_name": lambda: classify_submanifold(_odd_name_sphere(), GridSpec((4, 6))),
}


@pytest.mark.parametrize("name", WRITER_REPORTS)
def test_report_json_and_csv_are_written_from_the_columns(name):
    report = WRITER_REPORTS[name]()
    # JSON: the stdlib layout, holding the values of the per-node reference
    text = report.to_json()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    labels = _node_labels(report.columns)
    expected = []
    for lab in labels:
        point = {"causal": lab.causal.value, "h_norm2": lab.h_norm2,
                 "margin": lab.margin, "time": lab.time.value, "u": lab.u.tolist()}
        if lab.theta is not None:
            point["theta"] = lab.theta
        expected.append(point)
    assert data["points"] == expected
    assert data["verdict"] == report.verdict
    assert data["embedding"] == report.embedding_name
    assert (name == "rw_slice") == ("theta" in data["points"][0])
    assert (name == "ppwave_mixed") == (report.verdict == "Mixed")
    # CSV: exactly the text csv.writer makes of the per-node reference rows
    params = tuple(f"u{a + 1}" for a in range(report.columns.u.shape[1]))
    buffer = io.StringIO()
    csv.writer(buffer).writerows([[*params, "h_norm2", "label", "margin"]] + [
        [*lab.u.tolist(), lab.h_norm2, f"{lab.causal.value}/{lab.time.value}", lab.margin]
        for lab in labels])
    assert report.to_csv(params) == buffer.getvalue()


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308)


@settings(derandomize=True, deadline=None)
@example([-0.0, 0.0, -0.0, 5e-324, 0.0])
@given(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                min_size=1, max_size=12)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)))
def test_float_reprs_match_repr(values):
    col = np.array(values)
    expected = [repr(x) for x in col.tolist()]
    assert _float_reprs(col) == expected
    # a strided view, as the u axes of a report are
    assert _float_reprs(np.stack([col, col], axis=1)[:, 1]) == expected


def _point_category(lab, tol):
    """The category rules node by node, as the reference for _categories."""
    if lab.causal is Causal.ZERO:
        return "Z"
    if lab.causal is Causal.SPACELIKE:
        return "S"
    if lab.causal is Causal.NULL:
        if lab.ref_norm <= 10.0 * tol:
            return "B"
        return "NF" if lab.time is TimeOrientation.FUTURE else "NP"
    return "TF" if lab.time is TimeOrientation.FUTURE else "TP"


def test_categories_follow_the_pointwise_rules():
    tol = 1e-9
    # every causal and time code, with |H| below, at and above the B band edge
    causal, time, ref_norm = (a.ravel() for a in np.meshgrid(
        np.arange(4), np.arange(3), [5.0 * tol, 10.0 * tol, 20.0 * tol], indexing="ij"))
    zeros = np.zeros(len(causal))
    cols = LabelColumns(np.zeros((len(causal), 2)), causal, time, zeros, ref_norm, zeros)
    assert _categories(cols, tol).tolist() == [
        _point_category(lab, tol) for lab in _node_labels(cols)]
