"""Shape tensor, second fundamental forms, mean curvature vector,
expansions, and the causal classification of submanifolds.

Sign convention: K(x, y) = -(nabla_x y)^perp, so the mean curvature
vector of a round sphere in flat space points along the outward radial
direction and g(H, xi) integrates to the first variation of volume
along xi (see the variation module).

A classification keeps its per-node results as arrays (`LabelColumns`)
from the grid kernel to the report files.  Each float column is turned
into text once per report, and the JSON report (in the layout of
json.dumps(..., indent=2, sort_keys=True)) and the CSV table are both
written from those strings.  Geometry that is not finite at a node raises
a typed error, so no report holds a NaN.
"""

import csv
import functools
import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import quadrature
from .embedding import Embedding, InducedPointData, NodeBundle, sym_det
from .errors import DerivativeFailure, NotLorentzian, NotNormal, NotSpacelike
from .geometry import (_CAUSAL_CODES, _TIME_CODES, NULL_BAND_TOL, as_point,
                       causal_label, raise_first)
from .quadrature import GridSpec

NORMAL_TOL = 1e-6


@dataclass(frozen=True)
class ExtrinsicData(NodeBundle):
    """Shape tensor and mean curvature bundle at one parameter point, or at
    a block of them (see `InducedPointData`)."""

    base: InducedPointData
    dg: np.ndarray               # d_rho g_{mu nu} at p
    second_frame: np.ndarray     # d_a e_b^mu, as [mu, a, b]
    shape: np.ndarray            # K[mu, a, b], normal-valued, symmetric in (a, b)
    mean_curvature: np.ndarray   # H^mu = gamma^{ab} K^mu_{ab}
    h_norm2: float               # g(H, H)


@functools.cache
def _upper(d):
    """np.triu_indices(d), computed once per dimension."""
    return np.triu_indices(d)


def extrinsic_block(E: Embedding, us) -> ExtrinsicData:
    """K, H and g(H, H) at a block of parameter points (N, d), via the
    ambient connection and normal projection, in one pass of array calls.
    g and Phi are checked finite first, so a non-finite g(H, H) comes
    from a derivative."""
    data = E.induced_block(us)
    dg = E.ambient.partials_block(data.p)
    gam = E.ambient.christoffel_block(data.p, g_inv=data.g_inv, dg=dg)
    hess = E.second_frame_block(data.u)
    # grad[mu, a, b] = d_a e_b^mu + Gamma^mu_{rho sigma} e_a^rho e_b^sigma
    gam_e = gam @ data.frame[:, None]                   # [k, mu, rho, b]
    grad = hess + np.swapaxes(data.frame, 1, 2)[:, None] @ gam_e
    # project the a <= b entries in one block and mirror them
    a, b = _upper(E.dim)
    _, normal = E.decompose(grad[:, :, a, b], data)
    shape = np.empty_like(grad)
    shape[:, :, a, b] = shape[:, :, b, a] = -normal
    h_vec = np.einsum("kab,kmab->km", data.gamma_inv, shape)
    h2 = np.einsum("km,kmn,kn->k", h_vec, data.g, h_vec)
    raise_first(~np.isfinite(h2), DerivativeFailure, lambda i: (
        f"g(H, H) of {E.name!r} not finite at u={data.u[i]}"))
    return ExtrinsicData(base=data, dg=dg, second_frame=hess, shape=shape,
                         mean_curvature=h_vec, h_norm2=h2)


def extrinsic_data(E: Embedding, u) -> ExtrinsicData:
    """Compute K and H at u via the ambient connection and normal projection."""
    return extrinsic_block(E, as_point(u)[None]).node(0)


def _check_normal(E, u, n):
    """The extrinsic data at u, and n checked normal to E there."""
    ext = extrinsic_data(E, u)
    n, e, absg = np.asarray(n, dtype=float), ext.base.frame, ext.base.absg
    ref2 = (n @ absg @ n) * np.einsum("ma,mn,na->a", e, absg, e)   # |n|^2 |e_a|^2
    if np.any((n @ ext.base.g @ e) ** 2 > NORMAL_TOL ** 2 * ref2):
        raise NotNormal(f"vector {n} is not normal to {E.name!r} at u={ext.base.u}")
    return ext, n


def second_fundamental_form(E: Embedding, u, n):
    """(K_n)_{ab} = g(n, K(e_a, e_b)) for a normal vector n."""
    ext, n = _check_normal(E, u, n)
    return np.einsum("m,mn,nab->ab", n, ext.base.g, ext.shape)


def expansion(E: Embedding, u, n):
    """g(H, n), the expansion along the normal n."""
    ext, n = _check_normal(E, u, n)
    return float(ext.mean_curvature @ ext.base.g @ n)


def normal_frame(E: Embedding, data, t_vec):
    """The g-orthonormal normal frame n (N, D, D - d) of a spacelike S at
    induced block `data` and n2 = g(n_i, n_i) (N, D - d): first the unit normal
    part of the future vector `t_vec` (N, D), then g-Gram-Schmidt of the
    coordinate vectors' normal parts, the largest remaining g-norm first."""
    g, k = data.g, np.arange(len(data.g))
    vecs = t_vec[:, :, None]
    if E.codim > 1:   # the coordinate vectors follow T
        vecs = np.concatenate([vecs, np.broadcast_to(np.eye(E.ambient.dim), g.shape)], axis=2)
    _, c = E.decompose(vecs, data)
    n = c[:, :, :1]   # timelike, as S is spacelike, and future-pointing
    n = n / np.sqrt(-(np.swapaxes(n, 1, 2) @ g @ n))
    for _ in range(1, E.codim):   # project out the last column
        gn = np.swapaxes(n[:, :, -1:], 1, 2) @ g
        c = c - n[:, :, -1:] * (gn @ c) / (gn @ n[:, :, -1:])
        c2 = np.einsum("kmi,kmn,kni->ki", c, g, c)
        j = np.argmax(c2, axis=1)
        n = np.dstack([n, c[k, :, j] / np.sqrt(c2[k, j])[:, None]])
    return n, np.einsum("kmi,kmn,kni->ki", n, g, n)


def _future(E: Embedding, data):
    """The declared future vector T (N, D) at induced block `data`, where g
    must be Lorentzian (one negative eigenvalue) and T timelike."""
    t_vec = E.ambient.future_block(data.p)
    lorentzian = data.negatives == 1
    timelike = np.einsum("km,kmn,kn->k", t_vec, data.g, t_vec) < 0.0
    raise_first(~(lorentzian & timelike), NotLorentzian, lambda i: (
        f"metric {E.ambient.name!r} at {data.p[i]} (u={data.u[i]} of {E.name!r}): "
        + (f"the future vector T = {t_vec[i]} is not timelike" if lorentzian[i]
           else f"g has {data.negatives[i]} negative eigenvalues, not 1")))
    return t_vec


def positive_definite(gamma, det):
    """Whether each induced metric of a block (N, d, d) with determinants
    `det` is positive definite: Sylvester's test, every leading principal
    minor positive, the last of them `det`."""
    return np.all([sym_det(gamma[:, :j, :j]) > 0.0
                   for j in range(1, gamma.shape[-1])] + [det > 0.0], axis=0)


def _require_spacelike(E: Embedding, data):
    raise_first(~positive_definite(data.gamma, data.gamma_det), NotSpacelike,
                lambda i: f"{E.name!r} not spacelike at u={data.u[i]}")


def null_normal_pair(E: Embedding, u, outward):
    """Future null normal basis (l_plus, l_minus) with g(l+, l-) = -1: the
    N = 1 view of `normal_frame`.

    Only defined in codimension 2 with a spacelike S.  `outward` is a
    reference ambient vector; l_plus is the member with the larger
    g(., outward) ("outgoing").  The boost: g(l+-, T) = g(n_0, T)/sqrt(2) for
    the future vector T, as g(n_1, T) = g(n_1, PT) = 0 with n_0 ~ PT = T^perp.
    """
    if E.codim != 2:
        raise ValueError("null normal pair requires codimension 2")
    data = E.induced_block(as_point(u)[None])
    t_vec = _future(E, data)
    _require_spacelike(E, data)
    n, _ = normal_frame(E, data, t_vec)
    l_a, l_b = (n[0] @ [[1.0, 1.0], [1.0, -1.0]]).T / np.sqrt(2.0)
    g, out = data.g[0], np.asarray(outward, dtype=float)
    return (l_a, l_b) if l_a @ g @ out >= l_b @ g @ out else (l_b, l_a)


class LabelColumns(NamedTuple):
    """The causal label of H at each node of a block or grid, as arrays
    over its nodes; causal and time are integer codes into geometry's
    _CAUSAL_CODES and _TIME_CODES."""

    u: np.ndarray
    causal: np.ndarray
    time: np.ndarray
    h_norm2: np.ndarray
    ref_norm: np.ndarray     # positive-definite reference norm of H
    margin: np.ndarray       # |g(H,H)|/scale - tol, distance from the null band
    theta: np.ndarray = None  # only in codimension 1


def _classify_block(E: Embedding, us, tol):
    """Label columns at a block of parameter points.

    Requires a Lorentzian ambient with a timelike future vector and a
    spacelike submanifold (gamma positive definite) at every node.
    """
    ext = extrinsic_block(E, us)
    data = ext.base
    t_vec = _future(E, data)
    _require_spacelike(E, data)
    g, h_vec = data.g, ext.mean_curvature
    causal, time = causal_label(h_vec, g, data.absg, t_vec, tol=tol)
    scale = np.einsum("km,kmn,kn->k", h_vec, data.absg, h_vec)
    ref_norm = np.sqrt(np.maximum(scale, 0.0))
    positive = scale > 0.0
    margin = np.where(positive,
                      np.abs(ext.h_norm2) / np.where(positive, scale, 1.0) - tol, 0.0)
    theta = None
    if E.codim == 1:
        n, n2 = normal_frame(E, data, t_vec)
        theta = np.einsum("km,kmn,kn->k", h_vec, g, n[:, :, 0]) / n2[:, 0]
    return LabelColumns(data.u, causal, time, ext.h_norm2, ref_norm, margin, theta)


# the report strings of the label codes
_CAUSAL_NAMES = np.array([c.value for c in _CAUSAL_CODES])
_TIME_NAMES = np.array([t.value for t in _TIME_CODES])
_LABEL_NAMES = np.array([[f"{c}/{t}" for t in _TIME_NAMES] for c in _CAUSAL_NAMES])


def _float_reprs(col):
    """[repr(x) for x in col.tolist()], with repr called once per distinct
    64-bit pattern: grid coordinates repeat along every other axis.  Keyed
    on bits, not values, so 0.0 and -0.0 keep their own text."""
    bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


@dataclass(frozen=True)
class ClassificationReport:
    """Per-node label columns plus the aggregated submanifold verdict."""

    columns: LabelColumns
    verdict: str
    tolerance: float
    grid: GridSpec
    boundary_count: int
    min_margin: float
    metric_name: str = ""
    embedding_name: str = ""
    notes: tuple = ()

    @cached_property
    def _cells(self):
        """The text of each float column, formatted once for both writers:
        u (one list per axis), h_norm2, margin and, in codimension 1, theta."""
        cols = self.columns
        return {"u": [_float_reprs(axis) for axis in cols.u.T],
                "h_norm2": _float_reprs(cols.h_norm2),
                "margin": _float_reprs(cols.margin),
                "theta": None if cols.theta is None else _float_reprs(cols.theta)}

    def to_json(self):
        """The report as JSON text, laid out as json.dumps(..., indent=2,
        sort_keys=True) plus a newline; the points are formatted from the
        cells, one format string per node."""
        cols, cells = self.columns, self._cells
        node = ('    {\n      "causal": "%s",\n      "h_norm2": %s,\n      "margin": %s,\n'
                + ('      "theta": %s,\n' if cols.theta is not None else '')
                + '      "time": "%s",\n      "u": [\n'
                + ",\n".join(["        %s"] * cols.u.shape[1]) + '\n      ]\n    }')
        values = [_CAUSAL_NAMES[cols.causal].tolist(), cells["h_norm2"], cells["margin"]]
        if cols.theta is not None:
            values.append(cells["theta"])
        values += [_TIME_NAMES[cols.time].tolist(), *cells["u"]]
        points = ",\n".join(node % row for row in zip(*values))
        text = json.dumps({
            "schema": "report_v1",
            "kind": "classification",
            "metric": self.metric_name,
            "embedding": self.embedding_name,
            "verdict": self.verdict,
            "tolerances": {"null_band": float(self.tolerance)},
            "grid": {"points_per_axis": list(self.grid.points_per_axis)},
            "boundary_count": self.boundary_count,
            "min_margin": float(self.min_margin),
            "notes": list(self.notes),
            "points": [],
        }, indent=2, sort_keys=True) + "\n"
        # only a top-level key sits at a line start with two spaces and an
        # unescaped quote, so this splits at the points and nowhere else
        head, _, tail = text.partition('\n  "points": []')
        return f'{head}\n  "points": [\n{points}\n  ]{tail}'

    def to_csv(self, param_names):
        """The per-node table as CSV text, as csv.writer writes it: a header,
        then one row per node of the u cells, h_norm2, label and margin.  No
        cell needs quoting, so the rows come from one format string."""
        cols, cells = self.columns, self._cells
        header = io.StringIO()
        csv.writer(header).writerow([*param_names, "h_norm2", "label", "margin"])
        row = ",".join(["%s"] * (cols.u.shape[1] + 3)) + "\r\n"
        labels = _LABEL_NAMES[cols.causal, cols.time].tolist()
        return header.getvalue() + "".join(
            row % values for values in zip(*cells["u"], cells["h_norm2"], labels,
                                           cells["margin"]))


def _categories(cols, tol):
    """Each node's category: Z(ero), S(pacelike), B (within the null band
    but not clearly nonzero), and N(ull) or T(imelike), F(uture) or P(ast)."""
    # causal codes: 0 zero, 1 null, 2 timelike, 3 spacelike; time code 1 is future
    future = cols.time == 1
    oriented = np.where(cols.causal == 1, np.where(future, "NF", "NP"),
                        np.where(future, "TF", "TP"))
    return np.select([cols.causal == 0, cols.causal == 3,
                      (cols.causal == 1) & (cols.ref_norm <= 10.0 * tol)],
                     ["Z", "S", "B"], oriented)


def _aggregate(cats):
    if "B" in cats:
        return "Mixed", True
    if cats == {"Z"}:
        return "Extremal", False
    if cats == {"S"}:
        return "AbsolutelyNonTrapped", False
    if cats == {"TF"}:
        return "FutureTrapped", False
    if cats == {"TP"}:
        return "PastTrapped", False
    if cats <= {"TF", "NF"} and "TF" in cats:
        return "NearlyFutureTrapped", False
    if cats <= {"TP", "NP"} and "TP" in cats:
        return "NearlyPastTrapped", False
    if cats <= {"NF", "Z"} and "NF" in cats:
        return "MarginallyFutureTrapped", False
    if cats <= {"NP", "Z"} and "NP" in cats:
        return "MarginallyPastTrapped", False
    return "Mixed", False


def classify_submanifold(E: Embedding, grid: GridSpec, tol=NULL_BAND_TOL):
    """Evaluate the pointwise classification on the grid and aggregate.

    The universal quantifiers of the taxonomy are evaluated on the finite
    grid; the report records the resolution and the minimum margin so the
    caller can judge whether the grid resolves the transition.
    """
    points, _ = quadrature.grid_nodes(E.param_domain, E.periodic, grid)
    blocks = [_classify_block(E, block, tol) for block in quadrature.node_blocks(points)]
    cols = LabelColumns(*(None if parts[0] is None else np.concatenate(parts)
                          for parts in zip(*blocks)))
    categories = _categories(cols, tol)
    verdict, boundary = _aggregate(set(np.unique(categories).tolist()))
    notes = []
    if boundary:
        notes.append(
            "verdict Mixed due to points whose H sits between the zero and "
            "null-nonzero thresholds; refine the grid or adjust tolerances"
        )
    if E.codim == 1:
        notes.append("hypersurface with timelike normal: H = theta * n; "
                     "theta == 0 everywhere means a maximal hypersurface")
    return ClassificationReport(
        columns=cols,
        verdict=verdict,
        tolerance=tol,
        grid=grid,
        boundary_count=int(np.count_nonzero(categories == "B")),
        min_margin=float(cols.margin.min()),
        metric_name=E.ambient.name,
        embedding_name=E.name,
        notes=tuple(notes),
    )
