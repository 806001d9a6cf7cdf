"""Shape tensor, second fundamental forms, mean curvature vector,
expansions, and the causal classification of submanifolds.

Sign convention: K(x, y) = -(nabla_x y)^perp, so the mean curvature
vector of a round sphere in flat space points along the outward radial
direction and g(H, xi) integrates to the first variation of volume
along xi (see the variation module).

A classification keeps its per-node results as arrays (`LabelColumns`)
from the grid kernel to the report files, written in the layout of
json.dumps(..., indent=2, sort_keys=True); `report.labels` is a per-node
PointLabel view built on demand.  Geometry that is not finite at a node
raises a typed error, so no report holds a NaN.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadrature
from .embedding import Embedding, InducedPointData, NodeBundle
from .errors import DerivativeFailure, NotNormal, NotSpacelike
from .geometry import (_CAUSAL_CODES, _TIME_CODES, NULL_BAND_TOL, Causal,
                       TimeOrientation, as_point, causal_label, raise_first)
from .quadrature import GridSpec

NORMAL_TOL = 1e-6

VERDICTS = (
    "FutureTrapped",
    "PastTrapped",
    "NearlyFutureTrapped",
    "NearlyPastTrapped",
    "MarginallyFutureTrapped",
    "MarginallyPastTrapped",
    "Extremal",
    "AbsolutelyNonTrapped",
    "Mixed",
)


@dataclass(frozen=True)
class ExtrinsicData(NodeBundle):
    """Shape tensor and mean curvature bundle at one parameter point, or at
    a block of them (see `InducedPointData`)."""

    base: InducedPointData
    shape: np.ndarray            # K[mu, a, b], normal-valued, symmetric in (a, b)
    mean_curvature: np.ndarray   # H^mu = gamma^{ab} K^mu_{ab}
    h_norm2: float               # g(H, H)


def extrinsic_block(E: Embedding, us) -> ExtrinsicData:
    """K, H and g(H, H) at a block of parameter points (N, d), via the
    ambient connection and normal projection, in one pass of array calls.
    g and Phi are checked finite first, so a non-finite g(H, H) comes
    from a derivative."""
    data = E.induced_block(us)
    gam = E.ambient.christoffel_block(data.p, g=data.g)
    hess = E.second_frame_block(data.u)
    # grad[mu, a, b] = d_a e_b^mu + Gamma^mu_{rho sigma} e_a^rho e_b^sigma
    gam_e = gam @ data.frame[:, None]                   # [k, mu, rho, b]
    grad = hess + np.swapaxes(data.frame, 1, 2)[:, None] @ gam_e
    # project the a <= b entries in one block and mirror them
    a, b = np.triu_indices(E.dim)
    _, normal = E.decompose(data.u, grad[:, :, a, b], data=data)
    shape = np.empty_like(grad)
    shape[:, :, a, b] = shape[:, :, b, a] = -normal
    h_vec = np.einsum("kab,kmab->km", data.gamma_inv, shape)
    h2 = np.einsum("km,kmn,kn->k", h_vec, data.g, h_vec)
    raise_first(~np.isfinite(h2), DerivativeFailure, lambda i: (
        f"g(H, H) of {E.name!r} not finite at u={data.u[i]}"))
    return ExtrinsicData(base=data, shape=shape, mean_curvature=h_vec, h_norm2=h2)


def extrinsic_data(E: Embedding, u) -> ExtrinsicData:
    """Compute K and H at u via the ambient connection and normal projection."""
    return extrinsic_block(E, as_point(u)[None]).node(0)


def _check_normal(E, data, n):
    n = np.asarray(n, dtype=float)
    absg = data.absg
    n_ref = np.sqrt(max(float(n @ absg @ n), 0.0))
    for a in range(E.dim):
        e_ref = np.sqrt(max(float(data.frame[:, a] @ absg @ data.frame[:, a]), 0.0))
        if abs(float(n @ data.g @ data.frame[:, a])) > NORMAL_TOL * (1.0 + n_ref * e_ref):
            raise NotNormal(f"vector {n} is not normal to {E.name!r} at u={data.u}")
    return n


def second_fundamental_form(E: Embedding, u, n):
    """(K_n)_{ab} = g(n, K(e_a, e_b)) for a normal vector n."""
    ext = extrinsic_data(E, u)
    n = _check_normal(E, ext.base, n)
    return np.einsum("m,mn,nab->ab", n, ext.base.g, ext.shape)


def expansion(E: Embedding, u, n):
    """g(H, n), the expansion along the normal n."""
    ext = extrinsic_data(E, u)
    n = _check_normal(E, ext.base, n)
    return float(ext.mean_curvature @ ext.base.g @ n)


def normal_space_basis(E: Embedding, data):
    """Columns spanning the normal space of induced `data`: (D, D - d) at
    one point, (N, D, D - d) for a block."""
    a_mat = np.swapaxes(data.frame, -1, -2) @ data.g  # (d, D); kernel = normal space
    _, _, vt = np.linalg.svd(a_mat)
    return np.swapaxes(vt[..., E.dim:, :], -1, -2)


def null_normal_pair(E: Embedding, u, outward):
    """Future null normal basis (l_plus, l_minus) with g(l+, l-) = -1.

    Only defined in codimension 2 with a spacelike S.  `outward` is a
    reference ambient vector; l_plus is the member with the larger
    g(., outward) ("outgoing").  The residual boost freedom is fixed by
    giving l+ and l- equal reference norms.
    """
    if E.codim != 2:
        raise ValueError("null normal pair requires codimension 2")
    data = E.induced(u)
    if np.linalg.eigvalsh(data.gamma)[0] <= 0.0:
        raise NotSpacelike(f"{E.name!r} not spacelike at u={u}")
    g = data.g
    basis = normal_space_basis(E, data)
    h = basis.T @ g @ basis  # 2x2 normal metric, Lorentzian
    w, v = np.linalg.eigh(h)
    if not (w[0] < 0.0 < w[1]):
        raise NotSpacelike("normal metric is not Lorentzian")
    w_time = basis @ (v[:, 0] / np.sqrt(-w[0]))
    w_space = basis @ (v[:, 1] / np.sqrt(w[1]))
    if float(w_time @ g @ E.ambient.future_block(data.p[None])[0]) > 0.0:
        w_time = -w_time
    l_a = (w_time + w_space) / np.sqrt(2.0)
    l_b = (w_time - w_space) / np.sqrt(2.0)
    out = np.asarray(outward, dtype=float)
    if float(l_a @ g @ out) >= float(l_b @ g @ out):
        return l_a, l_b
    return l_b, l_a


@dataclass(frozen=True)
class PointLabel:
    """Causal label of H at one grid point."""

    u: np.ndarray
    causal: Causal
    time: TimeOrientation
    h_norm2: float
    ref_norm: float   # positive-definite reference norm of H
    margin: float     # |g(H,H)|/scale - tol, distance from the null band
    theta: float = None  # only in codimension 1


class LabelColumns(NamedTuple):
    """The per-node labels of a block or grid as arrays over its nodes,
    in PointLabel's field order; causal and time are integer codes into
    geometry's _CAUSAL_CODES and _TIME_CODES."""

    u: np.ndarray
    causal: np.ndarray
    time: np.ndarray
    h_norm2: np.ndarray
    ref_norm: np.ndarray
    margin: np.ndarray
    theta: np.ndarray = None

    def point_labels(self):
        """One PointLabel per node."""
        theta = [None] * len(self.u) if self.theta is None else self.theta.tolist()
        return tuple(map(PointLabel, self.u, _CAUSAL_CODES[self.causal],
                         _TIME_CODES[self.time], self.h_norm2.tolist(),
                         self.ref_norm.tolist(), self.margin.tolist(), theta))


def _classify_block(E: Embedding, us, tol):
    """Label columns at a block of parameter points."""
    ext = extrinsic_block(E, us)
    data = ext.base
    raise_first(np.linalg.eigvalsh(data.gamma)[:, 0] <= 0.0, NotSpacelike,
                lambda i: f"{E.name!r} not spacelike at u={data.u[i]}")
    g, h_vec = data.g, ext.mean_curvature
    t_vec = E.ambient.future_block(data.p)
    causal, time = causal_label(h_vec, g, data.absg, t_vec, tol=tol)
    scale = np.einsum("km,kmn,kn->k", h_vec, data.absg, h_vec)
    ref_norm = np.sqrt(np.maximum(scale, 0.0))
    positive = scale > 0.0
    margin = np.where(positive,
                      np.abs(ext.h_norm2) / np.where(positive, scale, 1.0) - tol, 0.0)
    theta = None
    if E.codim == 1:
        n = normal_space_basis(E, data)[:, :, 0]
        n2 = np.einsum("km,kmn,kn->k", n, g, n)
        n = n / np.sqrt(np.abs(n2))[:, None]
        n2 = np.einsum("km,kmn,kn->k", n, g, n)
        # orient timelike normals to the future
        flip = (n2 < 0.0) & (np.einsum("km,kmn,kn->k", n, g, t_vec) > 0.0)
        n = np.where(flip[:, None], -n, n)
        theta = np.einsum("km,kmn,kn->k", h_vec, g, n) / n2
    return LabelColumns(data.u, causal, time, ext.h_norm2, ref_norm, margin, theta)


def classify_point(E: Embedding, u) -> PointLabel:
    """Causal character of the mean curvature vector at one point.

    Requires the submanifold to be spacelike at u (gamma positive
    definite) and a Lorentzian ambient with a time orientation.
    """
    return _classify_block(E, as_point(u)[None], NULL_BAND_TOL).point_labels()[0]


# the report strings of the label codes
_CAUSAL_NAMES = np.array([c.value for c in _CAUSAL_CODES])
_TIME_NAMES = np.array([t.value for t in _TIME_CODES])
_LABEL_NAMES = np.array([[f"{c}/{t}" for t in _TIME_NAMES] for c in _CAUSAL_NAMES])


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

    @property
    def labels(self):
        """The per-node PointLabel view, built on each access."""
        return self.columns.point_labels()

    def to_json(self):
        """The report as JSON text, laid out as json.dumps(..., indent=2,
        sort_keys=True) plus a newline; the points are formatted from the
        columns, one format string per node."""
        cols = self.columns
        node = ('    {\n      "causal": "%s",\n      "h_norm2": %r,\n      "margin": %r,\n'
                + ('      "theta": %r,\n' if cols.theta is not None else '')
                + '      "time": "%s",\n      "u": [\n'
                + ",\n".join(["        %r"] * cols.u.shape[1]) + '\n      ]\n    }')
        values = [_CAUSAL_NAMES[cols.causal].tolist(), cols.h_norm2.tolist(),
                  cols.margin.tolist()]
        if cols.theta is not None:
            values.append(cols.theta.tolist())
        values += [_TIME_NAMES[cols.time].tolist(), *cols.u.T.tolist()]
        points = ",\n".join(node % row for row in zip(*values))
        text = json.dumps({
            "schema": "report_v1",
            "kind": "classification",
            "metric": self.metric_name,
            "embedding": self.embedding_name,
            "verdict": self.verdict,
            "tolerances": {"null_band": float(self.tolerance)},
            "grid": {
                "points_per_axis": list(self.grid.points_per_axis),
                "rule": self.grid.rule,
            },
            "boundary_count": self.boundary_count,
            "min_margin": float(self.min_margin),
            "notes": list(self.notes),
            "points": [],
        }, indent=2, sort_keys=True) + "\n"
        # only a top-level key sits at a line start with two spaces and an
        # unescaped quote, so this splits at the points and nowhere else
        head, _, tail = text.partition('\n  "points": []')
        return f'{head}\n  "points": [\n{points}\n  ]{tail}'

    def to_csv_rows(self, param_names):
        cols = self.columns
        labels = _LABEL_NAMES[cols.causal, cols.time].tolist()
        return [list(param_names) + ["h_norm2", "label", "margin"],
                *zip(*cols.u.T.tolist(), cols.h_norm2.tolist(), labels,
                     cols.margin.tolist())]


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
