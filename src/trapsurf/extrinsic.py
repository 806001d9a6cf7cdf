"""Shape tensor, second fundamental forms, mean curvature vector,
expansions, and the causal classification of submanifolds.

Sign convention: K(x, y) = -(nabla_x y)^perp, so the mean curvature
vector of a round sphere in flat space points along the outward radial
direction and g(H, xi) integrates to the first variation of volume
along xi (see the variation module).
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .embedding import Embedding, InducedPointData
from .errors import NotNormal, NotSpacelike
from .geometry import NULL_BAND_TOL, Causal, TimeOrientation, causal_label
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
class ExtrinsicData:
    """Shape tensor and mean curvature bundle at one parameter point."""

    base: InducedPointData
    shape: np.ndarray            # K[mu, a, b], normal-valued, symmetric in (a, b)
    mean_curvature: np.ndarray   # H^mu = gamma^{ab} K^mu_{ab}
    h_norm2: float               # g(H, H)


def extrinsic_data(E: Embedding, u) -> ExtrinsicData:
    """Compute K and H at u via the ambient connection and normal projection."""
    data = E.induced(u)
    gam = E.ambient.christoffel_at(data.p)
    hess = E.second_frame_at(u)
    # grad[mu, a, b] = d_a e_b^mu + Gamma^mu_{rho sigma} e_a^rho e_b^sigma
    grad = hess + np.einsum("mrs,ra,sb->mab", gam, data.frame, data.frame)
    # project the a <= b entries in one block and mirror them
    a, b = np.triu_indices(E.dim)
    _, normal = E.decompose(u, grad[:, a, b], data=data)
    shape = np.empty_like(grad)
    shape[:, a, b] = shape[:, b, a] = -normal
    h_vec = np.einsum("ab,mab->m", data.gamma_inv, shape)
    h2 = float(h_vec @ data.g @ h_vec)
    return ExtrinsicData(base=data, shape=shape, mean_curvature=h_vec, h_norm2=h2)


def _check_normal(E, data, n, tol):
    n = np.asarray(n, dtype=float)
    absg = data.absg
    n_ref = np.sqrt(max(float(n @ absg @ n), 0.0))
    for a in range(E.dim):
        e_ref = np.sqrt(max(float(data.frame[:, a] @ absg @ data.frame[:, a]), 0.0))
        if abs(float(n @ data.g @ data.frame[:, a])) > tol * (1.0 + n_ref * e_ref):
            raise NotNormal(
                f"vector {n} is not normal to {E.name!r} at u={data.u}"
            )
    return n


def second_fundamental_form(E: Embedding, u, n, tol=NORMAL_TOL):
    """(K_n)_{ab} = g(n, K(e_a, e_b)) for a normal vector n."""
    ext = extrinsic_data(E, u)
    n = _check_normal(E, ext.base, n, tol)
    return np.einsum("m,mn,nab->ab", n, ext.base.g, ext.shape)


def expansion(E: Embedding, u, n, tol=NORMAL_TOL):
    """g(H, n), the expansion along the normal n."""
    ext = extrinsic_data(E, u)
    n = _check_normal(E, ext.base, n, tol)
    return float(ext.mean_curvature @ ext.base.g @ n)


def normal_space_basis(E: Embedding, u, data=None):
    """Orthocomplement basis: columns span the normal space at Phi(u)."""
    if data is None:
        data = E.induced(u)
    a_mat = data.frame.T @ data.g  # (d, D); kernel = normal space
    _, _, vt = np.linalg.svd(a_mat)
    return vt[E.dim:].T


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
    basis = normal_space_basis(E, u, data=data)
    h = basis.T @ g @ basis  # 2x2 normal metric, Lorentzian
    w, v = np.linalg.eigh(h)
    if not (w[0] < 0.0 < w[1]):
        raise NotSpacelike("normal metric is not Lorentzian")
    w_time = basis @ (v[:, 0] / np.sqrt(-w[0]))
    w_space = basis @ (v[:, 1] / np.sqrt(w[1]))
    if float(w_time @ g @ E.ambient.future_vector(data.p)) > 0.0:
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


def classify_point(E: Embedding, u, tol=NULL_BAND_TOL) -> PointLabel:
    """Causal character of the mean curvature vector at one point.

    Requires the submanifold to be spacelike at u (gamma positive
    definite) and a Lorentzian ambient with a time orientation.
    """
    ext = extrinsic_data(E, u)
    data = ext.base
    if np.linalg.eigvalsh(data.gamma)[0] <= 0.0:
        raise NotSpacelike(f"{E.name!r} not spacelike at u={u}")
    g, h_vec = data.g, ext.mean_curvature
    t_vec = E.ambient.future_vector(data.p)
    causal, time = causal_label(h_vec, g, data.absg, t_vec, tol=tol)
    scale = float(h_vec @ data.absg @ h_vec)
    ref_norm = np.sqrt(max(scale, 0.0))
    margin = abs(ext.h_norm2) / scale - tol if scale > 0.0 else 0.0
    theta = None
    if E.codim == 1:
        n = normal_space_basis(E, u, data=data)[:, 0]
        n2 = float(n @ g @ n)
        n = n / np.sqrt(abs(n2))
        n2 = float(n @ g @ n)
        if n2 < 0.0 and float(n @ g @ t_vec) > 0.0:
            n = -n  # orient timelike normals to the future
        theta = float(h_vec @ g @ n) / n2
    return PointLabel(
        u=data.u,
        causal=causal,
        time=time,
        h_norm2=ext.h_norm2,
        ref_norm=ref_norm,
        margin=margin,
        theta=theta,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Per-point labels plus the aggregated submanifold verdict."""

    labels: tuple
    verdict: str
    tolerance: float
    grid: GridSpec
    boundary_count: int
    min_margin: float
    metric_name: str = ""
    embedding_name: str = ""
    notes: tuple = ()

    def to_dict(self):
        points = []
        for lab in self.labels:
            rec = {
                "u": [float(x) for x in lab.u],
                "h_norm2": float(lab.h_norm2),
                "causal": lab.causal.value,
                "time": lab.time.value,
                "margin": float(lab.margin),
            }
            if lab.theta is not None:
                rec["theta"] = float(lab.theta)
            points.append(rec)
        return {
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
            "points": points,
        }

    def to_csv_rows(self, param_names):
        header = list(param_names) + ["h_norm2", "label", "margin"]
        rows = [header]
        for lab in self.labels:
            rows.append(
                [f"{x!r}" for x in lab.u]
                + [
                    f"{lab.h_norm2!r}",
                    f"{lab.causal.value}/{lab.time.value}",
                    f"{lab.margin!r}",
                ]
            )
        return rows


def _point_category(lab: PointLabel, tol):
    if lab.causal is Causal.ZERO:
        return "Z"
    if lab.causal is Causal.SPACELIKE:
        return "S"
    if lab.causal is Causal.NULL:
        if lab.ref_norm <= 10.0 * tol:
            return "B"  # within the null band but not clearly nonzero
        return "NF" if lab.time is TimeOrientation.FUTURE else "NP"
    return "TF" if lab.time is TimeOrientation.FUTURE else "TP"


def _aggregate(categories):
    cats = set(categories)
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
    labels = tuple(classify_point(E, u, tol=tol) for u in points)
    categories = [_point_category(lab, tol) for lab in labels]
    verdict, boundary = _aggregate(categories)
    notes = []
    if boundary:
        notes.append(
            "verdict Mixed due to points whose H sits between the zero and "
            "null-nonzero thresholds; refine the grid or adjust tolerances"
        )
    if E.codim == 1:
        data = E.induced(points[0])
        n = normal_space_basis(E, points[0], data=data)[:, 0]
        if float(n @ data.g @ n) < 0.0:
            notes.append("hypersurface with timelike normal: H = theta * n; "
                         "theta == 0 everywhere means a maximal hypersurface")
    return ClassificationReport(
        labels=labels,
        verdict=verdict,
        tolerance=tol,
        grid=grid,
        boundary_count=sum(1 for c in categories if c == "B"),
        min_margin=min(lab.margin for lab in labels),
        metric_name=E.ambient.name,
        embedding_name=E.name,
        notes=tuple(notes),
    )
