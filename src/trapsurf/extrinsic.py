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
from .embedding import Embedding, InducedPointData, NodeBundle
from .errors import NotNormal, NotSpacelike
from .geometry import (NULL_BAND_TOL, Causal, TimeOrientation, as_point,
                       causal_label, raise_first)
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
    ambient connection and normal projection, in one pass of array calls."""
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


def _classify_block(E: Embedding, us, tol):
    """Point labels at a block of parameter points, and for a hypersurface
    whether each node's normal is timelike (None otherwise)."""
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
    theta = [None] * len(h_vec)
    timelike_normal = None
    if E.codim == 1:
        n = normal_space_basis(E, data)[:, :, 0]
        n2 = np.einsum("km,kmn,kn->k", n, g, n)
        timelike_normal = n2 < 0.0
        n = n / np.sqrt(np.abs(n2))[:, None]
        n2 = np.einsum("km,kmn,kn->k", n, g, n)
        # orient timelike normals to the future
        flip = (n2 < 0.0) & (np.einsum("km,kmn,kn->k", n, g, t_vec) > 0.0)
        n = np.where(flip[:, None], -n, n)
        theta = np.einsum("km,kmn,kn->k", h_vec, g, n) / n2
    labels = [
        PointLabel(u=u, causal=c, time=t, h_norm2=float(h2), ref_norm=float(r),
                   margin=float(m), theta=None if th is None else float(th))
        for u, c, t, h2, r, m, th in zip(data.u, causal, time, ext.h_norm2,
                                         ref_norm, margin, theta)
    ]
    return labels, timelike_normal


def classify_point(E: Embedding, u) -> PointLabel:
    """Causal character of the mean curvature vector at one point.

    Requires the submanifold to be spacelike at u (gamma positive
    definite) and a Lorentzian ambient with a time orientation.
    """
    labels, _ = _classify_block(E, as_point(u)[None], NULL_BAND_TOL)
    return labels[0]


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
                [repr(float(x)) for x in lab.u]
                + [
                    repr(float(lab.h_norm2)),
                    f"{lab.causal.value}/{lab.time.value}",
                    repr(float(lab.margin)),
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
    labels = []
    timelike_normal = None
    for block in quadrature.node_blocks(points):
        block_labels, block_normals = _classify_block(E, block, tol)
        if not labels and block_normals is not None:
            timelike_normal = bool(block_normals[0])
        labels += block_labels
    labels = tuple(labels)
    categories = [_point_category(lab, tol) for lab in labels]
    verdict, boundary = _aggregate(categories)
    notes = []
    if boundary:
        notes.append(
            "verdict Mixed due to points whose H sits between the zero and "
            "null-nonzero thresholds; refine the grid or adjust tolerances"
        )
    if timelike_normal:
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
