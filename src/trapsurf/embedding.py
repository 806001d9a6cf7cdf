"""Parametrized submanifolds: induced metric, tangent/normal split,
volume density and quadrature.
"""

from dataclasses import dataclass, fields, replace
from itertools import combinations

import numpy as np

from . import expressions, findiff, quadrature
from .errors import DegenerateInducedMetric, NotClosed, RankDeficientImmersion
from .geometry import MetricField, as_point, as_points, metric_norm, raise_first
from .quadrature import GridSpec

POLE_MARGIN = 1e-6


class NodeBundle:
    """A bundle of per-node arrays.  From a block kernel every field has a
    leading node axis; `node(i)` is the per-point bundle of node i."""

    def node(self, i):
        return type(self)(**{f.name: _node_value(getattr(self, f.name), i)
                             for f in fields(self)})


def _node_value(value, i):
    if isinstance(value, NodeBundle):
        return value.node(i)
    value = value[i]
    return float(value) if np.ndim(value) == 0 else value


def sym_det(m):
    """det of a block of symmetric matrices (N, d, d), closed form for d <= 2."""
    if m.shape[-1] == 1:
        return m[:, 0, 0]
    if m.shape[-1] == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    return np.linalg.det(m)


def sym_inv(m, det):
    """The inverse of a block of symmetric matrices (N, d, d) whose
    determinants are `det`, in closed form for d <= 2."""
    if m.shape[-1] > 2:
        return np.linalg.inv(m)
    if m.shape[-1] == 1:
        return 1.0 / m
    return m[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / det[:, None, None]  # adj / det


def gram_det(e):
    """det(e^T e) of a block of frames e (N, D, d): the sum of the squared
    d x d minors of e (Cauchy-Binet), so a nearly dependent frame is not lost
    to cancellation.  The minors are closed forms for d <= 2."""
    D, d = e.shape[1:]
    if d == 1:
        return np.einsum("kma,kma->k", e, e)
    if d > 2:
        return np.sum(np.linalg.det(e[:, list(combinations(range(D), d))]) ** 2, axis=1)
    minors = e[:, :, None, 0] * e[:, None, :, 1] - e[:, :, None, 1] * e[:, None, :, 0]
    return 0.5 * np.einsum("kmn,kmn->k", minors, minors)


@dataclass(frozen=True)
class InducedPointData(NodeBundle):
    """Induced data at parameter points u: one point, or a block from
    `Embedding.induced_block` with a leading node axis on every field.

    `Embedding.induced_block` is the one place a node's ambient metric is
    evaluated and factorized; consumers read g, |g| and g^-1 from this bundle.
    """

    u: np.ndarray
    p: np.ndarray
    g: np.ndarray           # ambient g_{mu nu} at p
    absg: np.ndarray        # positive-definite reference norm |g| at p
    negatives: np.ndarray   # number of negative eigenvalues of g at p
    g_inv: np.ndarray       # g^{mu nu}, from the same eigh as |g|
    frame: np.ndarray       # e[mu, a] = d Phi^mu / d u^a
    gamma: np.ndarray       # gamma_{ab} = g(e_a, e_b)
    gamma_inv: np.ndarray
    vol_density: float      # sqrt|det gamma|


@dataclass(frozen=True)
class Embedding:
    """Map Phi from a d-dimensional parameter box into ambient coordinates.

    `chart_map(u)` returns the ambient point; `jacobian(u)` (optional,
    analytic) returns J[mu, a] = d Phi^mu / d u^a and `hessian(u)` returns
    H[mu, a, b] = d^2 Phi^mu / d u^a d u^b.  Each one absent is a finite
    difference of `chart_map`.  Callables not marked blockwise
    are lifted to blocks (one call per node).  `param_domain` is the
    axis-aligned sampling/quadrature box; evaluation outside it is allowed
    wherever the map and ambient chart remain valid (finite differences
    need that slack).  `closed` asserts compact-without-boundary and is
    trusted, not detected.  The `*_block` methods evaluate a block of
    parameter points (N, d) in one call; the per-point methods are their
    N = 1 case.
    """

    ambient: MetricField
    dim: int
    chart_map: object
    jacobian: object = None
    hessian: object = None
    param_domain: tuple = None
    periodic: tuple = None
    closed: bool = False
    param_names: tuple = None
    name: str = ""

    pole_margin = POLE_MARGIN   # relative pad of sample_box at non-periodic ends

    def __post_init__(self):
        if not 1 <= self.dim <= self.ambient.dim - 1:
            raise ValueError("need 1 <= d <= D-1")
        if self.param_domain is None:
            raise ValueError("param_domain is required")
        dom = tuple((float(lo), float(hi)) for lo, hi in self.param_domain)
        if not all(-np.inf < lo < hi < np.inf for lo, hi in dom):
            raise ValueError(f"param_domain needs finite lo < hi on every axis, got {dom}")
        object.__setattr__(self, "param_domain", dom)
        if self.periodic is None:
            object.__setattr__(self, "periodic", (False,) * self.dim)
        else:
            object.__setattr__(self, "periodic", tuple(bool(b) for b in self.periodic))
        if len(dom) != self.dim or len(self.periodic) != self.dim:
            raise ValueError(f"param_domain and periodic need {self.dim} entries each")
        if self.param_names is None:
            object.__setattr__(
                self, "param_names", tuple(f"u{a + 1}" for a in range(self.dim))
            )
        for name in ("chart_map", "jacobian", "hessian"):
            object.__setattr__(self, name, expressions.lift(getattr(self, name)))

    @property
    def codim(self):
        return self.ambient.dim - self.dim

    def point(self, u):
        return self.point_block(as_point(u)[None])[0]

    def point_block(self, us):
        return np.asarray(self.chart_map(as_points(us)), dtype=float)

    def frame_block(self, us):
        """e[k, mu, a] = d Phi^mu / d u^a at each node of a block."""
        us = as_points(us)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(us), dtype=float)
        return np.swapaxes(findiff.gradient(self.chart_map, us), -1, -2)

    def second_frame_block(self, us):
        """H[k, mu, a, b] = d_a d_b Phi^mu at each node of a block."""
        us = as_points(us)
        if self.hessian is not None:
            return np.asarray(self.hessian(us), dtype=float)
        return findiff.hessian(self.chart_map, us).transpose(0, 3, 1, 2)

    def induced_block(self, us):
        """Frame, induced metric, inverse and volume density at a block of
        parameter points (N, d).  A failing check names its first node."""
        us = as_points(us)
        return self.induced_from(us, self.point_block(us), self.frame_block(us), self.name)

    def induced_from(self, us, p, e, name):
        """`induced_block` at parameter points us whose ambient points p and
        frames e are given; a failing check names the surface `name`."""
        g = self.ambient.metric_block(p)
        # scale-free: det(e^T e) against the product of its diagonal
        norms2 = np.prod(np.einsum("kma,kma->ka", e, e), axis=1)
        raise_first(~(gram_det(e) > 1e-20 * norms2), RankDeficientImmersion, lambda i: (
            f"jacobian of {name!r} rank-deficient at u={us[i]}"))
        gamma = np.swapaxes(e, 1, 2) @ g @ e
        gamma = 0.5 * (gamma + np.swapaxes(gamma, 1, 2))
        absg, negatives, g_inv = metric_norm(g)
        ref = np.einsum("kma,kmn,kna->ka", e, absg, e)
        det = sym_det(gamma)
        tiny = np.finfo(float).tiny
        raise_first(np.abs(det) < 1e-12 * np.prod(np.maximum(ref, tiny), axis=1),
                    DegenerateInducedMetric, lambda i: (
                        f"induced metric of {name!r} degenerate at u={us[i]}"))
        return InducedPointData(
            u=us,
            p=p,
            g=g,
            absg=absg,
            negatives=negatives,
            g_inv=g_inv,
            frame=e,
            gamma=gamma,
            gamma_inv=sym_inv(gamma, det),
            vol_density=np.sqrt(np.abs(det)),
        )

    def decompose(self, v, data):
        """Split ambient vectors into (tangent, normal) parts at induced
        `data`: one vector (D,) or column vectors (D, k) at one point, or
        (N, D, k) at the nodes of a block from `induced_block`."""
        v = np.asarray(v, dtype=float)
        w = np.swapaxes(data.frame, -1, -2) @ data.g @ v    # w_b = g(e_b, v)
        v_tan = data.frame @ (data.gamma_inv @ w)
        return v_tan, v - v_tan

    def volume_nodes(self, grid: GridSpec, name):
        """Quadrature nodes and weights of an integral over the surface
        `name`, which must be closed: the one gate of every surface integral."""
        if not self.closed:
            raise NotClosed(f"embedding {name!r} is not closed; surface integrals "
                            "need a closed submanifold")
        return quadrature.grid_nodes(self.param_domain, self.periodic, grid)

    def volume(self, grid: GridSpec):
        """Quadrature of the induced volume density over the parameter box."""
        points, weights = self.volume_nodes(grid, self.name)
        density, = quadrature.map_blocks(
            lambda us: (self.induced_block(us).vol_density,), points)
        return float(np.sum(weights * density))

    def sample_box(self):
        """Parameter box shrunk by the pole margin, for random sampling."""
        out = []
        for (lo, hi), per in zip(self.param_domain, self.periodic):
            if per:
                out.append((lo, hi))
            else:
                pad = self.pole_margin * (hi - lo)
                out.append((lo + pad, hi - pad))
        return tuple(out)

    def random_parameter_point(self, rng):
        box = np.asarray(self.sample_box())
        return box[:, 0] + rng.random(self.dim) * (box[:, 1] - box[:, 0])

    def without_analytic_derivatives(self):
        return replace(
            self,
            jacobian=None,
            hessian=None,
            ambient=self.ambient.without_analytic_derivatives(),
        )


def embedding_from_expressions(
    ambient,
    parameters,
    chart_map,
    *,
    param_domain,
    periodic=None,
    closed=False,
    constants=None,
    name="",
):
    """Build an Embedding (with analytic jacobian/hessian) from expressions.

    `chart_map` is a list of D expression strings in the parameter names.
    """
    parameters = tuple(parameters)
    phi = expressions.template(parameters, chart_map, constants, order=2)
    if phi.shape != (ambient.dim,):
        raise ValueError("chart_map must have one expression per ambient coordinate")
    map_fn, jac_fn, hess_fn = phi.bind(constants)
    return Embedding(
        ambient=ambient,
        dim=len(parameters),
        chart_map=map_fn,
        jacobian=jac_fn,
        hessian=hess_fn,
        param_domain=param_domain,
        periodic=periodic,
        closed=closed,
        param_names=parameters,
        name=name,
    )
