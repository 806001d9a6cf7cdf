"""Parametrized submanifolds: induced metric, tangent/normal split,
volume density and quadrature.
"""

from dataclasses import dataclass, replace

import numpy as np
import sympy as sp

from . import expressions, findiff, quadrature
from .errors import DegenerateInducedMetric, NotClosed, RankDeficientImmersion
from .geometry import MetricField, as_point
from .quadrature import GridSpec

POLE_MARGIN = 1e-6


@dataclass(frozen=True)
class InducedPointData:
    """Per-point bundle at one parameter point u.

    `Embedding.induced` is the one place a node's ambient metric is
    evaluated; consumers read g and |g| from this bundle.
    """

    u: np.ndarray
    p: np.ndarray
    g: np.ndarray           # ambient g_{mu nu} at p
    absg: np.ndarray        # positive-definite reference norm |g| at p
    frame: np.ndarray       # e[mu, a] = d Phi^mu / d u^a
    gamma: np.ndarray       # gamma_{ab} = g(e_a, e_b)
    gamma_inv: np.ndarray
    vol_density: float      # sqrt|det gamma|


@dataclass(frozen=True)
class Embedding:
    """Map Phi from a d-dimensional parameter box into ambient coordinates.

    `chart_map(u)` returns the ambient point; `jacobian(u)` (optional,
    analytic) returns J[mu, a] = d Phi^mu / d u^a and `hessian(u)` returns
    H[mu, a, b] = d^2 Phi^mu / d u^a d u^b.  `param_domain` is the
    axis-aligned sampling/quadrature box; evaluation outside it is allowed
    wherever the map and ambient chart remain valid (finite differences
    need that slack).  `closed` asserts compact-without-boundary and is
    trusted, not detected.
    """

    ambient: MetricField
    dim: int
    chart_map: object
    jacobian: object = None
    hessian: object = None
    param_domain: tuple = None
    periodic: tuple = None
    closed: bool = False
    pole_margin: float = POLE_MARGIN
    param_names: tuple = None
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.dim <= self.ambient.dim - 1:
            raise ValueError("need 1 <= d <= D-1")
        if self.param_domain is None:
            raise ValueError("param_domain is required")
        dom = tuple((float(lo), float(hi)) for lo, hi in self.param_domain)
        object.__setattr__(self, "param_domain", dom)
        if self.periodic is None:
            object.__setattr__(self, "periodic", (False,) * self.dim)
        else:
            object.__setattr__(self, "periodic", tuple(bool(b) for b in self.periodic))
        if self.param_names is None:
            object.__setattr__(
                self, "param_names", tuple(f"u{a + 1}" for a in range(self.dim))
            )

    @property
    def codim(self):
        return self.ambient.dim - self.dim

    def point(self, u):
        return np.asarray(self.chart_map(as_point(u)), dtype=float)

    def frame_at(self, u):
        u = as_point(u)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(u), dtype=float)
        return findiff.gradient(self.chart_map, u).T  # -> [mu, a]

    def second_frame_at(self, u):
        """H[mu, a, b] = d_a d_b Phi^mu."""
        u = as_point(u)
        if self.hessian is not None:
            return np.asarray(self.hessian(u), dtype=float)
        if self.jacobian is not None:
            # d_a of the analytic jacobian: grad[a, mu, b] -> [mu, a, b]
            return findiff.gradient(lambda x: self.jacobian(x), u).transpose(1, 0, 2)
        return findiff.hessian(self.chart_map, u).transpose(2, 0, 1)

    def induced(self, u):
        """Frame, induced metric, inverse and volume density at u."""
        u = as_point(u)
        p = self.point(u)
        g = self.ambient.at(p)
        e = self.frame_at(u)
        if np.linalg.matrix_rank(e, tol=1e-10 * (1.0 + np.abs(e).max())) < self.dim:
            raise RankDeficientImmersion(
                f"jacobian of {self.name!r} rank-deficient at u={u}"
            )
        gamma = e.T @ g @ e
        gamma = 0.5 * (gamma + gamma.T)
        absg = self.ambient.reference_norm_matrix(p)
        ref = np.array([e[:, a] @ absg @ e[:, a] for a in range(self.dim)])
        det = np.linalg.det(gamma)
        if abs(det) < 1e-12 * np.prod(np.maximum(ref, np.finfo(float).tiny)):
            raise DegenerateInducedMetric(
                f"induced metric of {self.name!r} degenerate at u={u}"
            )
        return InducedPointData(
            u=u,
            p=p,
            g=g,
            absg=absg,
            frame=e,
            gamma=gamma,
            gamma_inv=np.linalg.inv(gamma),
            vol_density=float(np.sqrt(abs(det))),
        )

    def decompose(self, u, v, data=None):
        """Split ambient vectors at Phi(u) into (tangent, normal) parts.

        `v` is one vector (D,) or a block of column vectors (D, k).
        """
        if data is None:
            data = self.induced(u)
        v = np.asarray(v, dtype=float)
        w = data.frame.T @ data.g @ v        # w_b = g(e_b, v)
        v_tan = data.frame @ (data.gamma_inv @ w)
        return v_tan, v - v_tan

    def volume(self, grid: GridSpec, allow_boundary=False):
        """Quadrature of the induced volume density over the parameter box."""
        if not self.closed and not allow_boundary:
            raise NotClosed(
                f"embedding {self.name!r} is not closed; pass allow_boundary=True "
                "to integrate over the open parameter box anyway"
            )
        return quadrature.integrate(
            lambda u: self.induced(u).vol_density,
            self.param_domain,
            self.periodic,
            grid,
        )

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
    syms = expressions.make_symbols(parameters)
    ordered = [syms[s] for s in parameters]
    phi_exprs = expressions.parse_vector(chart_map, syms, constants)
    if len(phi_exprs) != ambient.dim:
        raise ValueError("chart_map must have one expression per ambient coordinate")
    map_fn = expressions.lambdify_array(phi_exprs, ordered)
    jac_exprs = [[sp.diff(e, s) for s in ordered] for e in phi_exprs]
    jac_fn = expressions.lambdify_array(jac_exprs, ordered)
    hess_exprs = [
        [[sp.diff(e, sa, sb) for sb in ordered] for sa in ordered] for e in phi_exprs
    ]
    hess_fn = expressions.lambdify_array(hess_exprs, ordered)
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
