"""Ambient semi-Riemannian geometry: metric fields, Christoffel symbols,
causal classification and Lie derivatives of the metric.

Points are 1-d coordinate arrays; callables only see blocks (N, n) of them.
All objects are immutable; every operation is a pure function of its inputs.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import expressions, findiff
from .errors import DegenerateMetric, PointOutsideChart

DEGENERACY_TOL = 1e-12
NULL_BAND_TOL = 1e-9


class Causal(str, Enum):
    TIMELIKE = "Timelike"
    NULL = "Null"
    SPACELIKE = "Spacelike"
    ZERO = "Zero"


class TimeOrientation(str, Enum):
    FUTURE = "Future"
    PAST = "Past"
    NOT_APPLICABLE = "NotApplicable"


def absolute_metric(g):
    """|g| of a matrix or of a block of matrices: same eigenvectors,
    absolute eigenvalues."""
    w, v = np.linalg.eigh(g)
    return (v * np.abs(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


# label codes: index into these arrays
_CAUSAL_CODES = np.array([Causal.ZERO, Causal.NULL, Causal.TIMELIKE,
                          Causal.SPACELIKE], dtype=object)
_TIME_CODES = np.array([TimeOrientation.NOT_APPLICABLE, TimeOrientation.FUTURE,
                        TimeOrientation.PAST], dtype=object)


def causal_label(v, g, absg, t_vec, tol=NULL_BAND_TOL):
    """Classify a block of vectors v (N, D) as integer code arrays (N,),
    indexes into _CAUSAL_CODES and _TIME_CODES, given the metric g, its
    reference norm |g| and the future vector T at each vector's base point
    (N, D, D), (N, D, D), (N, D).

    The null band is |g(v,v)| <= tol * |g|(v,v); the zero label applies
    when all components are below tol in magnitude.
    """
    v = np.asarray(v, dtype=float)
    zero = np.max(np.abs(v), axis=-1, initial=0.0) < tol
    q = np.einsum("km,kmn,kn->k", v, g, v)
    scale = np.einsum("km,kmn,kn->k", v, absg, v)
    null = np.abs(q) <= tol * scale
    codes = np.where(zero, 0, np.where(null, 1, np.where(q < 0.0, 2, 3)))
    future = np.einsum("km,kmn,kn->k", v, g, t_vec) < 0.0
    oriented = (codes == 1) | (codes == 2)
    time = np.where(oriented, np.where(future, 1, 2), 0)
    return codes, time


def lie_derivative(g, dg, xi_val, xi_jac):
    """(Lie_xi g)_{mu nu} at each node from arrays at the nodes: g (N, D, D),
    dg[k, rho, mu, nu] = d_rho g_{mu nu}, xi^rho (N, D) and its jacobian
    J[k, rho, mu] = d_mu xi^rho."""
    term0 = np.einsum("kr,krmn->kmn", xi_val, dg)
    term1 = np.einsum("krn,krm->kmn", g, xi_jac)
    return term0 + term1 + np.swapaxes(term1, -1, -2)


def as_point(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not np.all(np.isfinite(p)):
        raise ValueError(f"coordinate point must be a finite 1-d array, got {p!r}")
    return p


def raise_first(bad, error, describe):
    """Raise error(describe(i)) for the first node i flagged in `bad`."""
    if bad.any():
        raise error(describe(int(np.argmax(bad))))


def as_points(x):
    """A block of coordinate points (N, n), every one finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"a block of points must be a 2-d array, got shape {x.shape}")
    raise_first(~np.isfinite(x).all(axis=1), ValueError, lambda i: (
        f"coordinate point must be a finite 1-d array, got {x[i]!r}"))
    return x


@dataclass(frozen=True)
class VectorField:
    """Ambient vector field: value(p) -> contravariant components xi^mu.

    `jacobian(p)` returns J[mu, nu] = d_nu xi^mu; when absent it is
    replaced by 4th-order finite differences of `value`.  Callables not
    marked blockwise are lifted to blocks (one call per node).
    """

    value: object
    jacobian: object = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", expressions.lift(self.value))
        object.__setattr__(self, "jacobian", expressions.lift(self.jacobian))

    def at(self, p):
        return self.value_block(as_point(p)[None])[0]

    def value_block(self, points):
        """xi^mu at a block of points (N, D) -> (N, D)."""
        return np.asarray(self.value(as_points(points)), dtype=float)

    def jacobian_block(self, points):
        """J[k, mu, nu] = d_nu xi^mu at each point of a block (N, D)."""
        points = as_points(points)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(points), dtype=float)
        # gradient() gives [k, nu, mu] = d_nu xi^mu
        return np.swapaxes(findiff.gradient(self.value, points), -1, -2)

    def jacobian_at(self, p):
        return self.jacobian_block(as_point(p)[None])[0]


@dataclass(frozen=True)
class MetricField:
    """The ambient metric g as coordinate-component functions.

    `components(p)` returns the symmetric D x D matrix g_{mu nu}(p);
    `derivatives(p)`, when supplied, returns dg[rho, mu, nu] = d_rho g_{mu nu}.
    `time_orientation` is a VectorField-like callable p -> T^mu declared
    future-pointing (Lorentzian case).  `chart_domain(p)` is a predicate.
    Callables not marked blockwise are lifted to blocks (one call per
    node).  The `*_block` methods evaluate a block of points (N, D) in one
    call; the per-point methods are their N = 1 case.
    """

    dim: int
    components: object
    derivatives: object = None
    time_orientation: object = None
    chart_domain: object = None
    signature: tuple = None
    coordinates: tuple = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.signature is None:
            object.__setattr__(self, "signature", (-1,) + (1,) * (self.dim - 1))
        if self.coordinates is None:
            object.__setattr__(
                self, "coordinates", tuple(f"x{i}" for i in range(self.dim))
            )
        for name in ("components", "derivatives", "time_orientation", "chart_domain"):
            object.__setattr__(self, name, expressions.lift(getattr(self, name)))

    @property
    def is_lorentzian(self):
        return sorted(self.signature) == [-1] + [1] * (self.dim - 1)

    def _check_chart(self, points):
        """A block of points (N, D), every one finite and inside the chart."""
        points = np.asarray(points, dtype=float)
        inside = np.isfinite(points).all(axis=1)
        if points.shape[1] != self.dim:
            inside[:] = False
        elif self.chart_domain is not None:
            inside &= np.asarray(self.chart_domain(points), dtype=bool)
        raise_first(~inside, PointOutsideChart, lambda i: (
            f"{points[i]} outside chart of metric {self.name!r}"))
        return points

    def metric_block(self, points):
        """g_{mu nu} at a block of points (N, D) -> (N, D, D)."""
        points = self._check_chart(points)
        g = np.asarray(self.components(points), dtype=float)
        g = 0.5 * (g + np.swapaxes(g, -1, -2))  # exact symmetry by construction
        scale = np.prod(np.maximum(np.abs(g).max(axis=-1), np.finfo(float).tiny),
                        axis=-1)
        det = np.linalg.det(g)
        raise_first(~(np.isfinite(det) & (np.abs(det) >= DEGENERACY_TOL * scale)),
                    DegenerateMetric, lambda i: (
                        f"metric {self.name!r} degenerate at {points[i]} "
                        "(|det| below tolerance)" if np.isfinite(g[i]).all()
                        else f"metric {self.name!r} not finite at {points[i]}"))
        return g

    def at(self, p):
        return self.metric_block(as_point(p)[None])[0]

    def partials_block(self, points):
        """dg[k, rho, mu, nu] = d_rho g_{mu nu} at each point of a block,
        analytic or finite-difference."""
        points = self._check_chart(points)
        if self.derivatives is not None:
            return np.asarray(self.derivatives(points), dtype=float)
        return findiff.gradient(self.metric_block, points)

    def christoffel_block(self, points, g=None, dg=None):
        """Gamma^mu_{rho sigma} at each point of a block; `g` and `dg` are
        the metric and its partials there when the caller already has them."""
        g_inv = np.linalg.inv(self.metric_block(points) if g is None else g)
        dg = self.partials_block(points) if dg is None else dg
        # 1/2 g^{mu nu} (d_rho g_{nu sigma} + d_sigma g_{nu rho} - d_nu g_{rho sigma})
        bracket = (
            np.einsum("krns->knrs", dg)
            + np.einsum("ksnr->knrs", dg)
            - dg
        )
        return 0.5 * np.einsum("kmn,knrs->kmrs", g_inv, bracket)

    def christoffel_at(self, p):
        """Gamma^mu_{rho sigma} of the Levi-Civita connection."""
        return self.christoffel_block(as_point(p)[None])[0]

    def reference_norm_matrix(self, p):
        """Positive-definite |g|: same eigenvectors, absolute eigenvalues."""
        return absolute_metric(self.at(p))

    def future_block(self, points):
        """The declared future-pointing vector T^mu at each point of a block."""
        if not self.is_lorentzian:
            raise ValueError("causal classification requires a Lorentzian metric")
        if self.time_orientation is None:
            raise ValueError("causal classification requires a time orientation")
        return np.asarray(self.time_orientation(as_points(points)), dtype=float)

    def without_analytic_derivatives(self):
        return replace(self, derivatives=None)


def metric_from_expressions(
    coordinates,
    components,
    *,
    constants=None,
    time_orientation=None,
    chart_bounds=None,
    signature=None,
    name="",
):
    """Build a MetricField (with analytic derivatives) from expression strings.

    `components` is a D x D nested list of expressions in the coordinate
    names; `time_orientation` an optional list of D expressions;
    `chart_bounds` an optional list of per-coordinate (lo, hi) pairs with
    None for an unbounded side.
    """
    coordinates = tuple(coordinates)
    dim = len(coordinates)
    g = expressions.template(coordinates, components, constants, order=1,
                             axis_first=True)
    if g.shape != (dim, dim):
        raise ValueError(f"metric component matrix must be {dim} x {dim}")
    if not g.symmetric(constants):
        raise ValueError("metric component matrix must be symmetric")
    comp_fn, deriv_fn = g.bind(constants)

    orient_fn = None
    if time_orientation is not None:
        orient_fn, = expressions.template(
            coordinates, time_orientation, constants).bind(constants)

    domain_fn = None
    if chart_bounds is not None:
        lo = np.array([-np.inf if b is None else float(b) for b, _ in chart_bounds])
        hi = np.array([np.inf if b is None else float(b) for _, b in chart_bounds])

        @expressions.blockwise
        def domain_fn(p):
            return np.all((lo < p) & (p < hi), axis=-1)

    return MetricField(
        dim=dim,
        components=comp_fn,
        derivatives=deriv_fn,
        time_orientation=orient_fn,
        chart_domain=domain_fn,
        signature=tuple(signature) if signature is not None else None,
        coordinates=coordinates,
        name=name,
    )


def vector_field_from_expressions(coordinates, components, *, constants=None, name=""):
    """Build a VectorField (with analytic jacobian) from expression strings."""
    xi = expressions.template(coordinates, components, constants, order=1)
    if xi.shape != (len(coordinates),):
        raise ValueError("components must have one expression per coordinate")
    value_fn, jac_fn = xi.bind(constants)
    return VectorField(value=value_fn, jacobian=jac_fn, name=name)
