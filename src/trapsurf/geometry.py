"""Ambient semi-Riemannian geometry: metric fields, Christoffel symbols,
causal classification and Lie derivatives of the metric.

Points are plain 1-d numpy arrays of coordinate values.  All objects are
immutable; every operation is a pure function of its inputs.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import sympy as sp

from . import expressions, findiff
from .errors import DegenerateMetric, DerivativeFailure, PointOutsideChart

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


def _absolute(g):
    w, v = np.linalg.eigh(g)
    return (v * np.abs(w)) @ v.T


def causal_label(v, g, absg, t_vec, tol=NULL_BAND_TOL):
    """Classify a vector as (Causal, TimeOrientation), given the metric g,
    its reference norm |g| and the future vector T at the vector's base point.

    The null band is |g(v,v)| <= tol * |g|(v,v); the zero label applies
    when all components are below tol in magnitude.
    """
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(v), initial=0.0) < tol:
        return Causal.ZERO, TimeOrientation.NOT_APPLICABLE
    q = float(v @ g @ v)
    scale = float(v @ absg @ v)
    if abs(q) <= tol * scale:
        label = Causal.NULL
    elif q < 0.0:
        label = Causal.TIMELIKE
    else:
        return Causal.SPACELIKE, TimeOrientation.NOT_APPLICABLE
    future = float(v @ g @ t_vec) < 0.0
    return label, TimeOrientation.FUTURE if future else TimeOrientation.PAST


def as_point(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not np.all(np.isfinite(p)):
        raise ValueError(f"coordinate point must be a finite 1-d array, got {p!r}")
    return p


@dataclass(frozen=True)
class VectorField:
    """Ambient vector field: value(p) -> contravariant components xi^mu.

    `jacobian(p)` returns J[mu, nu] = d_nu xi^mu; when absent it is
    replaced by 4th-order finite differences of `value`.
    """

    value: object
    jacobian: object = None
    name: str = ""

    def at(self, p):
        return np.asarray(self.value(as_point(p)), dtype=float)

    def jacobian_at(self, p):
        p = as_point(p)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(p), dtype=float)
        # gradient() gives [nu, mu] = d_nu xi^mu
        return findiff.gradient(lambda x: self.value(x), p).T

    def without_analytic_derivatives(self):
        return replace(self, jacobian=None)


@dataclass(frozen=True)
class MetricField:
    """The ambient metric g as coordinate-component functions.

    `components(p)` returns the symmetric D x D matrix g_{mu nu}(p);
    `derivatives(p)`, when supplied, returns dg[rho, mu, nu] = d_rho g_{mu nu}.
    `time_orientation` is a VectorField-like callable p -> T^mu declared
    future-pointing (Lorentzian case).  `chart_domain(p)` is a predicate.
    """

    dim: int
    components: object
    derivatives: object = None
    time_orientation: object = None
    chart_domain: object = None
    signature: tuple = None
    coordinates: tuple = None
    name: str = ""
    degeneracy_tol: float = DEGENERACY_TOL

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.signature is None:
            object.__setattr__(self, "signature", (-1,) + (1,) * (self.dim - 1))
        if self.coordinates is None:
            object.__setattr__(
                self, "coordinates", tuple(f"x{i}" for i in range(self.dim))
            )

    @property
    def is_lorentzian(self):
        return sorted(self.signature) == [-1] + [1] * (self.dim - 1)

    def contains(self, p):
        p = as_point(p)
        if p.size != self.dim:
            return False
        return bool(self.chart_domain(p)) if self.chart_domain is not None else True

    def _check_chart(self, p):
        p = as_point(p)
        if not self.contains(p):
            raise PointOutsideChart(f"{p} outside chart of metric {self.name!r}")
        return p

    def at(self, p):
        p = self._check_chart(p)
        g = np.asarray(self.components(p), dtype=float)
        g = 0.5 * (g + g.T)  # exact symmetry by construction
        scale = np.prod(np.maximum(np.abs(g).max(axis=1), np.finfo(float).tiny))
        if abs(np.linalg.det(g)) < self.degeneracy_tol * scale:
            raise DegenerateMetric(
                f"metric {self.name!r} degenerate at {p} (|det| below tolerance)"
            )
        return g

    def inverse_at(self, p):
        return np.linalg.inv(self.at(p))

    def partials_at(self, p):
        """dg[rho, mu, nu] = d_rho g_{mu nu}, analytic or finite-difference."""
        p = self._check_chart(p)
        if self.derivatives is not None:
            return np.asarray(self.derivatives(p), dtype=float)
        return findiff.gradient(lambda x: self.at(x), p)

    def christoffel_at(self, p):
        """Gamma^mu_{rho sigma} of the Levi-Civita connection."""
        g_inv = self.inverse_at(p)
        dg = self.partials_at(p)
        # 1/2 g^{mu nu} (d_rho g_{nu sigma} + d_sigma g_{nu rho} - d_nu g_{rho sigma})
        bracket = (
            np.einsum("rns->nrs", dg)
            + np.einsum("snr->nrs", dg)
            - np.einsum("nrs->nrs", dg)
        )
        return 0.5 * np.einsum("mn,nrs->mrs", g_inv, bracket)

    def reference_norm_matrix(self, p):
        """Positive-definite |g|: same eigenvectors, absolute eigenvalues."""
        return _absolute(self.at(p))

    def future_vector(self, p):
        """The declared future-pointing vector T^mu at p."""
        if not self.is_lorentzian:
            raise ValueError("causal classification requires a Lorentzian metric")
        if self.time_orientation is None:
            raise ValueError("causal classification requires a time orientation")
        return np.asarray(self.time_orientation(p), dtype=float)

    def causal_character(self, v, p, tol=NULL_BAND_TOL):
        """Classify a vector at p as (Causal, TimeOrientation); see causal_label."""
        p = as_point(p)
        t_vec = self.future_vector(p)
        g = self.at(p)
        return causal_label(v, g, _absolute(g), t_vec, tol=tol)

    def lie_derivative(self, xi: VectorField, p):
        """(Lie_xi g)_{mu nu} at p."""
        p = self._check_chart(p)
        g = self.at(p)
        dg = self.partials_at(p)
        xi_val = xi.at(p)
        jac = xi.jacobian_at(p)  # J[rho, mu] = d_mu xi^rho
        term0 = np.einsum("r,rmn->mn", xi_val, dg)
        term1 = np.einsum("rn,rm->mn", g, jac)
        return term0 + term1 + term1.T

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
    syms = expressions.make_symbols(coordinates)
    ordered = [syms[c] for c in coordinates]
    g_exprs = expressions.parse_matrix(components, syms, constants)
    g_mat = sp.Matrix(g_exprs)
    if sp.simplify(g_mat - g_mat.T) != sp.zeros(dim, dim):
        raise ValueError("metric component matrix must be symmetric")
    comp_fn = expressions.lambdify_array(g_exprs, ordered)
    dg_exprs = [[[sp.diff(g_exprs[m][n], s) for n in range(dim)] for m in range(dim)]
                for s in ordered]
    deriv_fn = expressions.lambdify_array(dg_exprs, ordered)

    orient_fn = None
    if time_orientation is not None:
        t_exprs = expressions.parse_vector(time_orientation, syms, constants)
        orient_fn = expressions.lambdify_array(t_exprs, ordered)

    domain_fn = None
    if chart_bounds is not None:
        bounds = [
            (
                -np.inf if lo is None else float(lo),
                np.inf if hi is None else float(hi),
            )
            for lo, hi in chart_bounds
        ]

        def domain_fn(p, _bounds=tuple(bounds)):
            return all(lo < x < hi for x, (lo, hi) in zip(p, _bounds))

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
    coordinates = tuple(coordinates)
    syms = expressions.make_symbols(coordinates)
    ordered = [syms[c] for c in coordinates]
    xi_exprs = expressions.parse_vector(components, syms, constants)
    value_fn = expressions.lambdify_array(xi_exprs, ordered)
    jac_exprs = [[sp.diff(e, s) for s in ordered] for e in xi_exprs]
    jac_fn = expressions.lambdify_array(jac_exprs, ordered)
    return VectorField(value=value_fn, jacobian=jac_fn, name=name)
