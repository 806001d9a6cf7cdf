"""First-variation machinery: the volume-element derivative, the identity
relating it to div(xi_tangential) + g(xi, H), the volume-variation
integral with an independent flow-based oracle, and the conformal-Killing
integral identity with its sign obstructions.
"""

from dataclasses import dataclass

import numpy as np

from . import expressions, findiff, quadrature
from .embedding import Embedding
from .errors import FlowLeftChart, NotClosed, NotConformal, PointOutsideChart
from .extrinsic import extrinsic_block, extrinsic_data
from .geometry import MetricField, VectorField, as_point
from .quadrature import GridSpec

CONFORMAL_TOL = 1e-8


@dataclass(frozen=True)
class FlowSpec:
    """Flow-transport control for the volume-variation oracle."""

    field: VectorField
    tau_step: float
    steps: int = 1

    def __post_init__(self):
        if self.tau_step <= 0.0 or self.steps < 1:
            raise ValueError("need tau_step > 0 and steps >= 1")

    @property
    def tau(self):
        return self.tau_step * self.steps


def first_variation_density(E: Embedding, xi: VectorField, u):
    """(1/2) tr_gamma of the pullback of Lie_xi g: the logarithmic rate of
    change of the induced volume element along the flow of xi."""
    data = E.induced(u)
    lie = E.ambient.lie_derivative(xi, data.p)
    pulled = data.frame.T @ lie @ data.frame
    return 0.5 * float(np.einsum("ab,ab->", data.gamma_inv, pulled))


def _surface_divergence_block(E: Embedding, xi: VectorField, us, vol_density):
    """surface_divergence at a block of parameter points, whose volume
    densities are `vol_density`: the stencil of every node is evaluated as
    blocks of shifted parameter points."""

    def density_flux(x):
        data = E.induced_block(x)
        xi_val = xi.value_block(data.p)[:, :, None]
        w = np.swapaxes(data.frame, 1, 2) @ data.g @ xi_val   # w_b = g(e_b, xi)
        return data.vol_density[:, None] * (data.gamma_inv @ w)[:, :, 0]

    flux_gradient = findiff.gradient(density_flux, us)
    return np.trace(flux_gradient, axis1=1, axis2=2) / vol_density


def surface_divergence(E: Embedding, xi: VectorField, u):
    """div of the tangential pullback, via (1/sqrt g) d_a (sqrt g bar-xi^a).

    Evaluated by finite differences in parameter space; this avoids
    second derivatives of the induced metric.
    """
    u = as_point(u)
    return float(_surface_divergence_block(E, xi, u[None],
                                           E.induced(u).vol_density)[0])


def rhs_identity(E: Embedding, xi: VectorField, u):
    """div(bar-xi) + g(xi, H); equals first_variation_density analytically."""
    ext = extrinsic_data(E, u)
    base = ext.base
    div = _surface_divergence_block(E, xi, base.u[None], base.vol_density)
    return float(div[0]) + float(xi.at(base.p) @ base.g @ ext.mean_curvature)


def _flux(xi: VectorField, ext):
    """g(xi, H) at each node of an extrinsic block."""
    base = ext.base
    return np.einsum("km,kmn,kn->k", xi.value_block(base.p), base.g,
                     ext.mean_curvature)


@dataclass(frozen=True)
class VariationResult:
    """dV/dtau split into the divergence (boundary) and expansion terms."""

    total: float
    divergence_term: float
    expansion_term: float


def volume_variation(E: Embedding, xi: VectorField, grid: GridSpec,
                     allow_boundary=False):
    """First variation of volume along xi by quadrature of the identity.

    For closed submanifolds the divergence term integrates to ~0 and is
    reported as a diagnostic; with `allow_boundary` the integral is taken
    over the open box and the divergence term is an unverified boundary
    contribution.
    """
    if not E.closed and not allow_boundary:
        raise NotClosed(
            f"embedding {E.name!r} is not closed; pass allow_boundary=True to "
            "accept an unverified boundary term"
        )
    points, weights = quadrature.grid_nodes(E.param_domain, E.periodic, grid)

    def terms(block):
        ext = extrinsic_block(E, block)
        dens = ext.base.vol_density
        div = _surface_divergence_block(E, xi, block, dens)
        return div * dens, _flux(xi, ext) * dens

    div_vals, exp_vals = quadrature.map_blocks(terms, points)
    div_term = float(np.sum(weights * div_vals))
    exp_term = float(np.sum(weights * exp_vals))
    return VariationResult(
        total=div_term + exp_term,
        divergence_term=div_term,
        expansion_term=exp_term,
    )


def flow_block(metric: MetricField, xi: VectorField, points, tau, steps=1):
    """Transport each point of a block (N, D) along the flow of xi to
    parameter time tau (RK4).  Every stage point and end point must lie in
    the metric's chart; FlowLeftChart names the first one that does not."""

    def inside(x):
        try:
            return metric._check_chart(x)
        except PointOutsideChart as exc:
            raise FlowLeftChart(f"flow of {xi.name!r} left the chart: {exc}") from None

    def rate(x):
        return xi.value_block(inside(x))

    p = np.asarray(points, dtype=float)
    h = tau / steps
    for _ in range(steps):
        k1 = rate(p)
        k2 = rate(p + 0.5 * h * k1)
        k3 = rate(p + 0.5 * h * k2)
        k4 = rate(p + h * k3)
        p = inside(p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return p


def flowed_embedding(E: Embedding, xi: VectorField, tau, steps=1):
    """The embedding of the flowed submanifold S_tau = phi_tau(S).

    The composed map is differentiated numerically; no analytic jacobian
    is carried over, keeping the oracle independent of the identity path.
    """

    @expressions.blockwise
    def moved(us):
        return flow_block(E.ambient, xi, E.point_block(us), tau, steps=steps)

    return Embedding(
        ambient=E.ambient,
        dim=E.dim,
        chart_map=moved,
        param_domain=E.param_domain,
        periodic=E.periodic,
        closed=E.closed,
        pole_margin=E.pole_margin,
        param_names=E.param_names,
        name=f"{E.name}@tau={tau:g}",
    )


def flow_volume_oracle(E: Embedding, flow: FlowSpec, grid: GridSpec,
                       allow_boundary=False):
    """Central-difference dV/dtau from volumes of the flowed submanifolds."""
    tau = flow.tau
    v_plus = flowed_embedding(E, flow.field, +tau, steps=flow.steps).volume(
        grid, allow_boundary=allow_boundary
    )
    v_minus = flowed_embedding(E, flow.field, -tau, steps=flow.steps).volume(
        grid, allow_boundary=allow_boundary
    )
    return (v_plus - v_minus) / (2.0 * tau)


@dataclass(frozen=True)
class ConformalData:
    """Conformal factor samples and the residual of Lie_xi g = 2 Psi g."""

    psi: object            # callable on blocks of points (N, D) -> Psi (N,)
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "psi", expressions.lift(self.psi))

    @property
    def accepted(self):
        return self.residual < self.tolerance


def conformal_check(metric: MetricField, xi: VectorField, sample_points,
                    tol=CONFORMAL_TOL):
    """Extract Psi = tr(Lie_xi g) / (2 D) and measure the conformal residual."""
    dim = metric.dim

    def psi_and_lie(points):
        g = metric.metric_block(points)
        lie = metric.lie_derivative_block(xi, points, g=g)
        return np.einsum("kmn,kmn->k", np.linalg.inv(g), lie) / (2.0 * dim), lie, g

    @expressions.blockwise
    def psi(points):
        return psi_and_lie(points)[0]

    values, lie, g = psi_and_lie(np.asarray(sample_points, dtype=float))
    dev = lie - (2.0 * values)[:, None, None] * g
    residual = float(np.abs(dev).max(initial=0.0))
    return ConformalData(psi=psi, residual=residual, tolerance=tol)


@dataclass(frozen=True)
class KillingIntegralResult:
    lhs: float            # integral of Psi over S
    rhs: float            # (1/d) integral of g(xi, H) over S
    residual: float
    flux: float           # integral of g(xi, H) over S
    psi_sign: str         # 'positive' | 'negative' | 'zero' | 'mixed'
    obstruction_ok: bool
    notes: tuple = ()


def killing_integral_check(E: Embedding, xi: VectorField, grid: GridSpec,
                           conformal: ConformalData = None,
                           tol=CONFORMAL_TOL):
    """Verify int_S Psi = (1/d) int_S g(xi, H) for a conformal Killing xi.

    Also evaluates the sign obstruction: when Psi has a uniform sign on
    the grid, g(xi, H) must integrate to the same sign, which restricts H
    from being non-spacelike with the wrong orientation.
    """
    if not E.closed:
        raise NotClosed("the integral identity requires a closed submanifold")
    points, weights = quadrature.grid_nodes(E.param_domain, E.periodic, grid)
    if conformal is None:
        sample = E.point_block(points[:: max(1, len(points) // 16)])
        conformal = conformal_check(E.ambient, xi, sample, tol=tol)
    if not conformal.accepted:
        raise NotConformal(
            f"field {xi.name!r} fails the conformal residual test: "
            f"{conformal.residual:.3e} >= {conformal.tolerance:.3e}"
        )

    def terms(block):
        ext = extrinsic_block(E, block)
        return conformal.psi(ext.base.p), _flux(xi, ext), ext.base.vol_density

    psi_vals, flux_vals, dens = quadrature.map_blocks(terms, points)
    lhs = float(np.sum(weights * psi_vals * dens))
    flux = float(np.sum(weights * flux_vals * dens))
    rhs = flux / E.dim
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))

    band = conformal.tolerance * (1.0 + float(np.abs(psi_vals).max(initial=0.0)))
    if np.all(psi_vals > band):
        psi_sign = "positive"
    elif np.all(psi_vals < -band):
        psi_sign = "negative"
    elif np.all(np.abs(psi_vals) <= band):
        psi_sign = "zero"
    else:
        psi_sign = "mixed"
    quad_band = conformal.tolerance * (1.0 + float(np.abs(flux_vals).max(initial=0.0)))
    notes = []
    if psi_sign == "positive":
        obstruction_ok = flux > quad_band
        notes.append("Psi > 0 on S: g(xi, H) must integrate to a positive value; "
                     "a non-spacelike H must point against a future timelike xi")
    elif psi_sign == "negative":
        obstruction_ok = flux < -quad_band
        notes.append("Psi < 0 on S: g(xi, H) must integrate to a negative value")
    elif psi_sign == "zero":
        obstruction_ok = abs(flux) <= max(quad_band, 1e-8 * (1.0 + abs(lhs)))
        notes.append("Psi == 0 (Killing): int g(xi, H) vanishes, so no closed "
                     "(nearly, marginally) trapped submanifold can exist")
    else:
        obstruction_ok = True
        notes.append("Psi changes sign on S: no obstruction applies")
    return KillingIntegralResult(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        flux=flux,
        psi_sign=psi_sign,
        obstruction_ok=obstruction_ok,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ParallelFitResult:
    """Per-point least-squares fit of H = lambda * xi."""

    lambdas: np.ndarray
    max_residual: float
    spacelike_somewhere: bool
    tol: float = 1e-6

    @property
    def parallel(self):
        return self.max_residual < self.tol


def null_killing_constraint_check(E: Embedding, xi: VectorField, grid: GridSpec,
                                  tol=1e-6):
    """Check the null-Killing constraint on a closed sample surface.

    Either H is spacelike somewhere on S, or H must be everywhere
    proportional to the null Killing field; lambda is fitted per point by
    least squares over ambient components.  `tol` bounds both the
    spacelike test and the fit residual.
    """
    points, _ = quadrature.grid_nodes(E.param_domain, E.periodic, grid)

    def fit(block):
        ext = extrinsic_block(E, block)
        xi_val = xi.value_block(ext.base.p)
        h_vec = ext.mean_curvature
        scale2 = np.maximum(np.einsum("km,kmn,kn->k", h_vec, ext.base.absg, h_vec), 0.0)
        spacelike = ext.h_norm2 > tol * np.maximum(scale2, 1.0)
        denom = np.einsum("km,km->k", xi_val, xi_val)
        fitted = denom > 0.0
        lam = np.where(fitted, np.einsum("km,km->k", xi_val, h_vec)
                       / np.where(fitted, denom, 1.0), 0.0)
        residual = (np.linalg.norm(h_vec - lam[:, None] * xi_val, axis=1)
                    / (1.0 + np.abs(lam)))
        return lam, residual, spacelike

    lambdas, residuals, spacelike = quadrature.map_blocks(fit, points)
    return ParallelFitResult(
        lambdas=lambdas,
        max_residual=float(residuals.max(initial=0.0)),
        spacelike_somewhere=bool(spacelike.any()),
        tol=tol,
    )
