"""First-variation machinery: the volume-element derivative, the identity
relating it to div(xi_tangential) + g(xi, H), the volume-variation
integral with an independent flow-based oracle, and the conformal-Killing
integral identity with its sign obstructions.

The identity compares (1/2) tr_gamma of the pulled-back L_xi g with the
coordinate divergence of xi's tangential part plus g(xi, H), both from one
level of derivatives (dg, the frame and second frame, xi's jacobian); the
flow oracle, which moves S and differences its volume, is the independent check.
"""

from dataclasses import dataclass

import numpy as np

from . import findiff, quadrature
from .embedding import Embedding
from .errors import FlowLeftChart, NotConformal, PointOutsideChart
from .extrinsic import extrinsic_block
from .geometry import MetricField, VectorField, as_point, lie_derivative, metric_norm
from .quadrature import GridSpec

CONFORMAL_TOL = 1e-8
# bound of the null-Killing fit: its spacelike test and its residual
PARALLEL_TOL = 1e-6


@dataclass(frozen=True)
class FlowSpec:
    """The volume-variation oracle's field and the time of its RK4 step."""

    field: VectorField
    tau_step: float

    def __post_init__(self):
        if self.tau_step <= 0.0:
            raise ValueError("need tau_step > 0")


def _lie_trace(data, dg, xi_val, xi_jac):
    """(1/2) tr_gamma of the pullback of Lie_xi g at each node of an induced
    block, from dg and xi's values and jacobian there."""
    e = data.frame
    pulled = np.swapaxes(e, 1, 2) @ lie_derivative(data.g, dg, xi_val, xi_jac) @ e
    return 0.5 * np.einsum("kab,kab->k", data.gamma_inv, pulled)


def first_variation_density(E: Embedding, xi: VectorField, u):
    """(1/2) tr_gamma of the pullback of Lie_xi g: the logarithmic rate of
    change of the induced volume element along the flow of xi.  The N = 1
    case of identity_sides' left side, from the induced bundle and dg
    alone (no K).  It stays its own evaluation: as a view of identity_sides
    it gives the same bits but builds K and the right side it drops, about
    1.6 times its time per call."""
    data = E.induced_block(as_point(u)[None])
    p = data.p
    lhs = _lie_trace(data, E.ambient.partials_block(p), xi.value_block(p),
                     xi.jacobian_block(p))
    return float(lhs[0])


def _identity_terms(xi_val, xi_jac, ext):
    """The identity's terms at each node of an extrinsic block, given xi's
    values and jacobian there: the div of the tangential pullback,
    (1/sqrt g) d_a (sqrt g gamma^{ab} g(e_b, xi)), by the product rule on
    one level of derivatives (d_a e_b, dg and xi's jacobian; no stencil),
    and g(xi, H)."""
    e, g, gi = ext.base.frame, ext.base.g, ext.base.gamma_inv
    ge = g @ e                                              # (g e_b)_mu
    dg_e = np.einsum("kra,krmn->kamn", e, ext.dg)           # (d_a g)_{mu nu}
    # d_a gamma_cd = g(d_a e_c, e_d) + g(e_c, d_a e_d) + (d_a g)(e_c, e_d)
    hess_ge = np.einsum("kmac,kmd->kacd", ext.second_frame, ge)
    d_gamma = (hess_ge + np.swapaxes(hess_ge, 2, 3)
               + np.swapaxes(e, 1, 2)[:, None] @ dg_e @ e[:, None])
    bar = np.einsum("kab,kmb,km->ka", gi, ge, xi_val)  # gamma^{ab} w_b, w_b = g(e_b, xi)
    # d_a w_b = g(d_a e_b, xi) + (d_a g)(e_b, xi) + g(e_b, d_a xi)
    d_w = (np.einsum("kmab,kmn,kn->kab", ext.second_frame, g, xi_val)
           + np.einsum("kmb,kamn,kn->kab", e, dg_e, xi_val)
           + np.einsum("kmb,kmr,kra->kab", ge, xi_jac, e))
    div = (np.einsum("kcd,kacd,ka->k", 0.5 * gi, d_gamma, bar)  # (d_a log sqrt g) bar^a
           - np.einsum("kac,kacd,kd->k", gi, d_gamma, bar)      # (d_a gamma^{ab}) w_b
           + np.einsum("kab,kab->k", gi, d_w))                  # gamma^{ab} d_a w_b
    return div, _flux(xi_val, ext)


def identity_sides(E: Embedding, xi: VectorField, us):
    """Both sides of the volume-element identity at a block of parameter
    points (N, d): (1/2) tr_gamma of the pulled-back Lie_xi g, and
    div(bar-xi) + g(xi, H), from one extrinsic block and one evaluation of
    xi."""
    ext = extrinsic_block(E, us)
    xi_val, xi_jac = xi.value_block(ext.base.p), xi.jacobian_block(ext.base.p)
    div, flux = _identity_terms(xi_val, xi_jac, ext)
    return _lie_trace(ext.base, ext.dg, xi_val, xi_jac), div + flux


def rhs_identity(E: Embedding, xi: VectorField, u):
    """div(bar-xi) + g(xi, H); equals first_variation_density analytically."""
    return float(identity_sides(E, xi, as_point(u)[None])[1][0])


def _flux(xi_val, ext):
    """g(xi, H) at each node of an extrinsic block, from xi's values there."""
    return np.einsum("km,kmn,kn->k", xi_val, ext.base.g, ext.mean_curvature)


@dataclass(frozen=True)
class VariationResult:
    """dV/dtau split into the divergence (boundary) and expansion terms."""

    total: float
    divergence_term: float
    expansion_term: float


def volume_variation(E: Embedding, xi: VectorField, grid: GridSpec):
    """First variation of volume along xi by quadrature of the identity.

    The divergence term is reported as a diagnostic.  It integrates to ~0
    only for a field that is smooth on a closed S: a chart polynomial that
    is not periodic on S can make it dominate (on `verify variation --seed
    4`'s failing ef_sphere case it is 89.4 of a total of -3.25).
    """
    points, weights = E.volume_nodes(grid, E.name)

    def terms(block):
        ext = extrinsic_block(E, block)
        dens, p = ext.base.vol_density, ext.base.p
        div, flux = _identity_terms(xi.value_block(p), xi.jacobian_block(p), ext)
        return div * dens, flux * dens

    div_vals, exp_vals = quadrature.map_blocks(terms, points)
    div_term = float(np.sum(weights * div_vals))
    exp_term = float(np.sum(weights * exp_vals))
    return VariationResult(
        total=div_term + exp_term,
        divergence_term=div_term,
        expansion_term=exp_term,
    )


def flow_block(metric: MetricField, xi: VectorField, points, tau):
    """Transport each point of a block (N, D) along the flow of xi to
    parameter time tau with one RK4 step.  For a 1-d array of T times the
    flows are stacked time-major, (T * N, D), and the first stage, common to
    all times, is evaluated once.  Every stage point and end point must lie
    in the metric's chart; FlowLeftChart names the first one that does not."""

    def inside(x):
        try:
            return metric._check_chart(x)
        except PointOutsideChart as exc:
            raise FlowLeftChart(f"flow of {xi.name!r} left the chart: {exc}") from None

    def rate(x):
        return xi.value_block(inside(x))

    p = np.asarray(points, dtype=float)
    times = np.atleast_1d(np.asarray(tau, dtype=float))
    k1 = np.tile(rate(p), (len(times), 1))
    t = np.repeat(times, len(p))[:, None]
    p = np.tile(p, (len(times), 1))
    k2 = rate(p + 0.5 * t * k1)
    k3 = rate(p + 0.5 * t * k2)
    k4 = rate(p + t * k3)
    return inside(p + (t / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def flow_volume_oracle(E: Embedding, flow: FlowSpec, grid: GridSpec):
    """Central-difference dV/dtau from the volumes of the flowed S_{+tau}
    and S_{-tau}, whose frames are differentiated numerically (no analytic
    jacobian, keeping the oracle independent of the identity path).  Phi and
    the first RK4 stage at the nodes and stencil points serve both."""
    tau = flow.tau_step
    names = [f"{E.name}@tau={t:g}" for t in (tau, -tau)]
    points, weights = E.volume_nodes(grid, names[0])

    def flowed(x):
        # Phi at parameter points (M, d) flowed to +tau and -tau: (M, 2, D)
        moved = flow_block(E.ambient, flow.field, E.point_block(x), (tau, -tau))
        return np.swapaxes(moved.reshape(2, len(x), -1), 0, 1)

    def densities(us):
        moved, frames = flowed(us), np.swapaxes(findiff.gradient(flowed, us), 1, 3)
        return tuple(E.induced_from(us, moved[:, i], frames[:, :, i], names[i]).vol_density
                     for i in (0, 1))

    v_plus, v_minus = (float(np.sum(weights * dens))
                       for dens in quadrature.map_blocks(densities, points))
    return (v_plus - v_minus) / (2.0 * tau)


@dataclass(frozen=True)
class ConformalData:
    """Conformal factor samples and the residual of Lie_xi g = 2 Psi g."""

    psi: np.ndarray        # Psi at the sample points (N,)
    residual: float


def _conformal(g, g_inv, dg, xi_val, xi_jac):
    """Psi = tr(Lie_xi g) / (2 D) at each node, and the largest component of
    |Lie_xi g - 2 Psi g| there, from g, g^-1, dg and xi's values and jacobian."""
    lie = lie_derivative(g, dg, xi_val, xi_jac)
    psi = np.einsum("kmn,kmn->k", g_inv, lie) / (2.0 * g.shape[-1])
    return psi, np.abs(lie - (2.0 * psi)[:, None, None] * g).max(axis=(1, 2))


def conformal_check(metric: MetricField, xi: VectorField, sample_points):
    """Psi = tr(Lie_xi g) / (2 D) at a block of sample points and the
    residual of Lie_xi g = 2 Psi g there."""
    points = np.asarray(sample_points, dtype=float)
    g = metric.metric_block(points)
    psi, residual = _conformal(g, metric_norm(g)[2], metric.partials_block(points),
                               xi.value_block(points), xi.jacobian_block(points))
    return ConformalData(psi=psi, residual=float(residual.max(initial=0.0)))


@dataclass(frozen=True)
class KillingIntegralResult:
    lhs: float            # integral of Psi over S
    rhs: float            # (1/d) integral of g(xi, H) over S
    residual: float
    flux: float           # integral of g(xi, H) over S
    psi_sign: str         # 'positive' | 'negative' | 'zero' | 'mixed'
    obstruction_ok: bool
    notes: tuple = ()


def killing_integral_check(E: Embedding, xi: VectorField, grid: GridSpec):
    """Verify int_S Psi = (1/d) int_S g(xi, H) for a conformal Killing xi.

    Lie_xi g = 2 Psi g is checked at every node, from the same Lie_xi g
    that gives Psi there.  Also evaluates the sign obstruction: when Psi
    has a uniform sign on the grid, g(xi, H) must integrate to the same
    sign, which restricts H from being non-spacelike with the wrong
    orientation.
    """
    points, weights = E.volume_nodes(grid, E.name)

    def terms(block):
        ext = extrinsic_block(E, block)
        xi_val, xi_jac = xi.value_block(ext.base.p), xi.jacobian_block(ext.base.p)
        psi, conf = _conformal(ext.base.g, ext.base.g_inv, ext.dg, xi_val, xi_jac)
        return psi, conf, _flux(xi_val, ext), ext.base.vol_density

    psi_vals, conf_vals, flux_vals, dens = quadrature.map_blocks(terms, points)
    conformal = float(conf_vals.max(initial=0.0))
    if not conformal < CONFORMAL_TOL:
        raise NotConformal(
            f"field {xi.name!r} fails the conformal residual test: "
            f"{conformal:.3e} >= {CONFORMAL_TOL:.3e}"
        )
    lhs = float(np.sum(weights * psi_vals * dens))
    flux = float(np.sum(weights * flux_vals * dens))
    rhs = flux / E.dim
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))

    band = CONFORMAL_TOL * (1.0 + float(np.abs(psi_vals).max(initial=0.0)))
    if np.all(psi_vals > band):
        psi_sign = "positive"
    elif np.all(psi_vals < -band):
        psi_sign = "negative"
    elif np.all(np.abs(psi_vals) <= band):
        psi_sign = "zero"
    else:
        psi_sign = "mixed"
    quad_band = CONFORMAL_TOL * (1.0 + float(np.abs(flux_vals).max(initial=0.0)))
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


def null_killing_constraint_check(E: Embedding, xi: VectorField, grid: GridSpec):
    """Check the null-Killing constraint on a closed sample surface.

    Either H is spacelike somewhere on S, or H must be everywhere
    proportional to the null Killing field; lambda is fitted per point by
    least squares over ambient components.  PARALLEL_TOL bounds both the
    spacelike test and the fit residual.
    """
    points, _ = quadrature.grid_nodes(E.param_domain, E.periodic, grid)

    def fit(block):
        ext = extrinsic_block(E, block)
        xi_val = xi.value_block(ext.base.p)
        h_vec = ext.mean_curvature
        scale2 = np.maximum(np.einsum("km,kmn,kn->k", h_vec, ext.base.absg, h_vec), 0.0)
        spacelike = ext.h_norm2 > PARALLEL_TOL * np.maximum(scale2, 1.0)
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
    )
