"""End-to-end acceptance checks.

Each test covers one headline capability at its stated tolerance and
prints a single PASS/FAIL line so the suite doubles as a report:

  1. volume-element identity on random (embedding, field, point) triples
  2. volume-variation integral against the independent flow oracle
  3. classification verdicts across the Schwarzschild horizon
  4. closed-form extrinsic curvature values
  5. conformal-Killing integral identity and its sign obstructions
  6. null-Killing mean-curvature constraint on pp-wave surfaces
  7. quadrature accuracy and byte-level report determinism
"""

import json
import math

import numpy as np

from trapsurf import catalog, cli
from trapsurf.cli import EQ3_EMBEDDINGS, VARIATION_EMBEDDINGS
from trapsurf.extrinsic import classify_submanifold, extrinsic_data
from trapsurf.quadrature import GridSpec
from trapsurf.sampling import random_polynomial_field
from trapsurf.variation import (
    FlowSpec,
    first_variation_density,
    flow_volume_oracle,
    killing_integral_check,
    null_killing_constraint_check,
    rhs_identity,
    volume_variation,
)

from conftest import cat

def _report(ok, label, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _identity_residual(embeddings, triples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(triples):
        emb = embeddings[rng.integers(len(embeddings))]
        xi = random_polynomial_field(rng, emb.ambient.dim)
        u = emb.random_parameter_point(rng)
        worst = max(worst, abs(first_variation_density(emb, xi, u)
                               - rhs_identity(emb, xi, u)))
    return worst


def test_criterion_1_volume_element_identity():
    analytic = [cat(n) for n in EQ3_EMBEDDINGS]
    worst = _identity_residual(analytic, 200, seed=0)
    ok = worst < 1e-6
    fd = [e.without_analytic_derivatives() for e in analytic]
    worst_fd = _identity_residual(fd, 200, seed=0)
    ok = ok and worst_fd < 1e-4
    _report(ok, "1 volume-element identity",
            f"200 triples: analytic max residual {worst:.3e} < 1e-6, "
            f"finite-difference max residual {worst_fd:.3e} < 1e-4")


def test_criterion_2_variation_vs_flow_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        name = VARIATION_EMBEDDINGS[rng.integers(len(VARIATION_EMBEDDINGS))]
        emb = cat(name)
        xi = random_polynomial_field(rng, emb.ambient.dim)
        grid = GridSpec((16,) * emb.dim)
        direct = volume_variation(emb, xi, grid).total
        oracle = flow_volume_oracle(emb, FlowSpec(xi, 1e-4), grid)
        worst = max(worst, abs(direct - oracle) / max(abs(oracle), 1e-8))
    ok = worst < 1e-4

    # outward unit flow of the round sphere: dV/dtau = 8 pi r exactly
    sphere = cat("round_sphere")  # radius 2
    grid = GridSpec((16, 16))
    target = 16.0 * math.pi
    direct = volume_variation(sphere, cat("radial_unit"), grid).total
    oracle = flow_volume_oracle(sphere, FlowSpec(cat("radial_unit"), 1e-4),
                                grid)
    err_direct = abs(direct - target) / target
    err_oracle = abs(oracle - target) / target
    ok = ok and err_direct < 1e-6 and err_oracle < 1e-6
    _report(ok, "2 volume variation vs flow oracle",
            f"20 random pairs: worst relative difference {worst:.3e} < 1e-4; "
            f"sphere dV/dtau vs 8*pi*r: identity {err_direct:.3e}, "
            f"oracle {err_oracle:.3e} < 1e-6")


def test_criterion_3_horizon_transition():
    expected = {
        1.0: "FutureTrapped",
        1.5: "FutureTrapped",
        1.9: "FutureTrapped",
        2.0: "MarginallyFutureTrapped",
        2.1: "AbsolutelyNonTrapped",
        3.0: "AbsolutelyNonTrapped",
    }
    grid = GridSpec((32, 64))
    got = {r: classify_submanifold(cat("ef_sphere", radius=r), grid).verdict
           for r in expected}
    ok = got == expected
    _report(ok, "3 horizon transition",
            f"verdicts at 32x64 for r in {sorted(expected)}: "
            + ", ".join(f"{r:g}->{v}" for r, v in sorted(got.items())))


def test_criterion_4_closed_form_curvatures():
    rng = np.random.default_rng(0)
    details = []
    ok = True

    for radius in (2.0, 3.0):
        sphere = cat("round_sphere", radius=radius)
        target = 4.0 / radius ** 2
        err = max(abs(extrinsic_data(sphere, sphere.random_parameter_point(rng))
                      .h_norm2 - target) for _ in range(20))
        ok = ok and err < 1e-8
        details.append(f"sphere r={radius:g} g(H,H) err {err:.2e}")

    curve = cat("accelerated_curve")  # accel 2
    err = max(abs(extrinsic_data(curve, curve.random_parameter_point(rng))
                  .h_norm2 - 4.0) for _ in range(20))
    ok = ok and err < 1e-8
    details.append(f"accelerated curve g(H,H) err {err:.2e}")

    for name in ("spacelike_plane", "straight_line"):
        emb = cat(name)
        worst = max(np.max(np.abs(
            extrinsic_data(emb, emb.random_parameter_point(rng)).shape))
            for _ in range(20))
        ok = ok and worst < 1e-12
        details.append(f"{name} |K| {worst:.2e}")

    worldline = cat("comoving_worldline_rw")
    worst = 0.0
    for _ in range(20):
        u = worldline.random_parameter_point(rng)
        ext = extrinsic_data(worldline, u)
        absg = worldline.ambient.reference_norm_matrix(ext.base.p)
        worst = max(worst, math.sqrt(max(
            float(ext.mean_curvature @ absg @ ext.mean_curvature), 0.0)))
    ok = ok and worst < 1e-10
    details.append(f"comoving worldline |H| {worst:.2e}")

    _report(ok, "4 closed-form curvatures", "; ".join(details))


def test_criterion_5_killing_integral_identity():
    grid = GridSpec((32, 32))
    res = killing_integral_check(cat("comoving_sphere_rw"),
                                 cat("rw_conformal", scale="t"), grid)
    ok = res.residual < 1e-6 and res.flux > 0.0 and res.obstruction_ok

    worst_flux = 0.0
    for emb_name in ("round_sphere", "round_sphere_alt", "flat_torus",
                     "ring_torus"):
        for field_name in ("time_translation", "boost_x", "rotation_z"):
            kres = killing_integral_check(cat(emb_name), cat(field_name),
                                          GridSpec((16, 16)))
            worst_flux = max(worst_flux, abs(kres.flux))
            ok = ok and kres.psi_sign == "zero" and kres.obstruction_ok
    ok = ok and worst_flux < 1e-8
    _report(ok, "5 conformal-Killing integral identity",
            f"expanding universe: residual {res.residual:.3e} < 1e-6, "
            f"flux {res.flux:.6g} > 0; flat Killing fluxes on closed "
            f"surfaces: worst |flux| {worst_flux:.3e} < 1e-8")


def test_criterion_6_null_killing_constraint():
    grid = GridSpec((16, 16))
    xi = cat("ppwave_null_killing")
    details = []
    ok = True
    for name in ("ppwave_torus", "ppwave_wavy_torus"):
        fit = null_killing_constraint_check(cat(name), xi, grid)
        satisfied = fit.spacelike_somewhere or fit.max_residual < 1e-6
        ok = ok and satisfied
        details.append(
            f"{name}: spacelike_somewhere={fit.spacelike_somewhere}, "
            f"parallel-fit residual {fit.max_residual:.3e}")
    _report(ok, "6 null-Killing constraint", "; ".join(details))


def test_criterion_7_quadrature_and_determinism(tmp_path, capsys):
    sphere = cat("round_sphere")
    target = 16.0 * math.pi
    err = abs(sphere.volume(GridSpec((32, 32))) - target) / target
    ok = err < 1e-10

    blobs = []
    for i in range(2):
        path = tmp_path / f"det{i}.json"
        code = cli.main(["classify", "--embedding", "ef_sphere:radius=1.5",
                         "--grid", "8,16", "--out-json", str(path)])
        capsys.readouterr()
        assert code == 0
        blobs.append(path.read_bytes())
    identical = blobs[0] == blobs[1]
    json.loads(blobs[0])  # must be valid JSON
    ok = ok and identical
    _report(ok, "7 quadrature accuracy and determinism",
            f"sphere area relative error {err:.3e} < 1e-10 at gauss-32; "
            f"repeated classification reports byte-identical: {identical}")
