"""First variation of area under an outward flow, two independent ways.

A round sphere of radius r in flat space has area 4 pi r^2, so flowing
outward at unit speed must change the area at rate 8 pi r.  The library
computes dV/dtau twice:

  * by quadrature of the pointwise identity
        d(log volume element)/dtau = div(xi_tan) + g(xi, H)
  * by actually transporting the surface along the flow of xi with a
    Runge-Kutta integrator and centrally differencing the areas.

The two paths share no derivative code, so their agreement is a real
cross-check of the shape-tensor machinery.
"""

import math

from trapsurf import FlowSpec, GridSpec, catalog, flow_volume_oracle, volume_variation

sphere = catalog.instantiate("round_sphere", radius=2.0)
xi = catalog.instantiate("radial_unit")
grid = GridSpec((16, 16))

identity = volume_variation(sphere, xi, grid)
oracle = flow_volume_oracle(sphere, FlowSpec(xi, tau_step=1e-6), grid)
target = 8.0 * math.pi * 2.0

print(f"identity quadrature : {identity.total:.12f}")
print(f"  divergence term   : {identity.divergence_term:+.3e} (closed: ~0)")
print(f"  expansion term    : {identity.expansion_term:.12f}")
print(f"flow oracle         : {oracle:.12f}")
print(f"analytic 8*pi*r     : {target:.12f}")
print(f"relative difference : {abs(identity.total - oracle) / target:.3e}")

# a Killing flow preserves volume exactly
still = volume_variation(sphere, catalog.instantiate("time_translation"), grid)
print(f"\nKilling flow dV/dtau: {still.total:+.3e} (exactly zero analytically)")
