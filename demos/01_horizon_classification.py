"""Classify spheres across the Schwarzschild horizon.

Round v = const, r = const spheres in ingoing Eddington-Finkelstein
coordinates are future trapped inside r = 2M (the mean curvature vector
H is future timelike), marginally trapped exactly on the horizon (H is
future null) and untrapped outside (H is spacelike).  The chart is
regular at the horizon, so one sweep of radii crosses it smoothly.
"""

from trapsurf import GridSpec, catalog, classify_submanifold

GRID = GridSpec((16, 32))

print(f"{'r/M':>6} {'verdict':28} {'g(H,H) at a sample point':>26}")
for radius in (0.5, 1.0, 1.5, 1.9, 2.0, 2.1, 3.0, 5.0):
    sphere = catalog.instantiate("ef_sphere", radius=radius)
    report = classify_submanifold(sphere, GRID)
    h2 = report.columns.h_norm2[0]
    print(f"{radius:6.2f} {report.verdict:28} {h2:26.6e}")

print()
print("analytic check: g(H,H) = 4 (1 - 2M/r) / r^2 changes sign at r = 2M")
