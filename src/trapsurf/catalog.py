"""Built-in metrics, embeddings, vector fields and checkable scenarios.

Every entry is constructed through the expression grammar, so all catalog
objects carry analytic derivatives.  Continuous parameters enter the
expressions as named constants, so every parameter set of an entry shares
one compiled expression template; only finite-choice parameters (the
Robertson-Walker scale factor, the Minkowski dimension) select the text.
`expected` values record reference results together with the independent
oracle that produced them; the test suite regression-checks them.
"""

import math
from dataclasses import dataclass, field

from .embedding import embedding_from_expressions
from .errors import ParamOutOfRange, UnknownEntry
from .geometry import metric_from_expressions, vector_field_from_expressions

TWO_PI = 2.0 * math.pi

_RW_SCALE_FACTORS = {"t": "t", "t2": "t**2", "const": "1"}


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: object
    lo: float = None
    hi: float = None
    choices: tuple = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # metric | embedding | vector_field | scenario
    params: tuple
    description: str
    builder: object = None
    expected: dict = field(default_factory=dict)

    def resolve_params(self, overrides):
        """Each parameter's override, else its default, checked by name: a
        number may come as its text, but not as a bool nor non-finite."""
        known = {p.name: p for p in self.params}
        for key in overrides:
            if key not in known:
                raise ParamOutOfRange(
                    f"unknown parameter {key!r} for catalog entry {self.name!r}; "
                    f"valid: {sorted(known)}"
                )
        values = {}
        for spec in self.params:
            val = overrides.get(spec.name, spec.default)
            where = f"{self.name}.{spec.name}"
            if spec.choices is not None:
                if val not in spec.choices:
                    raise ParamOutOfRange(f"{where}={val!r} not in {spec.choices}")
            else:
                try:
                    number = math.nan if isinstance(val, bool) else float(val)
                except (TypeError, ValueError):
                    number = math.nan
                if not math.isfinite(number):
                    raise ParamOutOfRange(f"{where}={val!r} must be a finite number")
                val = number
                if spec.lo is not None and val <= spec.lo:
                    raise ParamOutOfRange(f"{where}={val} must be > {spec.lo}")
                if spec.hi is not None and val >= spec.hi:
                    raise ParamOutOfRange(f"{where}={val} must be < {spec.hi}")
            values[spec.name] = val
        return values


# ---------------------------------------------------------------------------
# metric builders

def _minkowski(dimension=4.0):
    dim = int(dimension)
    if dim != dimension:
        raise ParamOutOfRange(f"minkowski.dimension={dimension} must be an integer")
    coords = ("t", "x", "y", "z")[:dim] if dim <= 4 else tuple(
        ["t"] + [f"x{i}" for i in range(1, dim)]
    )
    comps = [["0"] * dim for _ in range(dim)]
    comps[0][0] = "-1"
    for i in range(1, dim):
        comps[i][i] = "1"
    orientation = ["1"] + ["0"] * (dim - 1)
    return metric_from_expressions(
        coords, comps, time_orientation=orientation, name="minkowski"
    )


def _robertson_walker(scale="t"):
    a = _RW_SCALE_FACTORS[scale]
    comps = [
        ["-1", "0", "0", "0"],
        ["0", f"({a})**2", "0", "0"],
        ["0", "0", f"({a})**2", "0"],
        ["0", "0", "0", f"({a})**2"],
    ]
    bounds = None if scale == "const" else [(0.0, None), (None, None),
                                            (None, None), (None, None)]
    return metric_from_expressions(
        ("t", "x", "y", "z"),
        comps,
        time_orientation=["1", "0", "0", "0"],
        chart_bounds=bounds,
        name=f"robertson_walker[{scale}]",
    )


def _schwarzschild_ef(mass=1.0):
    # Ingoing Eddington-Finkelstein chart (v, r, th, ph): regular at r = 2M.
    comps = [
        ["-(1 - 2*M/r)", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "r**2", "0"],
        ["0", "0", "0", "r**2 * sin(th)**2"],
    ]
    # No coordinate vector is timelike across the horizon; this combination
    # has g(T, T) = -2 on the whole chart and is declared future-pointing.
    orientation = ["1", "-(1 + 2*M/r)/2", "0", "0"]
    return metric_from_expressions(
        ("v", "r", "th", "ph"),
        comps,
        constants={"M": mass},
        time_orientation=orientation,
        chart_bounds=[(None, None), (0.0, None), (None, None), (None, None)],
        name=f"schwarzschild_ef[M={mass:g}]",
    )


def _ppwave(amplitude=0.5):
    # ds^2 = H du^2 - 2 du dv + dx^2 + dy^2 with quadratic (vacuum) profile.
    h_expr = "A * (x**2 - y**2)"
    comps = [
        [h_expr, "-1", "0", "0"],
        ["-1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    orientation = ["1", f"(({h_expr}) + 2)/2", "0", "0"]
    return metric_from_expressions(
        ("u", "v", "x", "y"),
        comps,
        constants={"A": amplitude},
        time_orientation=orientation,
        name=f"ppwave[{amplitude:g}]",
    )


# ---------------------------------------------------------------------------
# embedding builders

def _round_sphere(radius=2.0, time=0.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["T0", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)", "R*cos(u1)"],
        param_domain=[(0.0, math.pi), (0.0, TWO_PI)],
        periodic=(False, True),
        closed=True,
        constants={"R": radius, "T0": time},
        name=f"round_sphere[r={radius:g}]",
    )


def _round_sphere_alt(radius=2.0, time=0.0):
    # Same sphere, poles along the x-axis: reparametrization check case.
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["T0", "R*cos(u1)", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)"],
        param_domain=[(0.0, math.pi), (0.0, TWO_PI)],
        periodic=(False, True),
        closed=True,
        constants={"R": radius, "T0": time},
        name=f"round_sphere_alt[r={radius:g}]",
    )


def _flat_torus(period=TWO_PI):
    p = period
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["0", "u1", "u2", "0"],
        param_domain=[(0.0, p), (0.0, p)],
        periodic=(True, True),
        closed=True,
        name=f"flat_torus[P={period:g}]",
    )


def _ring_torus(major=3.0, minor=1.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["0", "(A + B*cos(u1))*cos(u2)", "(A + B*cos(u1))*sin(u2)", "B*sin(u1)"],
        param_domain=[(0.0, TWO_PI), (0.0, TWO_PI)],
        periodic=(True, True),
        closed=True,
        constants={"A": major, "B": minor},
        name=f"ring_torus[{major:g},{minor:g}]",
    )


def _straight_line(length=1.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1",),
        ["u1", "0", "0", "0"],
        param_domain=[(0.0, length)],
        name="straight_line",
    )


def _accelerated_curve(accel=2.0, length=1.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1",),
        ["sinh(A*u1)/A", "cosh(A*u1)/A", "0", "0"],
        param_domain=[(-0.5 * length, 0.5 * length)],
        constants={"A": accel},
        name=f"accelerated_curve[a={accel:g}]",
    )


def _spacelike_plane(extent=1.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["0", "u1", "u2", "0"],
        param_domain=[(-extent, extent), (-extent, extent)],
        name="spacelike_plane",
    )


def _timelike_plane(extent=1.0):
    return embedding_from_expressions(
        _minkowski(),
        ("u1", "u2"),
        ["u1", "u2", "0", "0"],
        param_domain=[(-extent, extent), (-extent, extent)],
        name="timelike_plane",
    )


def _comoving_sphere_rw(radius=1.0, time=2.0, scale="t"):
    return embedding_from_expressions(
        _robertson_walker(scale),
        ("u1", "u2"),
        ["T0", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)", "R*cos(u1)"],
        param_domain=[(0.0, math.pi), (0.0, TWO_PI)],
        periodic=(False, True),
        closed=True,
        constants={"R": radius, "T0": time},
        name=f"comoving_sphere_rw[r={radius:g},t={time:g},{scale}]",
    )


def _comoving_worldline_rw(scale="t", t_start=1.0, t_end=3.0):
    return embedding_from_expressions(
        _robertson_walker(scale),
        ("u1",),
        ["u1", "0", "0", "0"],
        param_domain=[(t_start, t_end)],
        name=f"comoving_worldline_rw[{scale}]",
    )


def _t_const_hypersurface_rw(time=2.0, period=TWO_PI, scale="t"):
    # t = const slice compactified to a flat 3-torus: a closed spacelike
    # hypersurface of Robertson-Walker.
    return embedding_from_expressions(
        _robertson_walker(scale),
        ("u1", "u2", "u3"),
        ["T0", "u1", "u2", "u3"],
        param_domain=[(0.0, period)] * 3,
        periodic=(True, True, True),
        closed=True,
        constants={"T0": time},
        name=f"t_const_hypersurface_rw[t={time:g},{scale}]",
    )


def _ef_sphere(radius=1.0, mass=1.0, vtime=0.0):
    return embedding_from_expressions(
        _schwarzschild_ef(mass),
        ("u1", "u2"),
        ["V0", "R", "u1", "u2"],
        param_domain=[(0.0, math.pi), (0.0, TWO_PI)],
        periodic=(False, True),
        closed=True,
        constants={"R": radius, "V0": vtime},
        name=f"ef_sphere[r={radius:g},M={mass:g}]",
    )


def _ppwave_torus(u0=0.0, v0=0.0, period=TWO_PI, amplitude=0.5):
    return embedding_from_expressions(
        _ppwave(amplitude),
        ("u1", "u2"),
        ["U0", "V0", "u1", "u2"],
        param_domain=[(0.0, period), (0.0, period)],
        periodic=(True, True),
        closed=True,
        constants={"U0": u0, "V0": v0},
        name="ppwave_torus",
    )


def _ppwave_wavy_torus(u0=0.0, v0=0.0, wobble=0.1, amplitude=0.5):
    # Transverse torus displaced along the wave direction v; its mean
    # curvature vector is proportional to the null Killing d/dv.
    return embedding_from_expressions(
        _ppwave(amplitude),
        ("u1", "u2"),
        ["U0", "V0 + W*cos(u1)*cos(u2)", "u1", "u2"],
        param_domain=[(0.0, TWO_PI), (0.0, TWO_PI)],
        periodic=(True, True),
        closed=True,
        constants={"U0": u0, "V0": v0, "W": wobble},
        name="ppwave_wavy_torus",
    )


# ---------------------------------------------------------------------------
# vector field builders (components in the coordinates of their metric)

_MINK_COORDS = ("t", "x", "y", "z")


def _time_translation():
    return vector_field_from_expressions(
        _MINK_COORDS, ["1", "0", "0", "0"], name="time_translation"
    )


def _dilation():
    return vector_field_from_expressions(
        _MINK_COORDS, ["t", "x", "y", "z"], name="dilation"
    )


def _boost_x():
    return vector_field_from_expressions(
        _MINK_COORDS, ["x", "t", "0", "0"], name="boost_x"
    )


def _rotation_z():
    return vector_field_from_expressions(
        _MINK_COORDS, ["0", "-y", "x", "0"], name="rotation_z"
    )


def _radial_unit():
    rho = "sqrt(x**2 + y**2 + z**2)"
    return vector_field_from_expressions(
        _MINK_COORDS,
        ["0", f"x/{rho}", f"y/{rho}", f"z/{rho}"],
        name="radial_unit",
    )


def _rw_conformal(scale="t"):
    a = _RW_SCALE_FACTORS[scale]
    return vector_field_from_expressions(
        _MINK_COORDS, [a, "0", "0", "0"], name=f"rw_conformal[{scale}]"
    )


def _ppwave_null_killing():
    return vector_field_from_expressions(
        ("u", "v", "x", "y"), ["0", "1", "0", "0"], name="ppwave_null_killing"
    )


# ---------------------------------------------------------------------------
# registry

def _p(name, default, lo=None, hi=None, choices=None):
    return ParamSpec(name=name, default=default, lo=lo, hi=hi, choices=choices)


_SCALE_PARAM = _p("scale", "t", choices=tuple(_RW_SCALE_FACTORS))

_ENTRIES = [
    CatalogEntry(
        "minkowski", "metric", (_p("dimension", 4, lo=1.5, hi=8.5),),
        "Flat Lorentzian metric diag(-1, 1, ..., 1); T = d/dt.",
        _minkowski,
        expected={"christoffel": {"value": 0.0}},
    ),
    CatalogEntry(
        "robertson_walker", "metric", (_SCALE_PARAM,),
        "Flat-slicing cosmological metric -dt^2 + a(t)^2 dx^2 with "
        "a in {t, t^2, 1}; conformal field a(t) d/dt.",
        _robertson_walker,
    ),
    CatalogEntry(
        "schwarzschild_ef", "metric", (_p("mass", 1.0, lo=0.0),),
        "Schwarzschild in ingoing Eddington-Finkelstein coordinates "
        "(v, r, th, ph); chart r > 0 crosses the horizon.",
        _schwarzschild_ef,
    ),
    CatalogEntry(
        "ppwave", "metric", (_p("amplitude", 0.5),),
        "Plane-fronted wave H du^2 - 2 du dv + dx^2 + dy^2 with quadratic "
        "profile; d/dv is a null Killing field.",
        _ppwave,
    ),
    CatalogEntry(
        "round_sphere", "embedding",
        (_p("radius", 2.0, lo=0.0), _p("time", 0.0)),
        "Round sphere of the t = const slice of Minkowski space.",
        _round_sphere,
        expected={
            "area": {"value": "4*pi*r^2",
                     "oracle": "closed-form area of the round sphere"},
            "h_norm2": {"value": "4/r^2",
                        "oracle": "trace of the closed-form shape tensor"},
            "verdict": {"value": "AbsolutelyNonTrapped",
                        "oracle": "g(H,H) = 4/r^2 > 0"},
        },
    ),
    CatalogEntry(
        "round_sphere_alt", "embedding",
        (_p("radius", 2.0, lo=0.0), _p("time", 0.0)),
        "The same sphere with poles along x: reparametrization check.",
        _round_sphere_alt,
    ),
    CatalogEntry(
        "flat_torus", "embedding", (_p("period", TWO_PI, lo=0.0),),
        "Flat 2-torus (periodic plane) in the t = 0 slice of Minkowski.",
        _flat_torus,
        expected={"verdict": {"value": "Extremal"}},
    ),
    CatalogEntry(
        "ring_torus", "embedding",
        (_p("major", 3.0, lo=0.0), _p("minor", 1.0, lo=0.0)),
        "Ring torus of revolution in the t = 0 slice of Minkowski.",
        _ring_torus,
        expected={"area": {"value": "4*pi^2*major*minor",
                           "oracle": "Pappus theorem"}},
    ),
    CatalogEntry(
        "straight_line", "embedding", (_p("length", 1.0, lo=0.0),),
        "Timelike coordinate line in Minkowski: a geodesic, K = 0.",
        _straight_line,
        expected={"shape_tensor": {"value": 0.0}},
    ),
    CatalogEntry(
        "accelerated_curve", "embedding",
        (_p("accel", 2.0, lo=0.0), _p("length", 1.0, lo=0.0)),
        "Uniformly accelerated hyperbola in Minkowski; g(H,H) = accel^2.",
        _accelerated_curve,
        expected={"h_norm2": {"value": "accel^2",
                              "oracle": "direct differentiation of the hyperbola"}},
    ),
    CatalogEntry(
        "spacelike_plane", "embedding", (_p("extent", 1.0, lo=0.0),),
        "Totally geodesic spacelike plane patch in Minkowski.",
        _spacelike_plane,
        expected={"verdict": {"value": "Extremal"}},
    ),
    CatalogEntry(
        "timelike_plane", "embedding", (_p("extent", 1.0, lo=0.0),),
        "Timelike plane patch: not spacelike (gamma = diag(-1, 1)).",
        _timelike_plane,
    ),
    CatalogEntry(
        "comoving_sphere_rw", "embedding",
        (_p("radius", 1.0, lo=0.0), _p("time", 2.0, lo=0.0), _SCALE_PARAM),
        "Comoving coordinate sphere in a t = const slice of Robertson-Walker.",
        _comoving_sphere_rw,
    ),
    CatalogEntry(
        "comoving_worldline_rw", "embedding",
        (_SCALE_PARAM, _p("t_start", 1.0, lo=0.0), _p("t_end", 3.0, lo=0.0)),
        "Comoving observer worldline in Robertson-Walker: a geodesic, H = 0.",
        _comoving_worldline_rw,
        expected={"mean_curvature": {"value": 0.0,
                                     "oracle": "Gamma^mu_tt = 0 in the RW chart"}},
    ),
    CatalogEntry(
        "t_const_hypersurface_rw", "embedding",
        (_p("time", 2.0, lo=0.0), _p("period", TWO_PI, lo=0.0), _SCALE_PARAM),
        "Compactified t = const hypersurface of Robertson-Walker (3-torus).",
        _t_const_hypersurface_rw,
    ),
    CatalogEntry(
        "ef_sphere", "embedding",
        (_p("radius", 1.0, lo=0.0), _p("mass", 1.0, lo=0.0), _p("vtime", 0.0)),
        "Round r = const, v = const sphere in Eddington-Finkelstein "
        "Schwarzschild; trapped for r < 2M.",
        _ef_sphere,
        expected={
            "h_norm2": {"value": "4*(1 - 2M/r)/r^2",
                        "oracle": "analytic EF null expansions "
                                  "theta+ = (1 - 2M/r)/r, theta- = -2/r"},
            "verdict[r<2M]": {"value": "FutureTrapped",
                              "oracle": "both null expansions negative"},
            "verdict[r=2M]": {"value": "MarginallyFutureTrapped",
                              "oracle": "theta+ = 0, theta- < 0"},
            "verdict[r>2M]": {"value": "AbsolutelyNonTrapped",
                              "oracle": "theta+ > 0 > theta-"},
        },
    ),
    CatalogEntry(
        "ppwave_torus", "embedding",
        (_p("u0", 0.0), _p("v0", 0.0), _p("period", TWO_PI, lo=0.0),
         _p("amplitude", 0.5)),
        "Flat transverse 2-torus in the pp-wave chart; totally geodesic.",
        _ppwave_torus,
        expected={"verdict": {"value": "Extremal"}},
    ),
    CatalogEntry(
        "ppwave_wavy_torus", "embedding",
        (_p("u0", 0.0), _p("v0", 0.0), _p("wobble", 0.1), _p("amplitude", 0.5)),
        "Transverse torus displaced along v; H is parallel to the null "
        "Killing field d/dv.",
        _ppwave_wavy_torus,
        expected={"h_parallel_null_killing": {
            "value": True,
            "oracle": "hand computation: H = 2*wobble*cos(u1)*cos(u2) d/dv"}},
    ),
    CatalogEntry(
        "time_translation", "vector_field", (),
        "d/dt in Minkowski: a Killing field (Psi = 0).", _time_translation,
    ),
    CatalogEntry(
        "dilation", "vector_field", (),
        "x^mu d/dx^mu in Minkowski: a homothety (Psi = 1).", _dilation,
    ),
    CatalogEntry(
        "boost_x", "vector_field", (),
        "Lorentz boost Killing field x d/dt + t d/dx in Minkowski.", _boost_x,
    ),
    CatalogEntry(
        "rotation_z", "vector_field", (),
        "Rotation Killing field about z in Minkowski.", _rotation_z,
    ),
    CatalogEntry(
        "radial_unit", "vector_field", (),
        "Unit outward radial field on the t = const slices of Minkowski.",
        _radial_unit,
    ),
    CatalogEntry(
        "rw_conformal", "vector_field", (_SCALE_PARAM,),
        "a(t) d/dt in Robertson-Walker: conformal Killing with Psi = da/dt.",
        _rw_conformal,
    ),
    CatalogEntry(
        "ppwave_null_killing", "vector_field", (),
        "d/dv in the pp-wave chart: a null Killing field.",
        _ppwave_null_killing,
    ),
    CatalogEntry(
        "schwarzschild_transition", "scenario", (),
        "Classification verdicts of EF spheres across the horizon, M = 1.",
        expected={
            "radii": {"value": [1.0, 1.5, 1.9, 2.0, 2.1, 3.0]},
            "verdicts": {"value": ["FutureTrapped", "FutureTrapped",
                                   "FutureTrapped", "MarginallyFutureTrapped",
                                   "AbsolutelyNonTrapped",
                                   "AbsolutelyNonTrapped"],
                         "oracle": "analytic EF null expansions "
                                   "theta+ = (1 - 2M/r)/r, theta- = -2/r"},
        },
    ),
    CatalogEntry(
        "rw_expanding_killing_integral", "scenario", (),
        "Conformal-Killing integral identity on (RW a = t, comoving sphere, "
        "xi = a d/dt); Psi = 1 forces a positive g(xi, H) flux.",
        expected={
            "residual_below": {"value": 1e-6,
                               "oracle": "analytic H of comoving RW spheres"},
            "flux_sign": {"value": "positive",
                          "oracle": "g(xi, H) = d * da/dt pointwise"},
        },
    ),
]

_REGISTRY = {e.name: e for e in _ENTRIES}
assert len(_REGISTRY) == len(_ENTRIES), "duplicate catalog names"


def get_entry(name) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEntry(f"no catalog entry named {name!r}") from None


def list_entries():
    """All entries in a deterministic (kind, name) order."""
    order = {"metric": 0, "embedding": 1, "vector_field": 2, "scenario": 3}
    return sorted(_ENTRIES, key=lambda e: (order[e.kind], e.name))


def instantiate(name, **params):
    """Build a catalog metric, embedding or vector field by name."""
    entry = get_entry(name)
    if entry.builder is None:
        raise UnknownEntry(f"{name!r} is a scenario, not an instantiable object")
    return entry.builder(**entry.resolve_params(params))
