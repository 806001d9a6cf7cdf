"""Built-in metrics, embeddings, vector fields and checkable scenarios.

The catalog is one table of `CatalogEntry` rows.  A row states each
parameter's default once, in its `ParamSpec`, and builds its object from
texts in the expression grammar, so every catalog object carries analytic
derivatives.  Continuous parameters enter the texts as named constants, so
every parameter set of an entry shares one compiled expression template.
Only finite-choice parameters select the text (the Minkowski dimension, the
Robertson-Walker scale factor), in the builders `_minkowski`,
`_robertson_walker` and `_rw_conformal`; every other row is built by its
kind's generic builder, `_metric`, `_embedding` or `_field`.

`expected` records hold reference results with the independent oracle that
produced them.  Quantities are texts in the expression grammar with the
entry's parameter names as constants, such as "4*pi*radius**2".
`tests/test_catalog.py::test_expected_records` checks every record of every
entry, scenarios included, at the defaults and at two drawn parameter sets.
"""

import math
from dataclasses import dataclass, field
from functools import partial

from .embedding import embedding_from_expressions
from .errors import ParamOutOfRange, UnknownEntry
from .geometry import metric_from_expressions, vector_field_from_expressions

TWO_PI = 2.0 * math.pi

_MINK_COORDS = ("t", "x", "y", "z")
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
    builder: object = None  # resolved parameter values -> the object
    expected: dict = field(default_factory=dict)
    ambient: tuple = ()  # an embedding's metric entry, then the parameters it passes on

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

    def ambient_of(self, values):
        """The entry of an embedding's ambient metric and that metric's
        resolved parameters, given the embedding's resolved `values`."""
        metric = get_entry(self.ambient[0])
        return metric, metric.resolve_params({p: values[p] for p in self.ambient[1:]})


# ---------------------------------------------------------------------------
# builders: each takes an entry's resolved parameter values

def _minkowski(values):
    dimension = values["dimension"]
    dim = int(dimension)
    if dim != dimension:
        raise ParamOutOfRange(f"minkowski.dimension={dimension} must be an integer")
    coords = _MINK_COORDS[:dim] if dim <= 4 else ("t", *(f"x{i}" for i in range(1, dim)))
    comps = [["0"] * dim for _ in range(dim)]
    comps[0][0] = "-1"
    for i in range(1, dim):
        comps[i][i] = "1"
    orientation = ["1"] + ["0"] * (dim - 1)
    return metric_from_expressions(coords, comps, time_orientation=orientation,
                                   name="minkowski")


def _robertson_walker(values):
    scale = values["scale"]
    a = _RW_SCALE_FACTORS[scale]
    comps = [["-1", "0", "0", "0"],
             ["0", f"({a})**2", "0", "0"],
             ["0", "0", f"({a})**2", "0"],
             ["0", "0", "0", f"({a})**2"]]
    bounds = None if scale == "const" else [(0.0, None)] + [(None, None)] * 3
    return metric_from_expressions(
        _MINK_COORDS, comps, time_orientation=["1", "0", "0", "0"], chart_bounds=bounds,
        name=f"robertson_walker[{scale}]")


def _rw_conformal(values):
    scale = values["scale"]
    components = [_RW_SCALE_FACTORS[scale], "0", "0", "0"]
    return vector_field_from_expressions(_MINK_COORDS, components,
                                         name=f"rw_conformal[{scale}]")


def _constants(names, values):
    """Constant name -> value, from `names`: constant name -> parameter."""
    return {const: values[param] for const, param in (names or {}).items()}


def _metric(name, values, *, coords, comps, orientation, bounds=None, constants=None,
            suffix=""):
    return metric_from_expressions(
        coords, comps, constants=_constants(constants, values),
        time_orientation=orientation, chart_bounds=bounds,
        name=name + suffix.format(**values))


def _embedding(name, values, *, parameters, chart_map, domain, periodic=None,
               closed=False, constants=None, suffix=""):
    """The embedding in its ambient metric, built through the metric entry's
    own builder.  `domain` is the parameter box, or a function of the values
    that gives it; a box that is not finite lo < hi is a ParamOutOfRange."""
    metric, metric_values = get_entry(name).ambient_of(values)
    ambient = metric.builder(metric_values)
    try:
        return embedding_from_expressions(
            ambient, parameters, chart_map,
            param_domain=domain(values) if callable(domain) else domain,
            periodic=periodic, closed=closed, constants=_constants(constants, values),
            name=name + suffix.format(**values))
    except ValueError as exc:
        raise ParamOutOfRange(f"{name} at {values}: {exc}") from None


def _field(name, values, *, components, coords=_MINK_COORDS):
    return vector_field_from_expressions(coords, components, name=name)


def _row(kind, name, params, description, expected=None, ambient=(), **texts):
    """An entry built by its kind's generic builder from `texts`."""
    build = {"metric": _metric, "embedding": _embedding, "vector_field": _field}[kind]
    return CatalogEntry(name, kind, params, description, partial(build, name, **texts),
                        expected or {}, ambient)


# ---------------------------------------------------------------------------
# the table

_p = ParamSpec
_SCALE_PARAM = _p("scale", "t", choices=tuple(_RW_SCALE_FACTORS))
_SPHERE_MAP = ["T0", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)", "R*cos(u1)"]
_SPHERE = {"parameters": ("u1", "u2"), "domain": [(0.0, math.pi), (0.0, TWO_PI)],
           "periodic": (False, True), "closed": True}
_TORUS = {"parameters": ("u1", "u2"), "periodic": (True, True), "closed": True}
_EF_EXPANSIONS = "analytic EF null expansions theta+ = (1 - 2M/r)/r, theta- = -2/r"

_ENTRIES = [
    CatalogEntry(
        "minkowski", "metric", (_p("dimension", 4, lo=1.5, hi=8.5),),
        "Flat Lorentzian metric diag(-1, 1, ..., 1); T = d/dt.",
        _minkowski,
        expected={"christoffel": {"value": "0"}},
    ),
    CatalogEntry(
        "robertson_walker", "metric", (_SCALE_PARAM,),
        "Flat-slicing cosmological metric -dt^2 + a(t)^2 dx^2 with "
        "a in {t, t^2, 1}; conformal field a(t) d/dt.",
        _robertson_walker,
    ),
    _row(
        "metric", "schwarzschild_ef", (_p("mass", 1.0, lo=0.0),),
        "Schwarzschild in ingoing Eddington-Finkelstein coordinates "
        "(v, r, th, ph); chart r > 0 crosses the horizon.",
        # the ingoing chart (v, r, th, ph) is regular at r = 2M
        coords=("v", "r", "th", "ph"),
        comps=[["-(1 - 2*M/r)", "1", "0", "0"],
               ["1", "0", "0", "0"],
               ["0", "0", "r**2", "0"],
               ["0", "0", "0", "r**2 * sin(th)**2"]],
        # No coordinate vector is timelike across the horizon; this combination
        # has g(T, T) = -2 on the whole chart and is declared future-pointing.
        orientation=["1", "-(1 + 2*M/r)/2", "0", "0"],
        bounds=[(None, None), (0.0, None), (None, None), (None, None)],
        constants={"M": "mass"}, suffix="[M={mass:g}]",
    ),
    _row(
        "metric", "ppwave", (_p("amplitude", 0.5),),
        "Plane-fronted wave H du^2 - 2 du dv + dx^2 + dy^2 with quadratic "
        "profile; d/dv is a null Killing field.",
        # H = A (x^2 - y^2), a quadratic (vacuum) profile
        coords=("u", "v", "x", "y"),
        comps=[["A * (x**2 - y**2)", "-1", "0", "0"],
               ["-1", "0", "0", "0"],
               ["0", "0", "1", "0"],
               ["0", "0", "0", "1"]],
        orientation=["1", "((A * (x**2 - y**2)) + 2)/2", "0", "0"],
        constants={"A": "amplitude"}, suffix="[{amplitude:g}]",
    ),
    _row(
        "embedding", "round_sphere", (_p("radius", 2.0, lo=0.0), _p("time", 0.0)),
        "Round sphere of the t = const slice of Minkowski space.",
        expected={
            "area": {"value": "4*pi*radius**2",
                     "oracle": "closed-form area of the round sphere"},
            "h_norm2": {"value": "4/radius**2",
                        "oracle": "trace of the closed-form shape tensor"},
            "verdict": {"value": "AbsolutelyNonTrapped",
                        "oracle": "g(H,H) = 4/r^2 > 0"},
        },
        ambient=("minkowski",), chart_map=_SPHERE_MAP, **_SPHERE,
        constants={"R": "radius", "T0": "time"}, suffix="[r={radius:g}]",
    ),
    _row(
        "embedding", "round_sphere_alt", (_p("radius", 2.0, lo=0.0), _p("time", 0.0)),
        "The same sphere with poles along x: reparametrization check.",
        ambient=("minkowski",), **_SPHERE,
        chart_map=["T0", "R*cos(u1)", "R*sin(u1)*cos(u2)", "R*sin(u1)*sin(u2)"],
        constants={"R": "radius", "T0": "time"}, suffix="[r={radius:g}]",
    ),
    _row(
        "embedding", "flat_torus", (_p("period", TWO_PI, lo=0.0),),
        "Flat 2-torus (periodic plane) in the t = 0 slice of Minkowski.",
        expected={"verdict": {"value": "Extremal"}},
        ambient=("minkowski",), chart_map=["0", "u1", "u2", "0"], **_TORUS,
        domain=lambda v: [(0.0, v["period"])] * 2, suffix="[P={period:g}]",
    ),
    _row(
        "embedding", "ring_torus", (_p("major", 3.0, lo=0.0), _p("minor", 1.0, lo=0.0)),
        "Ring torus of revolution in the t = 0 slice of Minkowski.",
        expected={"area": {"value": "4*pi**2*major*minor",
                           "oracle": "Pappus theorem"}},
        ambient=("minkowski",), **_TORUS, domain=[(0.0, TWO_PI)] * 2,
        chart_map=["0", "(A + B*cos(u1))*cos(u2)", "(A + B*cos(u1))*sin(u2)",
                   "B*sin(u1)"],
        constants={"A": "major", "B": "minor"}, suffix="[{major:g},{minor:g}]",
    ),
    _row(
        "embedding", "straight_line", (_p("length", 1.0, lo=0.0),),
        "Timelike coordinate line in Minkowski: a geodesic, K = 0.",
        expected={"shape_tensor": {"value": "0"}},
        ambient=("minkowski",), parameters=("u1",), chart_map=["u1", "0", "0", "0"],
        domain=lambda v: [(0.0, v["length"])],
    ),
    _row(
        "embedding", "accelerated_curve",
        (_p("accel", 2.0, lo=0.0), _p("length", 1.0, lo=0.0)),
        "Uniformly accelerated hyperbola in Minkowski; g(H,H) = accel^2.",
        expected={"h_norm2": {"value": "accel**2",
                              "oracle": "direct differentiation of the hyperbola"}},
        ambient=("minkowski",), parameters=("u1",),
        chart_map=["sinh(A*u1)/A", "cosh(A*u1)/A", "0", "0"],
        domain=lambda v: [(-0.5 * v["length"], 0.5 * v["length"])],
        constants={"A": "accel"}, suffix="[a={accel:g}]",
    ),
    _row(
        "embedding", "spacelike_plane", (_p("extent", 1.0, lo=0.0),),
        "Totally geodesic spacelike plane patch in Minkowski.",
        expected={"verdict": {"value": "Extremal"}},
        ambient=("minkowski",), parameters=("u1", "u2"), chart_map=["0", "u1", "u2", "0"],
        domain=lambda v: [(-v["extent"], v["extent"])] * 2,
    ),
    _row(
        "embedding", "timelike_plane", (_p("extent", 1.0, lo=0.0),),
        "Timelike plane patch: not spacelike (gamma = diag(-1, 1)).",
        ambient=("minkowski",), parameters=("u1", "u2"), chart_map=["u1", "u2", "0", "0"],
        domain=lambda v: [(-v["extent"], v["extent"])] * 2,
    ),
    _row(
        "embedding", "comoving_sphere_rw",
        (_p("radius", 1.0, lo=0.0), _p("time", 2.0, lo=0.0), _SCALE_PARAM),
        "Comoving coordinate sphere in a t = const slice of Robertson-Walker.",
        ambient=("robertson_walker", "scale"), chart_map=_SPHERE_MAP, **_SPHERE,
        constants={"R": "radius", "T0": "time"},
        suffix="[r={radius:g},t={time:g},{scale}]",
    ),
    _row(
        "embedding", "comoving_worldline_rw",
        (_SCALE_PARAM, _p("t_start", 1.0, lo=0.0), _p("t_end", 3.0, lo=0.0)),
        "Comoving observer worldline in Robertson-Walker: a geodesic, H = 0.",
        expected={"mean_curvature": {"value": "0",
                                     "oracle": "Gamma^mu_tt = 0 in the RW chart"}},
        ambient=("robertson_walker", "scale"), parameters=("u1",),
        chart_map=["u1", "0", "0", "0"], domain=lambda v: [(v["t_start"], v["t_end"])],
        suffix="[{scale}]",
    ),
    _row(
        # the t = const slice compactified to a flat 3-torus: a closed
        # spacelike hypersurface of Robertson-Walker
        "embedding", "t_const_hypersurface_rw",
        (_p("time", 2.0, lo=0.0), _p("period", TWO_PI, lo=0.0), _SCALE_PARAM),
        "Compactified t = const hypersurface of Robertson-Walker (3-torus).",
        ambient=("robertson_walker", "scale"), parameters=("u1", "u2", "u3"),
        chart_map=["T0", "u1", "u2", "u3"], domain=lambda v: [(0.0, v["period"])] * 3,
        periodic=(True, True, True), closed=True,
        constants={"T0": "time"}, suffix="[t={time:g},{scale}]",
    ),
    _row(
        "embedding", "ef_sphere",
        (_p("radius", 1.0, lo=0.0), _p("mass", 1.0, lo=0.0), _p("vtime", 0.0)),
        "Round r = const, v = const sphere in Eddington-Finkelstein "
        "Schwarzschild; trapped for r < 2M.",
        expected={
            "h_norm2": {"value": "4*(1 - 2*mass/radius)/radius**2",
                        "oracle": _EF_EXPANSIONS},
            "verdict[r<2M]": {"value": "FutureTrapped",
                              "oracle": "both null expansions negative"},
            "verdict[r=2M]": {"value": "MarginallyFutureTrapped",
                              "oracle": "theta+ = 0, theta- < 0"},
            "verdict[r>2M]": {"value": "AbsolutelyNonTrapped",
                              "oracle": "theta+ > 0 > theta-"},
        },
        ambient=("schwarzschild_ef", "mass"), chart_map=["V0", "R", "u1", "u2"],
        **_SPHERE, constants={"R": "radius", "V0": "vtime"},
        suffix="[r={radius:g},M={mass:g}]",
    ),
    _row(
        "embedding", "ppwave_torus",
        (_p("u0", 0.0), _p("v0", 0.0), _p("period", TWO_PI, lo=0.0),
         _p("amplitude", 0.5)),
        "Flat transverse 2-torus in the pp-wave chart; totally geodesic.",
        expected={"verdict": {"value": "Extremal"}},
        ambient=("ppwave", "amplitude"), chart_map=["U0", "V0", "u1", "u2"], **_TORUS,
        domain=lambda v: [(0.0, v["period"])] * 2, constants={"U0": "u0", "V0": "v0"},
    ),
    _row(
        # a transverse torus displaced along the wave direction v: its mean
        # curvature vector is proportional to the null Killing d/dv
        "embedding", "ppwave_wavy_torus",
        (_p("u0", 0.0), _p("v0", 0.0), _p("wobble", 0.1), _p("amplitude", 0.5)),
        "Transverse torus displaced along v; H is parallel to the null "
        "Killing field d/dv.",
        expected={"h_parallel_null_killing": {
            "value": True,
            "oracle": "hand computation: H = 2*wobble*cos(u1)*cos(u2) d/dv"}},
        ambient=("ppwave", "amplitude"), **_TORUS, domain=[(0.0, TWO_PI)] * 2,
        chart_map=["U0", "V0 + W*cos(u1)*cos(u2)", "u1", "u2"],
        constants={"U0": "u0", "V0": "v0", "W": "wobble"},
    ),
    _row("vector_field", "time_translation", (),
         "d/dt in Minkowski: a Killing field (Psi = 0).", components=["1", "0", "0", "0"]),
    _row("vector_field", "dilation", (), "x^mu d/dx^mu in Minkowski: a homothety (Psi = 1).",
         components=["t", "x", "y", "z"]),
    _row("vector_field", "boost_x", (),
         "Lorentz boost Killing field x d/dt + t d/dx in Minkowski.",
         components=["x", "t", "0", "0"]),
    _row("vector_field", "rotation_z", (), "Rotation Killing field about z in Minkowski.",
         components=["0", "-y", "x", "0"]),
    _row("vector_field", "radial_unit", (),
         "Unit outward radial field on the t = const slices of Minkowski.",
         components=["0", "x/sqrt(x**2 + y**2 + z**2)", "y/sqrt(x**2 + y**2 + z**2)",
                     "z/sqrt(x**2 + y**2 + z**2)"]),
    CatalogEntry(
        "rw_conformal", "vector_field", (_SCALE_PARAM,),
        "a(t) d/dt in Robertson-Walker: conformal Killing with Psi = da/dt.",
        _rw_conformal,
    ),
    _row("vector_field", "ppwave_null_killing", (),
         "d/dv in the pp-wave chart: a null Killing field.",
         coords=("u", "v", "x", "y"), components=["0", "1", "0", "0"]),
    CatalogEntry(
        "schwarzschild_transition", "scenario", (),
        "Classification verdicts of EF spheres across the horizon, M = 1.",
        expected={
            "radii": {"value": [1.0, 1.5, 1.9, 2.0, 2.1, 3.0]},
            "verdicts": {"value": ["FutureTrapped", "FutureTrapped",
                                   "FutureTrapped", "MarginallyFutureTrapped",
                                   "AbsolutelyNonTrapped",
                                   "AbsolutelyNonTrapped"],
                         "oracle": _EF_EXPANSIONS},
        },
    ),
    CatalogEntry(
        "rw_expanding_killing_integral", "scenario", (),
        "Conformal-Killing integral identity on (RW a = t, comoving sphere, "
        "xi = a d/dt); Psi = 1 forces a positive g(xi, H) flux.",
        expected={
            "residual_below": {"value": "1e-6",
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
    return entry.builder(entry.resolve_params(params))
