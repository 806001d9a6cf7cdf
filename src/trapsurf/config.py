"""Run configuration: a schema-versioned JSON document selecting a metric,
an embedding, vector fields, a grid, tolerance overrides and outputs.

Objects are either catalog references ({"catalog": name, "params": {...}})
or inline definitions written in the expression grammar.  Unknown keys are
rejected by name so typos fail loudly.
"""

import json
from dataclasses import dataclass, field

from . import catalog
from .embedding import embedding_from_expressions
from .errors import ConfigError
from .geometry import metric_from_expressions, vector_field_from_expressions
from .quadrature import GridSpec

SCHEMA_VERSION = 1
TOL_MIN, TOL_MAX = 1e-15, 1e-2

_TOP_KEYS = {"schema_version", "metric", "embedding", "fields", "grid",
             "tolerances", "outputs"}
_OBJECT_KEYS = {"catalog", "params", "inline"}
_METRIC_INLINE_KEYS = {"coordinates", "components", "constants",
                       "time_orientation", "chart_bounds", "name"}
_EMBEDDING_INLINE_KEYS = {"parameters", "map", "domain", "periodic", "closed",
                          "constants", "name"}
_FIELD_INLINE_KEYS = {"coordinates", "components", "constants", "name"}
_METRIC_REQUIRED = ("coordinates", "components")
_EMBEDDING_REQUIRED = ("parameters", "map", "domain")
_FIELD_REQUIRED = ("components",)
_GRID_KEYS = {"points_per_axis", "rule"}
_OUTPUT_KEYS = {"format", "path"}
_TOLERANCE_NAMES = {"null_band"}


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(obj, allowed, where, required=()):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def grid_spec(points, rule="auto"):
    """A GridSpec from configuration or command-line values."""
    try:
        return GridSpec(tuple(points), rule)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid {points!r} ({rule!r}): {exc}") from None


def check_tolerances(tols):
    """Named tolerance values as floats, each known and inside its range."""
    out = {}
    for name, val in tols.items():
        if name not in _TOLERANCE_NAMES:
            raise ConfigError(
                f"unknown tolerance {name!r}; valid: {sorted(_TOLERANCE_NAMES)}"
            )
        try:
            val = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"tolerance {name}={val!r} is not a number") from None
        if not TOL_MIN <= val <= TOL_MAX:
            raise ConfigError(
                f"tolerance {name}={val} outside [{TOL_MIN}, {TOL_MAX}]"
            )
        out[name] = val
    return out


@dataclass(frozen=True)
class ObjectRef:
    """A catalog reference or an inline expression-grammar definition."""

    catalog: str = None
    params: dict = field(default_factory=dict)
    inline: dict = None

    @classmethod
    def parse(cls, obj, where, inline_keys, required):
        _require_mapping(obj, where)
        _check_keys(obj, _OBJECT_KEYS, where)
        has_cat = "catalog" in obj
        has_inline = "inline" in obj
        if has_cat == has_inline:
            raise ConfigError(
                f"{where} needs exactly one of 'catalog' or 'inline'"
            )
        if has_inline:
            inline = _require_mapping(obj["inline"], f"{where}.inline")
            _check_keys(inline, inline_keys, f"{where}.inline", required)
            if "params" in obj:
                raise ConfigError(f"{where}: 'params' only applies to catalog refs")
            return cls(inline=dict(inline))
        params = _require_mapping(obj.get("params", {}), f"{where}.params")
        return cls(catalog=str(obj["catalog"]), params=dict(params))


@dataclass(frozen=True)
class RunConfig:
    schema_version: int
    embedding: ObjectRef
    metric: ObjectRef = None
    fields: tuple = ()
    grid: GridSpec = None   # None: the command's default for the embedding
    tolerances: dict = field(default_factory=dict)
    outputs: tuple = ()

    @classmethod
    def from_dict(cls, data):
        _require_mapping(data, "config")
        _check_keys(data, _TOP_KEYS, "config")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        if "embedding" not in data:
            raise ConfigError("config requires an 'embedding' entry")
        embedding = ObjectRef.parse(data["embedding"], "embedding",
                                    _EMBEDDING_INLINE_KEYS, _EMBEDDING_REQUIRED)
        metric = None
        if "metric" in data:
            metric = ObjectRef.parse(data["metric"], "metric",
                                     _METRIC_INLINE_KEYS, _METRIC_REQUIRED)
        if embedding.inline is not None and metric is None:
            raise ConfigError("an inline embedding requires a 'metric' entry")
        fields = tuple(
            ObjectRef.parse(f, f"fields[{i}]", _FIELD_INLINE_KEYS, _FIELD_REQUIRED)
            for i, f in enumerate(data.get("fields", []))
        )
        grid = None
        if "grid" in data:
            grid_data = _require_mapping(data["grid"], "grid")
            _check_keys(grid_data, _GRID_KEYS, "grid")
            if "points_per_axis" not in grid_data:
                raise ConfigError("grid requires points_per_axis")
            grid = grid_spec(grid_data["points_per_axis"],
                             grid_data.get("rule", "auto"))
        tols = _require_mapping(data.get("tolerances", {}), "tolerances")
        outputs = []
        for i, out in enumerate(data.get("outputs", [])):
            _require_mapping(out, f"outputs[{i}]")
            _check_keys(out, _OUTPUT_KEYS, f"outputs[{i}]")
            fmt = out.get("format")
            if fmt not in ("json", "csv", "text"):
                raise ConfigError(f"outputs[{i}].format must be json|csv|text")
            if "path" not in out:
                raise ConfigError(f"outputs[{i}] requires a path")
            outputs.append({"format": fmt, "path": str(out["path"])})
        return cls(
            schema_version=version,
            embedding=embedding,
            metric=metric,
            fields=fields,
            grid=grid,
            tolerances=check_tolerances(tols),
            outputs=tuple(outputs),
        )


def load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_dict(data)


def _from_catalog(ref: ObjectRef, kind):
    entry = catalog.get_entry(ref.catalog)
    if entry.kind != kind:
        raise ConfigError(f"catalog entry {entry.name!r} has kind "
                          f"{entry.kind!r}, expected {kind!r}")
    return catalog.instantiate(entry.name, **ref.params)


def _inline(where, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError or TypeError a ConfigError
    that names the inline object `where`."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid inline {where}: {exc}") from None


def build_metric(ref: ObjectRef):
    if ref.catalog is not None:
        return _from_catalog(ref, "metric")
    inline = ref.inline
    return _inline(
        "metric",
        metric_from_expressions,
        inline["coordinates"],
        inline["components"],
        constants=inline.get("constants"),
        time_orientation=inline.get("time_orientation"),
        chart_bounds=inline.get("chart_bounds"),
        name=inline.get("name", "inline-metric"),
    )


def _check_own_metric(given: ObjectRef, ref: ObjectRef, ambient):
    """A metric given with the catalog embedding `ref` must be its own
    `ambient`: the same catalog entry at equal parameter values."""
    entry = catalog.get_entry(ref.catalog)
    own, own_values = entry.ambient_of(entry.resolve_params(ref.params))
    if given.inline is not None:
        raise ConfigError(
            f"an inline metric cannot replace the ambient metric {ambient.name!r} of "
            f"catalog embedding {ref.catalog!r}; a catalog embedding brings its own metric"
        )
    if given.catalog == own.name and own.resolve_params(given.params) == own_values:
        return
    metric = build_metric(given)  # a bad reference raises its own error first
    given_values = catalog.get_entry(given.catalog).resolve_params(given.params)
    raise ConfigError(
        f"metric {metric.name!r} {given_values} is not the ambient metric "
        f"{ambient.name!r} {own_values} of catalog embedding {ref.catalog!r}; "
        "a catalog embedding brings its own metric"
    )


def build_embedding(config: RunConfig):
    ref = config.embedding
    if ref.catalog is not None:
        embedding = _from_catalog(ref, "embedding")
        if config.metric is not None:
            _check_own_metric(config.metric, ref, embedding.ambient)
        return embedding
    inline = ref.inline
    ambient = build_metric(config.metric)
    return _inline(
        "embedding",
        embedding_from_expressions,
        ambient,
        inline["parameters"],
        inline["map"],
        param_domain=inline["domain"],
        periodic=inline.get("periodic"),
        closed=bool(inline.get("closed", False)),
        constants=inline.get("constants"),
        name=inline.get("name", "inline-embedding"),
    )


def _inline_field(inline, ambient):
    """An inline vector field, in the ambient coordinates or as many of its own."""
    coordinates = tuple(inline.get("coordinates", ambient.coordinates))
    if len(coordinates) != ambient.dim:
        raise ValueError(f"{len(coordinates)} coordinates, but the ambient metric "
                         f"{ambient.name!r} has dimension {ambient.dim}")
    return vector_field_from_expressions(coordinates, inline["components"],
                                         constants=inline.get("constants"),
                                         name=inline.get("name", "inline-field"))


def build_fields(config: RunConfig, ambient):
    return [_from_catalog(ref, "vector_field") if ref.catalog is not None
            else _inline(f"fields[{i}]", _inline_field, ref.inline, ambient)
            for i, ref in enumerate(config.fields)]
