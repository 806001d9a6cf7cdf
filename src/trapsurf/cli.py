"""Command-line front end.

Commands:
  classify                 classify a submanifold's mean curvature vector
  verify {eq3|killing|variation}
                           run the identity / oracle verification suites
  catalog {list|show}      inspect the built-in catalog

Exit codes: 0 success, 1 numerical failure, 2 classification Mixed with a
boundary diagnostic, 64 config error, 65 unknown catalog entry.
"""

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import catalog, variation
from .config import (RunConfig, build_embedding, build_fields, check_tolerances,
                     grid_spec, load_config)
from .errors import ConfigError, ParamOutOfRange, TrapsurfError, UnknownEntry
from .extrinsic import classify_submanifold
from .geometry import NULL_BAND_TOL
from .quadrature import GridSpec
from .sampling import random_polynomial_field

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_MIXED_BOUNDARY = 2
EXIT_CONFIG = 64
EXIT_UNKNOWN_ENTRY = 65

# The output formats each command writes; a config output in any other
# format is a configuration error, raised before the run.
COMMAND_FORMATS = {"classify": ("json", "csv", "text"), "verify": ("json", "text")}

EQ3_EMBEDDINGS = (
    "round_sphere", "ring_torus", "flat_torus", "accelerated_curve",
    "spacelike_plane", "comoving_sphere_rw", "t_const_hypersurface_rw",
    "ef_sphere", "ppwave_wavy_torus",
)
VARIATION_EMBEDDINGS = (
    "round_sphere", "ring_torus", "flat_torus", "comoving_sphere_rw",
    "ef_sphere", "ppwave_wavy_torus",
)


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_outputs(paths, bodies):
    """Write each (format, path) of `paths`; `bodies[format]()` builds a
    format's text, once, and only when some path asks for it."""
    built = {}
    for fmt, path in paths:
        if fmt not in built:
            built[fmt] = bodies[fmt]()
        with open(path, "w", newline="") as handle:
            handle.write(built[fmt])


def _csv_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def parse_catalog_ref(text):
    """'name:key=value,key=value' -> ObjectRef-style dict."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"bad parameter syntax {item!r} in {text!r}")
            entry = catalog.get_entry(name)
            spec = next((p for p in entry.params if p.name == key.strip()), None)
            if spec is not None and spec.choices is not None:
                params[key.strip()] = value.strip()
            else:
                try:
                    params[key.strip()] = float(value)
                except ValueError:
                    params[key.strip()] = value.strip()
    return {"catalog": name, "params": params}


def parse_tol_overrides(items):
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        out[name] = value
    return out


def config_from_args(args):
    """The run configuration: --config, else the catalog options of classify;
    None for verify without --config."""
    if getattr(args, "config", None):
        return load_config(args.config)
    if args.command == "verify":
        return None
    if not args.embedding:
        raise ConfigError("provide --config or --embedding")
    data = {"schema_version": 1, "embedding": parse_catalog_ref(args.embedding)}
    if args.metric:
        data["metric"] = parse_catalog_ref(args.metric)
    return RunConfig.from_dict(data)


def grid_for(args, dim, default):
    """The --grid option, else `default`, for an embedding of dimension `dim`."""
    grid = grid_spec(args.grid.split(","), default.rule) if args.grid else default
    if len(grid.points_per_axis) != dim:
        raise ConfigError(f"grid has {len(grid.points_per_axis)} axes but the "
                          f"embedding has {dim} parameters")
    return grid


def cmd_classify(args, config):
    tols = check_tolerances({**config.tolerances, **parse_tol_overrides(args.tol)})
    embedding = build_embedding(config)
    grid = grid_for(args, embedding.dim,
                    config.grid or GridSpec((16,) * embedding.dim))
    report = classify_submanifold(
        embedding, grid, tol=tols.get("null_band", NULL_BAND_TOL)
    )
    text = (
        f"embedding: {embedding.name}\n"
        f"metric:    {embedding.ambient.name}\n"
        f"grid:      {'x'.join(map(str, grid.points_per_axis))} ({grid.rule})\n"
        f"verdict:   {report.verdict}\n"
        f"min margin: {report.min_margin:.9g}\n"
        f"boundary points: {report.boundary_count}\n"
    )
    for note in report.notes:
        text += f"note: {note}\n"
    bodies = {"json": report.to_json, "text": lambda: text,
              "csv": lambda: _csv_text(report.to_csv_rows(embedding.param_names))}
    mixed = report.verdict == "Mixed" and report.boundary_count > 0
    return text, bodies, EXIT_MIXED_BOUNDARY if mixed else EXIT_OK


def _verify_cases(args, config, default_cases, points, evaluate, describe):
    """Evaluate each case, the config's embedding with each of its fields or
    else `default_cases()`, on the --grid, the config's grid or `points` per
    axis.  Returns the report's cases and verdict, one text line per case
    (`describe(result)` and [ok] or [FAIL]) and the exit code."""
    if config is None:
        cases = default_cases()
    else:
        embedding = build_embedding(config)
        cases = [(embedding, xi) for xi in build_fields(config, embedding.ambient)]
        if not cases:
            raise ConfigError(f"verify {args.check} needs at least one vector field")
    config_grid = config.grid if config else None
    results = []
    for emb, xi in cases:
        grid = grid_for(args, emb.dim, config_grid or GridSpec((points,) * emb.dim))
        results.append({"embedding": emb.name, "field": xi.name,
                        **evaluate(emb, xi, grid)})
    ok = all(r["passed"] for r in results)
    text = "".join(f"{r['embedding']} / {r['field']}: {describe(r)} "
                   f"[{'ok' if r['passed'] else 'FAIL'}]\n" for r in results)
    return {"cases": results, "passed": ok}, text, EXIT_OK if ok else EXIT_NUMERICAL


def _verify_eq3(args, config):
    if args.triples < 1:
        raise ConfigError(f"--triples must be at least 1, got {args.triples}")
    rng = np.random.default_rng(args.seed)
    triples = args.triples
    tol = 1e-4 if args.fd else 1e-6
    embeddings = []
    for name in EQ3_EMBEDDINGS:
        emb = catalog.instantiate(name)
        embeddings.append(emb.without_analytic_derivatives() if args.fd else emb)
    worst = 0.0
    for _ in range(triples):
        emb = embeddings[rng.integers(len(embeddings))]
        xi = random_polynomial_field(rng, emb.ambient.dim)
        u = emb.random_parameter_point(rng)
        lhs = variation.first_variation_density(emb, xi, u)
        rhs = variation.rhs_identity(emb, xi, u)
        worst = max(worst, float(abs(lhs - rhs)))
    report = {
        "schema": "report_v1",
        "kind": "eq3",
        "triples": triples,
        "seed": args.seed,
        "derivatives": "finite-difference" if args.fd else "analytic",
        "max_residual": worst,
        "tolerance": tol,
        "passed": worst < tol,
    }
    text = (f"volume-element identity over {triples} random triples: "
            f"max residual {worst:.9g} (tolerance {tol:.9g})\n")
    return report, text, EXIT_OK if worst < tol else EXIT_NUMERICAL


def _verify_killing(args, config):
    def default_cases():
        return [
            (catalog.instantiate("comoving_sphere_rw", scale="t"),
             catalog.instantiate("rw_conformal", scale="t")),
            (catalog.instantiate("round_sphere"),
             catalog.instantiate("time_translation")),
            (catalog.instantiate("round_sphere"),
             catalog.instantiate("dilation")),
            (catalog.instantiate("ring_torus"),
             catalog.instantiate("time_translation")),
        ]

    def evaluate(emb, xi, grid):
        res = variation.killing_integral_check(emb, xi, grid)
        return {**dataclasses.asdict(res),
                "passed": res.residual < 1e-6 and res.obstruction_ok}

    cases, text, code = _verify_cases(
        args, config, default_cases, 24, evaluate,
        lambda r: f"lhs {r['lhs']:.9g} rhs {r['rhs']:.9g} residual {r['residual']:.9g}")
    return {"schema": "report_v1", "kind": "killing", **cases}, text, code


def _verify_variation(args, config):
    if not (np.isfinite(args.tau) and args.tau > 0.0):
        raise ConfigError(f"--tau must be a finite number > 0, got {args.tau!r}")
    if config is not None and (args.pairs is not None or args.seed is not None):
        raise ConfigError("--pairs and --seed draw random pairs; they apply only "
                          "without --config")
    pairs = 20 if args.pairs is None else args.pairs
    seed = 0 if args.seed is None else args.seed
    if pairs < 1:
        raise ConfigError(f"--pairs must be at least 1, got {pairs}")

    def default_cases():
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(pairs):
            name = VARIATION_EMBEDDINGS[rng.integers(len(VARIATION_EMBEDDINGS))]
            emb = catalog.instantiate(name)
            cases.append((emb, random_polynomial_field(rng, emb.ambient.dim)))
        return cases

    def evaluate(emb, xi, grid):
        direct = variation.volume_variation(emb, xi, grid)
        flow = variation.FlowSpec(field=xi, tau_step=args.tau)
        oracle = variation.flow_volume_oracle(emb, flow, grid)
        rel = abs(direct.total - oracle) / max(abs(oracle), 1e-8)
        return {"identity_value": direct.total,
                "divergence_term": direct.divergence_term,
                "flow_oracle": oracle, "relative_difference": rel,
                "passed": rel < 1e-4}

    cases, text, code = _verify_cases(
        args, config, default_cases, 16, evaluate,
        lambda r: (f"dV/dtau {r['identity_value']:.9g} oracle {r['flow_oracle']:.9g} "
                   f"rel diff {r['relative_difference']:.9g}"))
    report = {"schema": "report_v1", "kind": "variation", "seed": seed,
              "tau": args.tau, **cases}
    return report, text, code


def cmd_verify(args, config):
    runner = {"eq3": _verify_eq3, "killing": _verify_killing,
              "variation": _verify_variation}[args.check]
    report, text, code = runner(args, config)
    return text, {"json": lambda: dump_json(report), "text": lambda: text}, code


def cmd_catalog(args):
    if args.action == "list":
        print(f"{'name':32} {'kind':12} description")
        for entry in catalog.list_entries():
            print(f"{entry.name:32} {entry.kind:12} {entry.description}")
        return EXIT_OK
    entry = catalog.get_entry(args.name)
    print(f"name:        {entry.name}")
    print(f"kind:        {entry.kind}")
    print(f"description: {entry.description}")
    if entry.params:
        print("parameters:")
        for p in entry.params:
            bounds = ""
            if p.choices is not None:
                bounds = f" (one of {', '.join(map(str, p.choices))})"
            else:
                if p.lo is not None:
                    bounds += f" > {p.lo:g}"
                if p.hi is not None:
                    bounds += f" < {p.hi:g}"
            print(f"  {p.name} = {p.default}{bounds}")
    if entry.expected:
        print("expected results:")
        for key, rec in entry.expected.items():
            oracle = f" (oracle: {rec['oracle']})" if "oracle" in rec else ""
            print(f"  {key} = {rec['value']}{oracle}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trapsurf",
        description="Extrinsic geometry and trapped-submanifold classification "
                    "for parametrized submanifolds of Lorentzian manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--grid", help="grid points per axis, e.g. 32,64")
        p.add_argument("--out-json", help="write the JSON report here")

    p_cls = sub.add_parser("classify", help="classify H over a submanifold")
    common(p_cls)
    p_cls.add_argument("--metric", help="catalog ref name:key=value,...")
    p_cls.add_argument("--embedding", help="catalog ref name:key=value,...")
    p_cls.add_argument("--tol", action="append",
                       help="tolerance override NAME=VALUE (repeatable)")
    p_cls.add_argument("--out-csv", help="write per-point CSV here")

    p_ver = sub.add_parser("verify", help="run identity verification suites")
    checks = p_ver.add_subparsers(dest="check", required=True)
    p_eq3 = checks.add_parser("eq3", help="volume-element identity at random triples")
    p_eq3.add_argument("--seed", type=int, default=0)
    p_eq3.add_argument("--triples", type=int, default=200, help="random triples")
    p_eq3.add_argument("--fd", action="store_true",
                       help="drop analytic derivatives (finite differences)")
    p_eq3.add_argument("--out-json", help="write the JSON report here")
    common(checks.add_parser("killing", help="conformal-Killing integral identity"))
    p_var = checks.add_parser("variation", help="first variation against the flow oracle")
    common(p_var)
    p_var.add_argument("--seed", type=int,
                       help="seed of the random pairs (default 0; not with --config)")
    p_var.add_argument("--pairs", type=int,
                       help="random pairs (default 20; not with --config)")
    p_var.add_argument("--tau", type=float, default=1e-4,
                       help="flow parameter for the oracle")

    p_cat = sub.add_parser("catalog", help="list or show catalog entries")
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("name", nargs="?")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    paths = [(fmt, getattr(args, f"out_{fmt}", None)) for fmt in ("json", "csv")]
    paths = [(fmt, path) for fmt, path in paths if path]
    try:
        # Non-finite geometry raises typed errors; numpy's own warnings
        # would only put text ahead of the error JSON on stderr.
        with np.errstate(all="ignore"):
            if args.command == "catalog":
                if args.action == "show" and not args.name:
                    raise ConfigError("catalog show requires an entry name")
                return cmd_catalog(args)
            config = config_from_args(args)
            outputs = [(o["format"], o["path"]) for o in config.outputs] if config else []
            for fmt, _ in outputs:
                if fmt not in COMMAND_FORMATS[args.command]:
                    raise ConfigError(f"{args.command} produces no {fmt.upper()} output")
            paths = outputs + paths
            command = cmd_classify if args.command == "classify" else cmd_verify
            text, bodies, code = command(args, config)
            print(text, end="")
            write_outputs(paths, bodies)
            return code
    except TrapsurfError as exc:
        if isinstance(exc, (ConfigError, ParamOutOfRange)):
            code = EXIT_CONFIG
        elif isinstance(exc, UnknownEntry):
            code = EXIT_UNKNOWN_ENTRY
        else:
            code = EXIT_NUMERICAL
        error = {"type": type(exc).__name__, "message": str(exc)}
        body = dump_json({"schema": "report_v1", "kind": "error", "error": error})
        sys.stderr.write(body)
        write_outputs([p for p in paths if p[0] == "json"], {"json": lambda: body})
        return code


def entry_point():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
