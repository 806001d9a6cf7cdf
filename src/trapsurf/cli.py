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


def write_outputs(report_dict, csv_rows, json_paths, csv_paths, text_paths,
                  text_body):
    for path in json_paths:
        with open(path, "w") as handle:
            handle.write(dump_json(report_dict))
    for path in csv_paths:
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(csv_rows)
    for path in text_paths:
        with open(path, "w") as handle:
            handle.write(text_body)


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
    if args.config:
        cfg = load_config(args.config)
    else:
        if not getattr(args, "embedding", None):
            raise ConfigError("provide --config or --embedding")
        data = {
            "schema_version": 1,
            "embedding": parse_catalog_ref(args.embedding),
        }
        if getattr(args, "metric", None):
            data["metric"] = parse_catalog_ref(args.metric)
        if getattr(args, "field", None):
            data["fields"] = [parse_catalog_ref(f) for f in args.field]
        cfg = RunConfig.from_dict(data)
    return cfg


def grid_for(args, dim, default):
    """The --grid option, else `default`, for an embedding of dimension `dim`."""
    grid = grid_spec(args.grid.split(","), default.rule) if args.grid else default
    if len(grid.points_per_axis) != dim:
        raise ConfigError(f"grid has {len(grid.points_per_axis)} axes but the "
                          f"embedding has {dim} parameters")
    return grid


def _collect_output_paths(outputs, args):
    json_paths = [o["path"] for o in outputs if o["format"] == "json"]
    csv_paths = [o["path"] for o in outputs if o["format"] == "csv"]
    text_paths = [o["path"] for o in outputs if o["format"] == "text"]
    if args.out_json:
        json_paths.append(args.out_json)
    if getattr(args, "out_csv", None):
        csv_paths.append(args.out_csv)
    return json_paths, csv_paths, text_paths


def cmd_classify(args):
    config = config_from_args(args)
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
    print(text, end="")
    write_outputs(
        report.to_dict(),
        report.to_csv_rows(embedding.param_names),
        *_collect_output_paths(config.outputs, args),
        text_body=text,
    )
    if report.verdict == "Mixed" and report.boundary_count > 0:
        return EXIT_MIXED_BOUNDARY
    return EXIT_OK


def _config_cases(config, check):
    """(embedding, field) pairs of a verify config: its embedding with each field."""
    embedding = build_embedding(config)
    fields = build_fields(config, embedding.ambient)
    if not fields:
        raise ConfigError(f"verify {check} needs at least one vector field")
    return [(embedding, xi) for xi in fields]


def _verify_eq3(args, config):
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
    config_grid = config.grid if config else None
    if config is not None:
        cases = _config_cases(config, "killing")
    else:
        cases = [
            (catalog.instantiate("comoving_sphere_rw", scale="t"),
             catalog.instantiate("rw_conformal", scale="t")),
            (catalog.instantiate("round_sphere"),
             catalog.instantiate("time_translation")),
            (catalog.instantiate("round_sphere"),
             catalog.instantiate("dilation")),
            (catalog.instantiate("ring_torus"),
             catalog.instantiate("time_translation")),
        ]
    results = []
    ok = True
    for emb, xi in cases:
        grid = grid_for(args, emb.dim, config_grid or GridSpec((24,) * emb.dim))
        res = variation.killing_integral_check(emb, xi, grid)
        passed = res.residual < 1e-6 and res.obstruction_ok
        ok = ok and passed
        results.append({
            "embedding": emb.name,
            "field": xi.name,
            "lhs": res.lhs,
            "rhs": res.rhs,
            "residual": res.residual,
            "flux": res.flux,
            "psi_sign": res.psi_sign,
            "obstruction_ok": res.obstruction_ok,
            "notes": list(res.notes),
            "passed": passed,
        })
    report = {
        "schema": "report_v1",
        "kind": "killing",
        "cases": results,
        "passed": ok,
    }
    lines = [
        f"{r['embedding']} / {r['field']}: lhs {r['lhs']:.9g} rhs {r['rhs']:.9g} "
        f"residual {r['residual']:.9g} [{'ok' if r['passed'] else 'FAIL'}]"
        for r in results
    ]
    return report, "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_NUMERICAL


def _verify_variation(args, config):
    if not (np.isfinite(args.tau) and args.tau > 0.0):
        raise ConfigError(f"--tau must be a finite number > 0, got {args.tau!r}")
    rng = np.random.default_rng(args.seed)
    config_grid = config.grid if config else None
    if config is not None:
        pairs = _config_cases(config, "variation")
    else:
        pairs = []
        for _ in range(args.pairs):
            name = VARIATION_EMBEDDINGS[rng.integers(len(VARIATION_EMBEDDINGS))]
            emb = catalog.instantiate(name)
            pairs.append((emb, random_polynomial_field(rng, emb.ambient.dim)))
    results = []
    ok = True
    for emb, xi in pairs:
        grid = grid_for(args, emb.dim, config_grid or GridSpec((16,) * emb.dim))
        direct = variation.volume_variation(emb, xi, grid)
        flow = variation.FlowSpec(field=xi, tau_step=args.tau)
        oracle = variation.flow_volume_oracle(emb, flow, grid)
        rel = abs(direct.total - oracle) / max(abs(oracle), 1e-8)
        passed = rel < 1e-4
        ok = ok and passed
        results.append({
            "embedding": emb.name,
            "field": xi.name,
            "identity_value": direct.total,
            "divergence_term": direct.divergence_term,
            "flow_oracle": oracle,
            "relative_difference": rel,
            "passed": passed,
        })
    report = {
        "schema": "report_v1",
        "kind": "variation",
        "seed": args.seed,
        "tau": args.tau,
        "cases": results,
        "passed": ok,
    }
    lines = [
        f"{r['embedding']} / {r['field']}: dV/dtau {r['identity_value']:.9g} "
        f"oracle {r['flow_oracle']:.9g} rel diff {r['relative_difference']:.9g} "
        f"[{'ok' if r['passed'] else 'FAIL'}]"
        for r in results
    ]
    return report, "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_NUMERICAL


def cmd_verify(args):
    config = load_config(args.config) if getattr(args, "config", None) else None
    outputs = config.outputs if config else ()
    if any(o["format"] == "csv" for o in outputs):
        raise ConfigError("verify produces no CSV output")
    runner = {"eq3": _verify_eq3, "killing": _verify_killing,
              "variation": _verify_variation}[args.check]
    report, text, code = runner(args, config)
    print(text, end="")
    write_outputs(report, None, *_collect_output_paths(outputs, args), text_body=text)
    return code


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
    p_var.add_argument("--seed", type=int, default=0)
    p_var.add_argument("--pairs", type=int, default=20, help="random pairs")
    p_var.add_argument("--tau", type=float, default=1e-4,
                       help="flow parameter for the oracle")

    p_cat = sub.add_parser("catalog", help="list or show catalog entries")
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("name", nargs="?")
    return parser


def _error_report(exc):
    return {
        "schema": "report_v1",
        "kind": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "catalog":
            if args.action == "show" and not args.name:
                raise ConfigError("catalog show requires an entry name")
            return cmd_catalog(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except TrapsurfError as exc:
        if isinstance(exc, (ConfigError, ParamOutOfRange)):
            code = EXIT_CONFIG
        elif isinstance(exc, UnknownEntry):
            code = EXIT_UNKNOWN_ENTRY
        else:
            code = EXIT_NUMERICAL
        body = dump_json(_error_report(exc))
        sys.stderr.write(body)
        out_json = getattr(args, "out_json", None)
        if out_json:
            with open(out_json, "w") as handle:
                handle.write(body)
        return code


def entry_point():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
