"""Per-layer metrics of a traced run, and the end-to-end metric each one
should move (written down before any optimisation is measured).

Every metric is computed from the tracer's exact call counts and its
inclusive/self times, over the whole traced worker process (set-up and
cases).  "node" means a grid node the cases evaluate (one per pointwise
triple); "case" means a benchmark case.  A metric whose layer a workload
does not reach reads 0.
"""

from tracer import BUILDERS, layer_of

# (name, unit, better, the end-to-end metric it should move, and where)
LAYER_METRICS = (
    ("catalog.instantiate.calls", "count", "lower",
     "setup_s on every workload; cases_per_s on catalog_build and variation_oracle"),
    ("catalog.instantiate.distinct_frac", "ratio", "lower",
     "input property: the share of catalog builds a memo cannot save"),
    ("catalog.instantiate.ms_per_call", "ms/call", "lower",
     "setup_s on every workload; cases_per_s on catalog_build and variation_oracle"),
    ("expressions.build.ms_per_object", "ms/object", "lower",
     "cases_per_s on catalog_build; setup_s elsewhere"),
    ("cli.main.self_ms", "ms/call", "lower", "case_p50_ms on classify_horizon"),
    ("config.build_embedding.ms", "ms/call", "lower", "case_p50_ms on classify_horizon"),
    ("cli.write_outputs.ms_per_case", "ms/case", "lower",
     "case_p50_ms on classify_horizon"),
    ("quadrature.grid_nodes.us_per_node", "us/node", "lower",
     "cases_per_s on classify_horizon (large grid)"),
    ("quadrature.integrate.calls", "count", "lower",
     "cases_per_s on classify_horizon (large grid)"),
    ("geometry.metric_at.calls_per_node", "calls/node", "lower",
     "cases_per_s and case_p50_ms on classify_horizon; case_p50_ms on pointwise_identity"),
    ("geometry.metric_at.us_per_call", "us/call", "lower",
     "cases_per_s and case_p50_ms on classify_horizon; case_p50_ms on pointwise_identity"),
    ("geometry.christoffel_at.calls_per_node", "calls/node", "lower",
     "cases_per_s and case_p50_ms on classify_horizon; case_p50_ms on pointwise_identity"),
    ("geometry.reference_norm_matrix.calls_per_node", "calls/node", "lower",
     "cases_per_s and case_p50_ms on classify_horizon; case_p50_ms on pointwise_identity"),
    ("geometry.lie_derivative.calls_per_case", "calls/case", "lower",
     "case_p50_ms on pointwise_identity"),
    ("geometry.self_us_per_node", "us/node", "lower",
     "cases_per_s and case_p50_ms on classify_horizon; case_p50_ms on pointwise_identity"),
    ("embedding.induced.calls_per_node", "calls/node", "lower",
     "cases_per_s on classify_horizon and variation_oracle"),
    ("embedding.decompose.calls_per_node", "calls/node", "lower",
     "cases_per_s on classify_horizon and variation_oracle"),
    ("embedding.self_us_per_node", "us/node", "lower",
     "cases_per_s on classify_horizon and variation_oracle"),
    ("extrinsic.extrinsic_data.calls_per_node", "calls/node", "lower",
     "cases_per_s on classify_horizon"),
    ("extrinsic.classify_point.self_us_per_node", "us/node", "lower",
     "cases_per_s on classify_horizon"),
    ("extrinsic.self_us_per_node", "us/node", "lower", "cases_per_s on classify_horizon"),
    ("findiff.partial.calls_per_node", "calls/node", "lower",
     "cases_per_s on variation_oracle; case_p50_ms on the FD half of pointwise_identity"),
    ("findiff.second_partial.calls_per_node", "calls/node", "lower",
     "cases_per_s on variation_oracle; case_p50_ms on the FD half of pointwise_identity"),
    ("findiff.self_share", "ratio", "lower",
     "cases_per_s on variation_oracle; case_p50_ms on the FD half of pointwise_identity"),
    ("variation.surface_divergence.us_per_node", "us/node", "lower",
     "cases_per_s on variation_oracle; case_p50_ms on pointwise_identity"),
    ("variation.flow_point.calls_per_node", "calls/node", "lower",
     "cases_per_s on variation_oracle"),
    ("variation.flow_point.us_per_call", "us/call", "lower",
     "cases_per_s on variation_oracle"),
    ("variation.identity.us_per_triple", "us/triple", "lower",
     "case_p50_ms on pointwise_identity"),
    ("trace.overhead_frac", "ratio", "lower",
     "not a gate: traced minus untraced case time, over untraced"),
    ("trace.unattributed_frac", "ratio", "lower",
     "not a gate: share of case time outside every traced call"),
)

# Call counts the worker also splits by case kind, for sanity checks such
# as "metric_at is called 10 times per node on an EF sphere".
KEY_COUNTERS = (
    "geometry.MetricField.at",
    "geometry.MetricField.christoffel_at",
    "geometry.MetricField.reference_norm_matrix",
    "embedding.Embedding.induced",
    "embedding.Embedding.decompose",
    "extrinsic.extrinsic_data",
    "findiff.partial",
    "findiff.second_partial",
    "variation.flow_point",
)


def _per(num, den):
    return num / den if den else 0.0


def compute(traced, untraced):
    """Per-layer metric values from a traced worker result and the
    untraced run of the same cases."""
    stats = traced["trace"]["stats"]
    records = traced["records"]
    nodes = sum(r["nodes"] for r in records)
    cases = len(records)
    wall = sum(r["wall_s"] for r in records)
    covered = sum(r["covered_s"] for r in records)
    wall_untraced = sum(r["wall_s"] for r in untraced["records"])

    def calls(key):
        return stats.get(key, (0, 0.0, 0.0))[0]

    def incl(key):
        return stats.get(key, (0, 0.0, 0.0))[1]

    def self_of(key):
        return stats.get(key, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if layer_of(k) == layer)

    builds = sum(calls(k) for k in BUILDERS)
    values = {
        "catalog.instantiate.calls": calls("catalog.instantiate"),
        "catalog.instantiate.distinct_frac":
            _per(traced["trace"]["instantiate_distinct"], calls("catalog.instantiate")),
        "catalog.instantiate.ms_per_call":
            _per(1e3 * incl("catalog.instantiate"), calls("catalog.instantiate")),
        "expressions.build.ms_per_object":
            _per(1e3 * sum(incl(k) for k in BUILDERS), builds),
        "cli.main.self_ms": _per(1e3 * (layer_self("cli") - self_of("cli.write_outputs")
                                         - self_of("cli.dump_json")), calls("cli.main")),
        "config.build_embedding.ms":
            _per(1e3 * incl("config.build_embedding"), calls("config.build_embedding")),
        "cli.write_outputs.ms_per_case": _per(1e3 * incl("cli.write_outputs"), cases),
        "quadrature.grid_nodes.us_per_node":
            _per(1e6 * incl("quadrature.grid_nodes"), traced["trace"]["grid_nodes_returned"]),
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "geometry.metric_at.calls_per_node": _per(calls("geometry.MetricField.at"), nodes),
        "geometry.metric_at.us_per_call":
            _per(1e6 * incl("geometry.MetricField.at"), calls("geometry.MetricField.at")),
        "geometry.christoffel_at.calls_per_node":
            _per(calls("geometry.MetricField.christoffel_at"), nodes),
        "geometry.reference_norm_matrix.calls_per_node":
            _per(calls("geometry.MetricField.reference_norm_matrix"), nodes),
        "geometry.lie_derivative.calls_per_case":
            _per(calls("geometry.MetricField.lie_derivative"), cases),
        "geometry.self_us_per_node": _per(1e6 * layer_self("geometry"), nodes),
        "embedding.induced.calls_per_node": _per(calls("embedding.Embedding.induced"), nodes),
        "embedding.decompose.calls_per_node":
            _per(calls("embedding.Embedding.decompose"), nodes),
        "embedding.self_us_per_node": _per(1e6 * layer_self("embedding"), nodes),
        "extrinsic.extrinsic_data.calls_per_node":
            _per(calls("extrinsic.extrinsic_data"), nodes),
        "extrinsic.classify_point.self_us_per_node":
            _per(1e6 * self_of("extrinsic.classify_point"), nodes),
        "extrinsic.self_us_per_node": _per(1e6 * layer_self("extrinsic"), nodes),
        "findiff.partial.calls_per_node": _per(calls("findiff.partial"), nodes),
        "findiff.second_partial.calls_per_node": _per(calls("findiff.second_partial"), nodes),
        "findiff.self_share": _per(layer_self("findiff"), wall),
        "variation.surface_divergence.us_per_node":
            _per(1e6 * incl("variation.surface_divergence"),
                 calls("variation.surface_divergence")),
        "variation.flow_point.calls_per_node": _per(calls("variation.flow_point"), nodes),
        "variation.flow_point.us_per_call":
            _per(1e6 * incl("variation.flow_point"), calls("variation.flow_point")),
        "variation.identity.us_per_triple":
            _per(1e6 * (incl("variation.first_variation_density")
                        + incl("variation.rhs_identity")),
                 calls("variation.rhs_identity")),
        "trace.overhead_frac": _per(wall - wall_untraced, wall_untraced),
        "trace.unattributed_frac": _per(wall - covered, wall),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in LAYER_METRICS}
