"""trapsurf: extrinsic geometry of parametrized submanifolds of Lorentzian
manifolds — shape tensor, mean curvature vector, expansions, the trapped
classification, and first-variation / conformal-Killing identity checks.
"""

from . import catalog, errors
from .embedding import Embedding, GridSpec, InducedPointData, embedding_from_expressions
from .extrinsic import (
    ClassificationReport,
    ExtrinsicData,
    classify_submanifold,
    expansion,
    extrinsic_data,
    null_normal_pair,
    second_fundamental_form,
)
from .geometry import (
    Causal,
    MetricField,
    TimeOrientation,
    VectorField,
    metric_from_expressions,
    vector_field_from_expressions,
)
from .variation import (
    ConformalData,
    FlowSpec,
    KillingIntegralResult,
    conformal_check,
    first_variation_density,
    flow_volume_oracle,
    killing_integral_check,
    null_killing_constraint_check,
    rhs_identity,
    volume_variation,
)

__version__ = "0.1.0"

__all__ = [
    "Causal",
    "ClassificationReport",
    "ConformalData",
    "Embedding",
    "ExtrinsicData",
    "FlowSpec",
    "GridSpec",
    "InducedPointData",
    "KillingIntegralResult",
    "MetricField",
    "TimeOrientation",
    "VectorField",
    "catalog",
    "classify_submanifold",
    "conformal_check",
    "embedding_from_expressions",
    "errors",
    "expansion",
    "extrinsic_data",
    "first_variation_density",
    "flow_volume_oracle",
    "killing_integral_check",
    "metric_from_expressions",
    "null_killing_constraint_check",
    "null_normal_pair",
    "rhs_identity",
    "second_fundamental_form",
    "vector_field_from_expressions",
    "volume_variation",
]
