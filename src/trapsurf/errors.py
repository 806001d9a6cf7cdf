"""Exception hierarchy shared by all trapsurf modules."""


class TrapsurfError(Exception):
    """Base class for all library errors."""


class PointOutsideChart(TrapsurfError):
    """A coordinate point violates the chart domain of a metric."""


class DegenerateMetric(TrapsurfError):
    """g is not finite, or |det g| fell below the degeneracy tolerance."""


class DerivativeFailure(TrapsurfError):
    """A finite-difference stencil could not be evaluated, or a derivative
    made the extrinsic geometry non-finite."""


class DegenerateInducedMetric(TrapsurfError):
    """The induced metric gamma is degenerate (no tangent/normal split)."""


class RankDeficientImmersion(TrapsurfError):
    """The parametrization jacobian does not have full rank."""


class NotNormal(TrapsurfError):
    """A vector passed as a normal has a tangential component."""


class NotSpacelike(TrapsurfError):
    """The induced metric is not positive definite where required."""


class NotLorentzian(TrapsurfError):
    """The ambient metric is not Lorentzian at a node, or its declared
    future vector is not timelike there."""


class NotClosed(TrapsurfError):
    """An operation requiring a closed submanifold got an open one."""


class NotConformal(TrapsurfError):
    """A vector field failed the conformal-Killing residual test."""


class FlowLeftChart(TrapsurfError):
    """Integrating a flow carried a point outside the chart domain."""


class UnknownEntry(TrapsurfError):
    """Catalog lookup with an unknown name."""


class ParamOutOfRange(TrapsurfError):
    """A catalog parameter is missing, unknown, or outside its valid range."""


class ConfigError(TrapsurfError):
    """A run configuration failed schema validation."""


class InvalidExpression(ConfigError):
    """An expression string uses symbols or functions outside the grammar."""
