"""Exception types raised by the library."""


class KPFlowsError(Exception):
    """Base class for all library errors."""


class InvalidEdge(KPFlowsError, ValueError):
    """A vertex count that is not a positive integer, or an edge with
    endpoints out of range, i > j, a bad sign, or a multiplicity that is not
    a nonnegative integer.  A ``ValueError`` too, since graph JSON is
    validated by the same code."""


class KindViolation(KPFlowsError):
    """Edge not allowed by the graph kind (loops or positive edges in type A,
    negative loops anywhere)."""


class MissingEdge(KPFlowsError):
    """Attempt to delete an edge copy that is not present."""


class DimensionMismatch(KPFlowsError):
    """Vector length does not match the graph it is paired with."""


class LimitExceeded(KPFlowsError):
    """A complete enumeration was requested but the limit is smaller than
    the number of results."""


class HypothesisUnmet(KPFlowsError):
    """The structural hypothesis needed by an operation fails or cannot be checked."""


class NegativeExtension(KPFlowsError):
    """Extending a partial flow would force a negative edge flow."""


class IndexOutOfRange(KPFlowsError):
    """Extension index outside the fiber of a partial flow."""


class InvalidFlow(KPFlowsError):
    """A vector claimed to be a flow fails conservation."""


class InfeasibleParams(KPFlowsError):
    """Instance-generator parameters admit no valid output."""
