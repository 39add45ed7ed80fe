"""Exception hierarchy shared by all entroflow modules."""

from __future__ import annotations


class EntroflowError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EntroflowError):
    """A natural-parameter vector lies outside the family's admissible domain."""


class SingularModelError(EntroflowError):
    """A covariance or metric matrix failed its positive-definiteness check."""


class InfeasibleMeanError(EntroflowError):
    """A mean vector lies outside the open set of attainable expectations."""


class NoConvergenceError(EntroflowError):
    """An iterative solver exhausted its iteration budget."""


class AtEquilibriumError(EntroflowError):
    """The entropy gradient vanishes; the flow direction is undefined."""


class StepCollapseError(EntroflowError):
    """The integrator's quadrature, or a coupled pair's Newton solve of its
    nodes, did not converge."""


class MonotonicityError(EntroflowError):
    """A trajectory component required to be strictly monotone is not."""


class IllConditionedError(EntroflowError):
    """A regression problem is too ill-conditioned to solve reliably."""


class ParseError(EntroflowError):
    """A configuration or data document is structurally malformed."""


class ValidationError(EntroflowError):
    """A parsed document violates one or more semantic invariants.

    The ``violations`` attribute lists every violated invariant.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
