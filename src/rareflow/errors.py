"""Exception hierarchy shared by all rareflow modules."""


class RareflowError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RareflowError):
    """Argument outside the domain of a cumulant generating function."""


class NotAttained(RareflowError):
    """Saddle-point equation has no interior solution for the requested level."""


class InsufficientData(RareflowError):
    """Not enough (or degenerate) points for a regression."""


class NonFiniteInput(RareflowError):
    """A non-finite value was passed where a finite one is required."""


class MismatchedLadders(RareflowError):
    """Two decay fits were built on different scale ladders."""


class NetProfitViolated(RareflowError):
    """Premium income does not exceed expected claims per unit time."""


class NoRoot(RareflowError):
    """Root-finder could not bracket a solution."""


class MaxStepsExceeded(RareflowError):
    """A simulated path exceeded the step guard; parameters look pathological."""


class InvalidBarrier(RareflowError):
    """Lower barrier is not strictly below the upper barrier."""


class DomainEscape(RareflowError):
    """Fixed-point iterate left the domain where the log-payoff is finite."""


class MomentConditionViolated(RareflowError):
    """Sampled growth of the log-payoff breaks the quadratic-growth bound."""


class RegimeError(RareflowError):
    """Parameters fall in a different asymptotic regime than the one requested."""


class OutOfDomain(RareflowError):
    """Dual parameter outside the interval where the ansatz solution exists."""


class OutOfDualDomain(RareflowError):
    """Target level beyond the reach of the dual transform (non-steep case)."""


class AtMaturity(RareflowError):
    """Drift evaluation requested at or after maturity."""


class BoundViolated(RareflowError):
    """A sampled value broke the bound its estimator guarantees per draw."""


class ParseError(RareflowError):
    """Config document could not be parsed or failed validation."""
