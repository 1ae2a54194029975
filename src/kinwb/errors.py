"""Exception types shared across the package."""


class KinwbError(Exception):
    """Base class for all numerical/validation failures raised by kinwb."""


class SingularBasis(KinwbError):
    """Eigenfunction family is numerically dependent at the given nodes."""


class NegativeWeight(KinwbError):
    """Solved quadrature weights are not all positive (bad node choice)."""


class InfeasibleNodes(KinwbError):
    """Node set admits no nonzero weights satisfying the moment constraints."""


class BracketFailure(KinwbError):
    """Dispersion-relation root bracket has no sign change."""


class IllConditioned(KinwbError):
    """A mode matrix is singular, or its 1-norm condition number (read off
    its inverse) exceeds the safety threshold; the message names it."""


class NonPositiveRate(KinwbError):
    """Tumbling rate 1 + eps*phi(v dS/dx) is not positive at some node."""


class SolveFailure(KinwbError):
    """Cell-local implicit system could not be solved."""


class ConfigError(KinwbError):
    """Experiment configuration is invalid; message lists the offending fields."""


class TangentRootWarning(UserWarning):
    """A near-zero of an exponential polynomial without a sign change."""
