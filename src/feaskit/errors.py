"""Exception types shared across the package."""


class FeaskitError(Exception):
    """Base class for all feaskit errors."""


class DimensionMismatch(FeaskitError):
    """Operands live in different dimensions."""


class NonFinitePoint(FeaskitError):
    """A coordinate is NaN or infinite."""


class DistinctColinearInput(FeaskitError):
    """Three distinct colinear points admit no circumcenter."""


class EmptyDomain(FeaskitError):
    """A graph's domain interval is empty (or has a NaN end)."""


class DerivativeZero(FeaskitError):
    """Newton step rejected: the derivative vanishes at the point."""


class DerivativeUndefined(FeaskitError):
    """Newton step rejected: no derivative value at the point."""


class ZeroSubgradient(FeaskitError):
    """Subgradient projection rejected: zero subgradient vector."""


class UnknownProblem(FeaskitError):
    """Requested name is not in the problem catalog."""


class UnknownMethod(FeaskitError):
    """Requested solver id is not usable here."""


class TooShort(FeaskitError):
    """Trace has too few iterates for the requested diagnostic."""
