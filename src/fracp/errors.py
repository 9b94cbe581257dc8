"""Exception hierarchy shared by all modules.

Every raised condition has a dedicated class so callers (and the CLI) can
report the failing check by name instead of pattern-matching messages.
"""


class FracpError(Exception):
    """Base class for all package errors."""


class OutOfRange(FracpError, ValueError):
    """A parameter fell outside its admissible range."""


class BadGrading(OutOfRange):
    """Mesh grading exponent below 1, or a mesh that is not mirror-symmetric."""


class AlphaOutOfRange(OutOfRange):
    """Barrier power alpha outside (0, s)."""


class QuadratureFail(FracpError):
    """Adaptive quadrature could not meet the requested tolerance."""


class PointTooCloseToBoundary(FracpError, ValueError):
    """Principal-value evaluation requested too close to the boundary."""


class ExtensionUnsupported(FracpError, ValueError):
    """Exterior extension descriptor has no computable integral here."""


class ShapeMismatch(FracpError, ValueError):
    """Vector length does not match the operator or grid."""


class NegativeBase(FracpError, ValueError):
    """Fractional power of a negative nodal value requested."""


class RegimeError(FracpError, ValueError):
    """Operation requested outside its admissible (s, p, gamma, delta) regime."""


class NoConvergence(FracpError, RuntimeError):
    """Iterative solver exhausted its iteration budget."""


class SpecInvalid(FracpError, ValueError):
    """Barrier specification violates its invariants."""


class MembershipViolation(FracpError, ValueError):
    """Barrier with lambda = 0 outside the local energy-space range."""


class CollarTooThin(SpecInvalid):
    """Exterior collar width rho does not exceed lambda**(1/alpha)."""


class EtaTooLarge(FracpError, ValueError):
    """Boundary strip exceeds half the domain width."""


class WindowTooThin(FracpError, ValueError):
    """Fit or probe window contains too few nodes or is out of range."""


class NonPositiveValues(FracpError, ValueError):
    """Operation needs strictly positive nodal values on its probe set."""


class ConfigParse(FracpError, ValueError):
    """Experiment configuration failed to parse or validate."""
