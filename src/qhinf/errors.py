"""Exception types shared across the package, and its one gamma check."""


class QhinfError(Exception):
    """Base class for package-specific failures."""


class DimensionError(QhinfError, ValueError):
    """Array shapes are inconsistent with the requested operation."""


class ParameterError(QhinfError, ValueError):
    """A scalar parameter (gamma, a frequency) is outside its domain."""


def positive_gamma(gamma: float) -> float:
    """The attenuation target gamma, checked to be a positive number whose
    square, which the pipeline divides by, is a finite positive double."""
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    if not 0 < gamma * gamma < float("inf"):
        raise ParameterError(f"gamma^2 must be a finite positive double, "
                             f"got gamma = {gamma!r}")
    return gamma


class StructureError(QhinfError, ValueError):
    """Input violates a structural invariant (symmetry, unitarity, ...)."""


class NotHurwitzError(QhinfError, ValueError):
    """A matrix required to be Hurwitz has an eigenvalue with
    non-negative real part."""


class AssumptionError(QhinfError, ValueError):
    """A plant violates one of the standing synthesis assumptions."""


class ImaginaryAxisError(AssumptionError):
    """An eigenvalue lies on (or numerically too close to) the imaginary
    axis, so a stable/anti-stable split or a Riccati solve is ill-posed.
    For the shifted generator this is the spectral assumption (A3/A4)
    failing."""


class SynthesisError(QhinfError, RuntimeError):
    """Synthesis could not produce a controller for a structural reason
    (as opposed to an honest certified-failure result)."""


class OracleError(QhinfError, RuntimeError):
    """An independent cross-check solver failed to produce a usable
    stabilizing solution."""
