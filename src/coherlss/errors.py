"""Exception types shared across the package, and the two argument checks
that raise them: check_int and check_real decide, for every module, what
counts as an integer and as a finite real number."""

import math
import numbers


class CoherlssError(Exception):
    """Base class for all package-specific failures."""


class InvalidArgumentError(CoherlssError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(InvalidArgumentError):
    """A run configuration is malformed or inconsistent."""


class DomainError(CoherlssError, ValueError):
    """A function was evaluated outside its domain.

    Carries the offending value in ``value`` when known.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class DegenerateSpectrumError(CoherlssError, RuntimeError):
    """A spectral matrix has a nonpositive diagonal entry."""


class DegenerateEstimateError(CoherlssError, RuntimeError):
    """A data-driven estimate collapsed (e.g. every lag-window density <= 0)."""


class NumericalFailureError(CoherlssError, RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class SingularPointError(NumericalFailureError):
    """A transform was evaluated at (numerically) a pole."""


def check_int(value, name: str, error=InvalidArgumentError, low: int | None = 1,
              high: int | None = None, even: bool = False) -> int:
    """value as a Python int: an integer (numbers.Integral, numpy integers
    included, bool never) in [low, high], no bound where low or high is None,
    and even when asked. Anything else raises error, naming the argument."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral):
        number = int(value)
        if ((low is None or number >= low) and (high is None or number <= high)
                and not (even and number % 2)):
            return number
    kind = "even integer" if even else "integer"
    if low is None:
        words = f"an {kind}" if high is None else f"an {kind} <= {high}"
    elif high is not None:
        words = f"an {kind} in [{low}, {high}]"
    elif low == 1:
        words = f"a positive {kind}"
    elif low == 0:
        words = f"a nonnegative {kind}"
    else:
        words = f"an {kind} >= {low}"
    raise error(f"{name} must be {words}, got {value!r}")


def check_real(value, name: str, error=InvalidArgumentError,
               interval: tuple[float, float] | None = None) -> float:
    """value as a finite Python float: a real number (numbers.Real, numpy
    scalars included, bool never), inside the open interval when one is
    given. Anything else raises error, naming the argument. The value is
    converted before it is compared, so no numpy float width warns."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and (interval is None or interval[0] < number < interval[1]):
            return number
    words = ("a finite real number" if interval is None
             else f"a real number in ({interval[0]:g}, {interval[1]:g})")
    raise error(f"{name} must be {words}, got {value!r}")
