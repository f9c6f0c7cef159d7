"""Exception types shared across the package, and the one rule for the
integer arguments raising them: ``whole`` for a scalar, ``integral_array``
for an array."""

import math

import numpy as np


def whole(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """x as an int; raises DomainError unless x is a finite whole number
    in lo..hi (a bound of None is open).

    A value counts as the int it equals, so integral floats, numpy scalars
    and bools pass.  Integrality is checked before the int cast, which
    would truncate 1.7 to 1, and a non-int must be finite before ``x % 1``
    is taken, since numpy warns on the remainder of an infinity or a nan.
    A Python int of any size takes no float conversion.
    """
    if type(x) is int:
        n = x
    elif isinstance(x, int) or (math.isfinite(x) and x % 1 == 0):
        n = int(x)
    else:
        raise DomainError(f"{what} {x!r} is not an integer")
    if (lo is None or n >= lo) and (hi is None or n <= hi):
        return n
    if hi is None:
        raise DomainError(f"{what} {x!r} is not an integer >= {lo}")
    raise DomainError(f"{what} {x!r} is not an integer in {lo}..{hi}")


def integral_array(values, what: str) -> np.ndarray:
    """``values`` as a numpy array, checked as ``whole`` checks a scalar:
    raises DomainError unless every entry is a finite whole number of a
    numeric dtype."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):  # inf % 1 is nan, also != 0
        if arr.size and (arr.dtype.kind not in "iuf" or (arr % 1 != 0).any()):
            raise DomainError(f"{what} must be integers")
    return arr


class PolarkitError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(PolarkitError):
    """A GF(2) matrix that was required to be invertible is singular."""


class NotPolarizing(PolarkitError):
    """Kernel fails the polarization criterion (triangular under a column permutation)."""


class DimensionTooLarge(PolarkitError):
    """Kernel dimension exceeds the supported bound for the requested operation."""


class DomainError(PolarkitError):
    """Scalar argument outside the mathematical domain of the operation."""


class BudgetExceeded(PolarkitError):
    """Requested enumeration exceeds the configured node budget."""


class AssumptionUnmet(PolarkitError):
    """A structural assumption required by a bound does not hold for this kernel."""


class RequiresExactCdf(PolarkitError):
    """Operation needs an exactly enumerated level, not a Monte Carlo estimate."""


class MismatchedLevel(PolarkitError):
    """Two objects built for different (n, ell) levels were combined."""


class IndexOutOfRange(PolarkitError):
    """Channel index outside 1..ell^n."""


class DegenerateVariance(PolarkitError):
    """Second exponent is zero where a nonzero variance is required."""


class FrozenBitNonzero(PolarkitError):
    """Encoder input carries a nonzero value on a frozen position."""
