"""Exception types shared across the package, and the one rule for each
kind of argument raising them: ``whole`` for a scalar integer,
``integral_array`` for an integer array and ``real`` for a scalar real."""

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
    numeric dtype, bools counting as 0 and 1."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):  # inf % 1 is nan, also != 0
        if arr.size and (arr.dtype.kind not in "biuf" or (arr % 1 != 0).any()):
            raise DomainError(f"{what} must be integers")
    return arr


def real(x, what: str, lo: float = -math.inf, hi: float = math.inf,
         ends: str = "[]") -> float:
    """x as a float; raises DomainError unless x is a number in the interval
    from lo to hi, each end closed by ``[``/``]`` and open by ``(``/``)``.

    Python and numpy ints and floats count as the float they equal, and
    bools as 0.0 and 1.0, as in ``whole``.  nan fails every comparison.
    """
    if type(x) is float:
        v = x
    elif isinstance(x, (int, float, np.integer, np.floating, np.bool_)):
        v = float(x)
    else:
        v = math.nan
    if (lo < v or v == lo and ends[0] == "[") and (v < hi or v == hi and ends[1] == "]"):
        return v
    a, b = (repr(float(e)).removesuffix(".0") for e in (lo, hi))
    raise DomainError(f"{what} {x!r} is not a number in {ends[0]}{a}, {b}{ends[1]}")


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
