"""Extended-precision representation of probabilities in the open unit interval.

Deep polarization drives erasure probabilities to within 2^(-2^cn) of 0 or 1,
far beyond what a float64 can hold.  A value is therefore carried in one of
three modes:

* ``LINEAR``  -- the value z itself, valid for z in [2^-40, 1 - 2^-40];
* ``NEGLOG``  -- lam = -log2(z), valid for lam > 40 (z close to 0);
* ``COMPLOG`` -- mu = -log2(1 - z), valid for mu > 40 (z close to 1).

The two log modes mirror each other under z -> 1 - z, which swaps them with
the payload intact (``complement``).  Side 0 is the NEGLOG side, where the
erasure polynomials p_j act; side 1 is the COMPLOG side, where the
complement polynomials q_j act; mode = NEGLOG + side.  Each side-1
conversion is its side-0 twin taken through ``complement``.

The switch threshold of 40 bits leaves > 12 decimal digits of slack inside
float64's 53-bit mantissa, so a round trip through a mode switch perturbs the
represented value by a relative error below 2^-45 (see tests).  Payloads are
plain floats; lam is meaningful up to ~1e300.

``COMPLOG`` with an infinite payload is the saturated top element: it denotes
the supremum of the representable range (just below 1) and is produced only by
bound propagation when an upper bound exceeds the unit interval.

The scalar arithmetic here runs on plain floats.  Integer powers x**k with
k >= 3 alone go through a one-element numpy array (see ``_pow_arr``): the
array evolution engine in ``becpolar`` takes those powers with numpy's
array power loop, which can differ in the last bit from the C pow behind
Python's ``**``, and bounds must meet the engine's values exactly.  Lower
powers are exact identities or one correctly rounded product, the same in
both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, whole

LINEAR = 0
NEGLOG = 1
COMPLOG = 2

MODE_NAMES = {LINEAR: "linear", NEGLOG: "neglog", COMPLOG: "complog"}

# Mode-switch boundary, in bits.
SWITCH_BITS = 40.0

_BAND_EDGE = 2.0**-SWITCH_BITS  # LINEAR holds z and 1 - z at or above it
_LN2 = math.log(2.0)
_TINY = sys.float_info.min  # the least normal float
_FLOAT_MAX = sys.float_info.max


def _exp2(x: float) -> float:
    """2**x for scalars (math.exp2 is 3.11+)."""
    return math.pow(2.0, x)


def _pow_arr(x: float, k: int) -> float:
    """x**k as the array evolution engine computes it.

    Bound propagation must take whichever power the engine takes, so that a
    bound that is tight in exact arithmetic compares equal rather than off by
    an ulp.  The engine's ``_eval_terms`` skips a zeroth power, uses the base
    itself for a first power, and its ndarray ``**2`` is ``np.square``, one
    correctly rounded product; so k = 0, 1 and 2 are 1.0, x and x*x here,
    with no numpy call.  Higher k go through numpy's array power loop, which
    can differ in the last bit from the C pow behind Python's ``**`` (and
    ``x**2`` there from ``x*x``).
    """
    if k == 2:
        return x * x
    if k == 1:
        return x
    if k == 0:
        return 1.0
    return float(np.power(np.array([x]), k)[0])


def _neglog2(mode: int, payload: float) -> float:
    """lam = -log2(z) of the value (mode, payload), accurate in every mode."""
    if mode == NEGLOG:
        return payload
    if mode == LINEAR:
        return -math.log2(payload)
    # COMPLOG: -log2(1 - 2^-mu), computed without cancellation for large mu
    d = math.pow(2.0, -payload)
    if d >= 1.0:
        raise DomainError(f"complog payload {payload} represents a value outside (0,1)")
    return -math.log1p(-d) / _LN2


# The arithmetic below runs on (mode, payload) pairs, so that a chain of
# steps builds no ExtendedUnitValue until its result; the methods of the
# class check their arguments and wrap these.  The pair constructors test
# their float inline, not by errors.real: the band tests right after it
# sort the same float at every step of a chain.

_TOP = (COMPLOG, math.inf)  # the saturated top element


def _float_pair(z: float) -> tuple[int, float]:
    """The canonical pair of the float z in (0,1)."""
    if not 0.0 < z < 1.0:  # nan included
        raise DomainError(f"value {z!r} outside the open unit interval")
    if z < _BAND_EDGE:
        return NEGLOG, -math.log2(z)
    d = 1.0 - z
    if d < _BAND_EDGE:
        return COMPLOG, -math.log2(d)
    return LINEAR, z


def _neglog_pair(lam: float) -> tuple[int, float]:
    """The canonical pair of the value 2^-lam, lam > 0."""
    if not lam > 0.0:  # nan included
        raise DomainError(f"neglog payload {lam!r} must be positive")
    if lam > SWITCH_BITS:
        return NEGLOG, lam
    d = -math.expm1(-lam * _LN2)
    if d < _TINY:  # a subnormal d has lost bits; -log2(d) is this up to O(lam)
        return COMPLOG, -math.log2(lam) - math.log2(_LN2)
    if d < _BAND_EDGE:
        return COMPLOG, -math.log2(d)
    return LINEAR, _exp2(-lam)


def _complement(mode: int, payload: float) -> tuple[int, float]:
    """The pair of 1 - z.  NEGLOG and COMPLOG swap with the payload intact."""
    if mode == LINEAR:
        return LINEAR, 1.0 - payload
    return (COMPLOG if mode == NEGLOG else NEGLOG), payload


def _complog_pair(mu: float) -> tuple[int, float]:
    """The canonical pair of the value 1 - 2^-mu: the mirror of
    ``_neglog_pair`` (mu = inf gives the saturated top)."""
    if not mu > 0.0:  # nan included
        raise DomainError(f"complog payload {mu!r} must be positive")
    return _complement(*_neglog_pair(mu))


def _order(ma: int, a: float, mb: int, b: float) -> int:
    """-1, 0 or 1 as the value (ma, a) is below, at or above (mb, b)."""
    if ma == mb:
        if a == b:
            return 0
        if ma == NEGLOG:  # larger lam = smaller value
            return -1 if a > b else 1
        return -1 if a < b else 1
    # Cross-mode: compare -log2 z (strictly decreasing in z).  Canonical
    # modes occupy disjoint value bands, so equal lams only occur right at
    # a band boundary, where the represented values coincide.
    la = _neglog2(ma, a)
    lb = _neglog2(mb, b)
    if la == lb:
        return 0
    return -1 if la > lb else 1


def _power(mode: int, x: float, d: int) -> tuple[int, float]:
    """The pair of z**d for an int d >= 1 (see ``pow_int``)."""
    if d == 1 or (mode == COMPLOG and math.isinf(x)):  # the top
        return mode, x
    if mode == NEGLOG:
        return _neglog_pair(d * x)
    if mode == LINEAR:
        r = _pow_arr(x, d)
        if r < _TINY:
            # subnormal or zero: too few significant bits left, so take
            # the power in the log domain instead
            return _neglog_pair(d * -math.log2(x))
        if r < _BAND_EDGE:
            return NEGLOG, -math.log2(r)
        return LINEAR, r
    # COMPLOG: 1 - (1-d)^... work on the complement side.
    delta = _exp2(-x)
    if d <= 64:
        # Binomial bracket, same shape as the exact-evolution step.
        zc = 1.0 - delta
        bracket = 0.0
        for m in range(1, d + 1):
            bracket += math.comb(d, m) * _pow_arr(delta, m - 1) * _pow_arr(zc, d - m)
        return _complog_pair(x - math.log2(bracket))
    dd = -math.expm1(d * math.log1p(-delta))
    if dd >= 1.0:
        return _neglog_pair(d * _neglog2(COMPLOG, x))
    return _complog_pair(-math.log2(dd))


def _scaled(mode: int, x: float, k: int) -> tuple[int, float]:
    """The pair of min(top, z * 2^k) for an int k >= 0 (see ``times_pow2``)."""
    if k == 0 or (mode == COMPLOG and math.isinf(x)):  # the top
        return mode, x
    if mode == LINEAR:
        # z * 2^k >= 1 iff z >= 2^-k, and every positive float is at least
        # 2^-1074.  Tested before any scaling: 2.0**k overflows from
        # k = 1024 on.  Below 1 the scaling is exact.
        if x >= 2.0 ** -min(k, 1074):
            return _TOP
        return _float_pair(math.ldexp(x, k))
    if mode == NEGLOG:
        # an int compares with a float exactly, while x - k converts k,
        # which overflows from k = 2^1024 on
        if k >= x:
            return _TOP
        lam = x - k
        return _TOP if lam <= 0.0 else _neglog_pair(lam)
    return _TOP  # COMPLOG: already within 2^-40 of 1


@dataclass(frozen=True)
class ExtendedUnitValue:
    """A probability in (0,1) stored as (mode, payload); see module docstring."""

    mode: int
    payload: float

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_float(cls, z) -> "ExtendedUnitValue":
        return cls(*_float_pair(float(z)))

    @classmethod
    def of(cls, z) -> "ExtendedUnitValue":
        """z itself if it is an ExtendedUnitValue, else ``from_float(z)``."""
        return z if isinstance(z, cls) else cls.from_float(z)

    @classmethod
    def from_neglog2(cls, lam: float) -> "ExtendedUnitValue":
        return cls(*_neglog_pair(float(lam)))

    @classmethod
    def from_complog2(cls, mu: float) -> "ExtendedUnitValue":
        """The value with 1 - z = 2^-mu: the mirror of ``from_neglog2``
        (mu = inf gives the saturated top)."""
        return cls(*_complog_pair(float(mu)))

    @classmethod
    def top(cls) -> "ExtendedUnitValue":
        """Saturated upper bound: the supremum of the representable range."""
        return cls(*_TOP)

    # -- views ----------------------------------------------------------

    @property
    def value(self) -> float:
        """Nearest float64; underflows to 0.0 / rounds to 1.0 at the extremes."""
        if self.mode == LINEAR:
            return self.payload
        if self.mode == NEGLOG:
            return _exp2(-self.payload)
        return 1.0 - _exp2(-self.payload)

    @property
    def neglog2(self) -> float:
        """lam = -log2(z) as a float, accurate in every mode."""
        return _neglog2(self.mode, self.payload)

    @property
    def complog2(self) -> float:
        """mu = -log2(1-z) as a float, accurate in every mode."""
        return _neglog2(*_complement(self.mode, self.payload))

    @property
    def is_top(self) -> bool:
        return self.mode == COMPLOG and math.isinf(self.payload)

    def complement(self) -> "ExtendedUnitValue":
        """The value 1 - z.  NEGLOG and COMPLOG swap with the payload intact."""
        return ExtendedUnitValue(*_complement(self.mode, self.payload))

    # -- ordering on the represented value -------------------------------

    def _cmp(self, other: "ExtendedUnitValue") -> int:
        return _order(self.mode, self.payload, other.mode, other.payload)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- arithmetic used by bound propagation ----------------------------

    def pow_int(self, d: int) -> "ExtendedUnitValue":
        """z**d for an integer d >= 1.

        The float paths here mirror the exact-evolution kernel step bit for
        bit in the degenerate cases (pure-power branches), so that propagated
        bounds meet the exact values with equality rather than off by an ulp.
        """
        d = whole(d, "exponent", 1)
        mode, x = self.mode, self.payload
        if d == 1 or (mode == COMPLOG and math.isinf(x)):  # the top
            return self
        if d > _FLOAT_MAX:
            raise DomainError(f"exponent {d!r} beyond the float range")
        return ExtendedUnitValue(*_power(mode, x, d))

    def times_pow2(self, k: int) -> "ExtendedUnitValue":
        """min(top, z * 2^k) for an integer k >= 0; saturates above the interval."""
        k = whole(k, "scaling exponent", 0)
        mode, x = self.mode, self.payload
        if k == 0 or (mode == COMPLOG and math.isinf(x)):  # the top
            return self
        return ExtendedUnitValue(*_scaled(mode, x, k))

    # -- misc -------------------------------------------------------------

    def as_pair(self) -> tuple[str, float]:
        """(mode name, payload) pair used by the delimited exports."""
        return (MODE_NAMES[self.mode], self.payload)

    def __repr__(self):
        return f"ExtendedUnitValue({MODE_NAMES[self.mode]}, {self.payload!r})"
