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

from .errors import DomainError, integral

LINEAR = 0
NEGLOG = 1
COMPLOG = 2

MODE_NAMES = {LINEAR: "linear", NEGLOG: "neglog", COMPLOG: "complog"}

# Mode-switch boundary, in bits.
SWITCH_BITS = 40.0

_LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class ExtendedUnitValue:
    """A probability in (0,1) stored as (mode, payload); see module docstring."""

    mode: int
    payload: float

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_float(cls, z) -> "ExtendedUnitValue":
        z = float(z)
        if not (0.0 < z < 1.0) or math.isnan(z):
            raise DomainError(f"value {z!r} outside the open unit interval")
        if z < 2.0**-SWITCH_BITS:
            return cls(NEGLOG, -math.log2(z))
        d = 1.0 - z
        if d < 2.0**-SWITCH_BITS:
            return cls(COMPLOG, -math.log2(d))
        return cls(LINEAR, z)

    @classmethod
    def from_neglog2(cls, lam: float) -> "ExtendedUnitValue":
        lam = float(lam)
        if not lam > 0.0:  # nan included
            raise DomainError(f"neglog payload {lam!r} must be positive")
        if lam > SWITCH_BITS:
            return cls(NEGLOG, lam)
        z = _exp2(-lam)
        d = -math.expm1(-lam * _LN2)
        if d < 2.0**-SWITCH_BITS:
            return cls(COMPLOG, -math.log2(d))
        return cls(LINEAR, z)

    @classmethod
    def from_complog2(cls, mu: float) -> "ExtendedUnitValue":
        """The value with 1 - z = 2^-mu: the mirror of ``from_neglog2``
        (mu = inf gives the saturated top)."""
        mu = float(mu)
        if not mu > 0.0:  # nan included
            raise DomainError(f"complog payload {mu!r} must be positive")
        return cls.from_neglog2(mu).complement()

    @classmethod
    def top(cls) -> "ExtendedUnitValue":
        """Saturated upper bound: the supremum of the representable range."""
        return cls(COMPLOG, math.inf)

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
        return self.complement().neglog2

    @property
    def is_top(self) -> bool:
        return self.mode == COMPLOG and math.isinf(self.payload)

    def complement(self) -> "ExtendedUnitValue":
        """The value 1 - z.  NEGLOG and COMPLOG swap with the payload intact."""
        if self.mode == LINEAR:
            return ExtendedUnitValue(LINEAR, 1.0 - self.payload)
        if self.mode == NEGLOG:
            return ExtendedUnitValue(COMPLOG, self.payload)
        return ExtendedUnitValue(NEGLOG, self.payload)

    # -- ordering on the represented value -------------------------------

    def _cmp(self, other: "ExtendedUnitValue") -> int:
        if self.mode == other.mode:
            a, b = self.payload, other.payload
            if a == b:
                return 0
            if self.mode == NEGLOG:  # larger lam = smaller value
                return -1 if a > b else 1
            return -1 if a < b else 1
        # Cross-mode: compare -log2 z (strictly decreasing in z).  Canonical
        # modes occupy disjoint value bands, so equal lams only occur right at
        # a band boundary, where the represented values coincide.
        la = _neglog2(self.mode, self.payload)
        lb = _neglog2(other.mode, other.payload)
        if la == lb:
            return 0
        return -1 if la > lb else 1

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
        if not (integral(d) and d >= 1):
            raise DomainError(f"exponent {d!r} must be a positive integer")
        d = int(d)
        if d == 1 or (self.mode == COMPLOG and math.isinf(self.payload)):  # is_top
            return self
        if self.mode == NEGLOG:
            return ExtendedUnitValue.from_neglog2(float(d) * self.payload)
        if self.mode == LINEAR:
            r = _pow_arr(self.payload, d)
            if r < sys.float_info.min:
                # subnormal or zero: too few significant bits left, so take
                # the power in the log domain instead
                return ExtendedUnitValue.from_neglog2(d * -math.log2(self.payload))
            if r < 2.0**-SWITCH_BITS:
                return ExtendedUnitValue(NEGLOG, -math.log2(r))
            return ExtendedUnitValue(LINEAR, r)
        # COMPLOG: 1 - (1-d)^... work on the complement side.
        mu = self.payload
        if d <= 64:
            # Binomial bracket, same shape as the exact-evolution step.
            delta = _exp2(-mu)
            zc = 1.0 - delta
            bracket = 0.0
            for m in range(1, d + 1):
                bracket += math.comb(d, m) * _pow_arr(delta, m - 1) * _pow_arr(zc, d - m)
            return ExtendedUnitValue.from_complog2(mu - math.log2(bracket))
        delta = _exp2(-mu)
        dd = -math.expm1(d * math.log1p(-delta))
        if dd >= 1.0:
            return ExtendedUnitValue.from_neglog2(d * _neglog2(COMPLOG, mu))
        return ExtendedUnitValue.from_complog2(-math.log2(dd))

    def times_pow2(self, k: int) -> "ExtendedUnitValue":
        """min(top, z * 2^k) for an integer k >= 0; saturates above the interval."""
        if not (integral(k) and k >= 0):
            raise DomainError(f"scaling exponent {k!r} must be a nonnegative integer")
        if k == 0 or (self.mode == COMPLOG and math.isinf(self.payload)):  # is_top
            return self
        if self.mode == LINEAR:
            r = self.payload * 2.0**k  # exact: power-of-two scaling
            if r >= 1.0:
                return ExtendedUnitValue.top()
            return ExtendedUnitValue.from_float(r)
        if self.mode == NEGLOG:
            lam = self.payload - k
            if lam <= 0.0:
                return ExtendedUnitValue.top()
            return ExtendedUnitValue.from_neglog2(lam)
        return ExtendedUnitValue.top()  # COMPLOG: already within 2^-40 of 1

    # -- misc -------------------------------------------------------------

    def as_pair(self) -> tuple[str, float]:
        """(mode name, payload) pair used by the delimited exports."""
        return (MODE_NAMES[self.mode], self.payload)

    def __repr__(self):
        return f"ExtendedUnitValue({MODE_NAMES[self.mode]}, {self.payload!r})"
