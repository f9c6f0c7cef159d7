"""Gaussian-limit predictions for polarization statistics.

The per-digit increments of log_ell(-log2 Z) behave like an i.i.d. sum with
mean E and variance V taken from the kernel profile, so threshold events of
the form Z <= 2^(-ell^nu) obey a central limit theorem.  This module carries
the Q function (from the standard library's erfc), its inverse, the
double-exponential thresholds, predicted CDF values, orthant probabilities
of a correlated Gaussian pair, and the limiting polar/RM overlap fraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, DomainError, whole
from .extval import ExtendedUnitValue

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)


@functools.cache
def _gauss_legendre():
    """(node, weight) float pairs of the 20-point Gauss-Legendre rule.

    Panels are narrow enough that this is exact to machine precision for the
    smooth pieces of the orthant integrand.  Built on first use, which keeps
    ``numpy.polynomial`` and its eigensolve out of ``import polarkit``; as
    Python floats, the panel loop runs on plain float arithmetic.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def q_function(t: float) -> float:
    """Gaussian upper tail Q(t) = P(N(0,1) >= t), from ``math.erfc``.

    Relative error <= 1e-14 over 0 <= t <= 8 (about 1e-13 out to t = 37,
    checked against mpmath).  Q(-t) = 1 - Q(t) holds by construction
    (negative arguments are reflected).
    """
    if math.isnan(t):
        raise DomainError("q_function requires a real argument")
    if t < 0.0:
        return 1.0 - q_function(-t)
    if math.isinf(t):
        return 0.0
    return 0.5 * math.erfc(t * _SQRT1_2)


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1): |Q(q_inverse(p)) - p| <= 1e-12."""
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError("q_inverse requires p in the open interval (0,1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -q_inverse(1.0 - p)
    lo, hi = 0.0, 1.0
    while q_function(hi) > p:
        lo = hi
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(3):
        # Newton on Q(t) - p; Q' = -phi
        d = _phi(t)
        if d == 0.0:
            break
        t += (q_function(t) - p) / d
    return t


def loglog_exponent(z, ell: int) -> float:
    """log_ell(-log2 z): the nu for which z = 2^(-ell^nu).

    z is a float in (0,1) or an ExtendedUnitValue; -inf at the saturated
    top, the one value whose -log2 z is 0.  Exact for extreme z because it
    reads the neglog payload directly instead of round-tripping through a
    float value.
    """
    ell = whole(ell, "ell", 2)
    lam = ExtendedUnitValue.of(z).neglog2
    if lam <= 0.0:
        return -math.inf
    return math.log(lam) / math.log(ell)


@dataclass(frozen=True)
class DoubleExponent:
    """Threshold z* = 2^(-ell^nu), compared in the log-log domain."""

    nu: float
    ell: int

    def admits(self, z) -> bool:
        """True iff z <= 2^(-ell^nu): log_ell(-log2 z) >= nu."""
        return loglog_exponent(z, self.ell) >= self.nu

    def neglog2(self) -> float:
        """-log2 of the threshold, ell^nu; inf once past float range."""
        try:
            return math.pow(float(self.ell), self.nu)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class GaussianPrediction:
    """Limit prediction for one threshold: I*Q(t) good side, (1-I)*Q(t) bad."""

    n: int
    t: float
    predicted_probability: float
    side: str


def _side_moments(profile, side: str):
    if side == "good":
        return profile.exponent, profile.second_exponent
    if side == "bad":
        return profile.h_exponent, profile.h_second_exponent
    raise DomainError("side must be 'good' (Z -> 0) or 'bad' (Z -> 1)")


def polar_threshold(n: int, t: float, profile, side: str = "good",
                    f_of_n: float = 0.0) -> DoubleExponent:
    """Threshold exponent nu = n*E + t*sqrt(n*V) + f(n) for the given side.

    Good side uses (E, V) of the kernel, bad side the derived-H pair.  f(n)
    is any o(sqrt(n)) correction; 0 is the canonical choice.
    """
    n = whole(n, "n", 1)
    e, v = _side_moments(profile, side)
    if v == 0.0:
        if t != 0.0:
            raise DegenerateVariance(
                "second exponent is zero on the %s side; t must be 0" % side)
        return DoubleExponent(nu=n * e + f_of_n, ell=profile.ell)
    return DoubleExponent(nu=n * e + t * math.sqrt(n * v) + f_of_n,
                          ell=profile.ell)


def predicted_cdf(n: int, nu: float, channel_I: float, profile,
                  side: str = "good") -> GaussianPrediction:
    """Predicted mass of {Z <= 2^(-ell^nu)} (good) or {1-Z <= ...} (bad).

    Inverts the threshold construction: t = (nu - n*E)/sqrt(n*V), and the
    limiting fraction is I*Q(t) on the good side, (1-I)*Q(t) on the bad.
    """
    n = whole(n, "n", 1)
    if not 0.0 <= channel_I <= 1.0:
        raise DomainError("channel_I must lie in [0,1]")
    e, v = _side_moments(profile, side)
    if v == 0.0:
        raise DegenerateVariance(
            "second exponent is zero on the %s side" % side)
    t = (nu - n * e) / math.sqrt(n * v)
    mass = channel_I if side == "good" else 1.0 - channel_I
    return GaussianPrediction(n=n, t=t,
                              predicted_probability=mass * q_function(t),
                              side=side)


def _panel(lo, hi, b, rho, s):
    # integral over [lo, hi] of phi(x) * Q((b - rho*x)/s) dx
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for u, w in _gauss_legendre():
        x = mid + half * u
        acc += w * _phi(x) * q_function((b - rho * x) / s)
    return half * acc


def bivariate_orthant(t: float, v: float, rho: float) -> float:
    """P(A >= t, B >= v) for standard bivariate normal with correlation rho.

    Computed by one-dimensional integration of the conditional tail against
    the Gaussian density; absolute error <= 1e-8.  rho = +-1 are taken as
    their degenerate limits.  Arguments are sorted first, so the value is
    exactly symmetric under swapping t and v.
    """
    if math.isnan(t) or math.isnan(v):
        raise DomainError("orthant thresholds must be real")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1,1]")
    a, b = (t, v) if t <= v else (v, t)
    if rho == 1.0:
        return q_function(b)
    if rho == -1.0:
        return max(0.0, q_function(a) - q_function(-b))
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    lo, hi = max(a, -9.5), 9.5
    if lo >= hi:
        return 0.0
    edges = list(np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.5)) + 1))
    if rho != 0.0 and s < 0.45:
        # near-singular rho: the inner tail switches over an x-window of
        # width s/|rho|; refine panels there so Gauss-Legendre stays exact
        w = s / abs(rho)
        x0 = b / rho
        zlo, zhi = max(lo, x0 - 12.0 * w), min(hi, x0 + 12.0 * w)
        if zlo < zhi:
            edges.extend(np.linspace(zlo, zhi, 65))
    edges = sorted({float(e) for e in edges})
    val = math.fsum(_panel(e0, e1, b, rho, s)
                    for e0, e1 in zip(edges, edges[1:]))
    return min(max(val, 0.0), 1.0)


def overlap_limit(channel_I: float, r: float, r_prime: float) -> float:
    """Limiting common fraction of polar (rate r) and RM (rate r') picks.

    Equals I * min(r/I, r'), computed as min(r, I*r') so the saturated case
    returns r exactly.
    """
    if not 0.0 < r < channel_I <= 1.0:
        raise DomainError("need 0 < r < channel_I <= 1")
    if not 0.0 < r_prime < 1.0:
        raise DomainError("need 0 < r_prime < 1")
    return min(r, channel_I * r_prime)
