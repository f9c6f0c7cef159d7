"""Interval propagation of Bhattacharyya bounds along a polarization path.

When only the root Z(W) is known (a general BMS channel rather than a BEC),
each branch step still sandwiches the synthetic channel:

    Z^{D_i(G)}  <=  Z(W^i)  <=  2^(ell-i) Z^{D_i(G)}                (Z side)
    (1-Z)^{D_i(H)}  <=  1-Z(W^i)  <=  2^(2i+1) (1-Z)^{D_i(H)}       (comp side)

The comp-side distances and constants are addressed through the branch
mapping of the kernel profile (branch j uses degree comp_branch_degrees[j]
and index comp_branch_indices[j]).  The degrees are the derived matrix's
partial distances reversed, D_(ell-1-j)(H), by the duality proved in
``gf2kernel``; the mapping orders degrees non-increasingly, which is exactly
the assumption the comp-side constant needs.  A hand-built profile whose
mapping is marked inconsistent with the derived matrix is refused.

The bounds are not rounded outward, so off eps 0.5 the comp-side lower
bound can lie just above the engine's 1 - Z, which is rounded in the
LINEAR band.

Also here: the runtime audit of the abstract polarization-process conditions
(drift to {0,1}; x^s lower bound; c*x^s upper bound) on recorded traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionUnmet, DomainError, real, whole
from .extval import (
    ExtendedUnitValue,
    _exp2,
    _neglog2,
    _order,
    _power,
    _scaled,
)
from .gf2kernel import KernelProfile
from .serialize import dumps_17g


@dataclass(frozen=True)
class IntervalState:
    """Bounds lo <= hi on the Z (or 1-Z) of the current synthetic channel.

    hi may be the TOP sentinel, meaning the upper bound has saturated at 1
    and is vacuous there.
    """

    lo: ExtendedUnitValue
    hi: ExtendedUnitValue

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo is not hi and _order(lo.mode, lo.payload, hi.mode, hi.payload) > 0:
            raise DomainError("interval bounds out of order")

    @staticmethod
    def degenerate(z) -> "IntervalState":
        """Point interval [z, z] for a known root value."""
        z = ExtendedUnitValue.of(z)
        return IntervalState(lo=z, hi=z)

    def contains(self, z: ExtendedUnitValue) -> bool:
        return self.lo <= z <= self.hi


def _sandwich(state: IntervalState, d: int, k: int) -> IntervalState:
    """[lo^d, 2^k * hi^d], saturating at the top of the unit interval
    (where the upper bound is vacuous).  A point interval takes one power."""
    lo = state.lo.pow_int(d)
    hi = lo if state.hi is state.lo else state.hi.pow_int(d)
    return IntervalState(lo, hi.times_pow2(k))


def propagate_z_interval(
    state: IntervalState, digit: int, profile: KernelProfile
) -> IntervalState:
    """One branch step of the Z-side sandwich: d = D_digit(G) and
    k = ell - digit in ``_sandwich``."""
    ell = profile.ell
    digit = whole(digit, "digit", 0, ell - 1)
    return _sandwich(state, profile.partial_distances[digit], ell - digit)


def propagate_comp_interval(
    state: IntervalState, digit: int, profile: KernelProfile
) -> IntervalState:
    """One branch step of the complement-side sandwich, on x = 1 - Z:
    d = d_j and k = 2 i_j + 1 in ``_sandwich``, with (d_j, i_j) from the
    profile's comp branch mapping.  Every profile ``kernel_profile`` builds
    has d_j = D_(ell-1-j)(H), proven in ``gf2kernel``; a hand-built profile
    with ``comp_map_consistent`` cleared raises AssumptionUnmet.
    """
    digit = whole(digit, "digit", 0, profile.ell - 1)
    if not profile.comp_map_consistent:
        raise AssumptionUnmet(
            "comp branch degrees do not match the derived matrix's partial "
            "distances; the complement-side constants are unproven here"
        )
    return _sandwich(
        state, profile.comp_branch_degrees[digit], 2 * profile.comp_branch_indices[digit] + 1
    )


@dataclass(frozen=True)
class ConditionReport:
    """Audit of the abstract process conditions along one trace."""

    steps: int
    c2_violations: int
    c3_violations: int
    max_c3_constant_observed: float
    terminal_drift: float
    c5_note: str

    def to_json(self) -> str:
        return dumps_17g(self, indent=2)


_C5_NOTE = (
    "branch digits are drawn independently of the state by construction; "
    "independence is structural, not statistically tested"
)


def check_process_conditions(trace, c: float) -> ConditionReport:
    """Count violations of x' >= x^s and x' <= c*x^s along a trace.

    ``trace`` is a list of (x, s) pairs; x may be a float or an
    ExtendedUnitValue, s >= 1 (the final pair's s is unused).  When s is
    integral the comparisons run in the extended representation (bit-exact
    against the evolution on pure-power branches), the upper one only when
    log2(c) is also a nonnegative integer; otherwise they fall back to the
    -log2 domain.  The terminal drift min(x, 1-x) stands in for the
    polarization condition; the independence conditions are structural.
    """
    if not trace:
        raise DomainError("empty trace")
    xs = [ExtendedUnitValue.of(x) for x, _ in trace]
    ss = [real(s, "exponent", 1.0, math.inf, "[)") for _, s in trace[:-1]]
    c = real(c, "constant c", 0.0, math.inf, "()")
    log2c = math.log2(c)
    k_c = int(log2c)
    # times_pow2 scales by 2^k for integers k >= 0 only
    exact_c = log2c >= 0.0 and log2c == k_c
    # The steps run on (mode, payload) pairs: the arithmetic of pow_int,
    # times_pow2 and the ordering without their argument checks, which the
    # exponents int(s) >= 1 and k_c >= 0 used here pass.
    modes = [x.mode for x in xs]
    pays = [x.payload for x in xs]
    lams = list(map(_neglog2, modes, pays))

    c2 = 0
    c3 = 0
    max_ratio_log = -math.inf
    for k in range(len(xs) - 1):
        s, m_next, x_next, lam_next = ss[k], modes[k + 1], pays[k + 1], lams[k + 1]
        if s == int(s):
            m, x = _power(modes[k], pays[k], int(s))
            ref_lam = _neglog2(m, x)
            if _order(m_next, x_next, m, x) < 0:
                c2 += 1
            if exact_c:
                m, x = _scaled(m, x, k_c)
                if _order(m_next, x_next, m, x) > 0:
                    c3 += 1
            elif lam_next < ref_lam - log2c:
                c3 += 1
            ratio_log = ref_lam - lam_next
        else:
            lam = lams[k]
            if lam_next > s * lam:
                c2 += 1
            if lam_next < s * lam - log2c:
                c3 += 1
            ratio_log = s * lam - lam_next
        if ratio_log > max_ratio_log:
            max_ratio_log = ratio_log

    drift = _exp2(-max(lams[-1], xs[-1].complog2))
    return ConditionReport(
        steps=len(xs) - 1,
        c2_violations=c2,
        c3_violations=c3,
        # 2^x overflows from x = 1024 on; with no step it is 2^-inf = 0
        max_c3_constant_observed=_exp2(max_ratio_log) if max_ratio_log < 1024.0 else math.inf,
        terminal_drift=drift,
        c5_note=_C5_NOTE,
    )
