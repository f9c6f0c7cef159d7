import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (
    as_pairs,
    kron_power,
    random_polarizing,
    ref_check_process_conditions,
    ref_interval,
    ref_propagate,
)
from polarkit.becpolar import (
    SATURATED,
    enumerate_level,
    evolve_exact,
    split_erasure_polynomials,
)
from polarkit.boundprop import (
    ConditionReport,
    IntervalState,
    check_process_conditions,
    propagate_comp_interval,
    propagate_z_interval,
)
from polarkit.errors import AssumptionUnmet, DomainError
from polarkit.extval import COMPLOG, LINEAR, NEGLOG, ExtendedUnitValue
from polarkit.gf2kernel import BitMatrix, kernel_profile
from polarkit.rng import path_digit_matrix


def digits_of(i, ell, n):
    x = i - 1
    out = []
    for p in range(n):
        out.append(x // ell ** (n - 1 - p) % ell)
    return out


class TestZInterval:
    def test_degenerate_contains_root(self):
        s = IntervalState.degenerate(0.3)
        assert s.lo == s.hi
        assert s.contains(ExtendedUnitValue.from_float(0.3))

    def test_out_of_order_rejected(self):
        a = ExtendedUnitValue.from_float(0.2)
        b = ExtendedUnitValue.from_float(0.4)
        with pytest.raises(DomainError):
            IntervalState(lo=b, hi=a)

    def test_bad_digit(self, arikan):
        s = IntervalState.degenerate(0.5)
        with pytest.raises(DomainError):
            propagate_z_interval(s, 2, arikan)
        with pytest.raises(DomainError):
            propagate_comp_interval(s, -1, arikan)

    @pytest.mark.parametrize("step", [propagate_z_interval, propagate_comp_interval])
    def test_integral_float_digit(self, arikan, step):
        # a whole float is the digit it names; a fraction is out of range
        s = IntervalState(ExtendedUnitValue.from_float(0.2), ExtendedUnitValue.from_float(0.4))
        assert step(s, 1.0, arikan) == step(s, 1, arikan)
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                step(s, bad, arikan)

    def test_pure_power_branch_is_tight_below(self, arikan):
        # all-squaring path: lo bound equals the exact evolution bit for bit
        polys = split_erasure_polynomials(arikan.kernel)
        s = IntervalState.degenerate(0.5)
        for k in range(1, 30):
            s = propagate_z_interval(s, 1, arikan)
            exact = evolve_exact(0.5, [1] * k, polys)
            assert s.lo == exact
            assert s.contains(exact)

    def test_exhaustive_inclusion_arikan(self, arikan, cdf_cache):
        # every depth-8 path: exact Z and 1-Z inside the propagated intervals
        n = 8
        cdf = cdf_cache("10;11", 0.5, n)
        for i in range(1, 2**n + 1):
            sz = IntervalState.degenerate(0.5)
            sc = IntervalState.degenerate(0.5)
            for b in digits_of(i, 2, n):
                sz = propagate_z_interval(sz, b, arikan)
                sc = propagate_comp_interval(sc, b, arikan)
            z = cdf.value_at(i)
            assert sz.contains(z)
            assert sc.contains(z.complement())

    @pytest.mark.xfail(strict=True, reason=(
        "the engine keeps Z in the LINEAR band and rounds 1 - Z there; the "
        "bounds are not rounded outward (see boundprop)"))
    def test_comp_lower_bound_holds_off_eps_half(self, arikan):
        # path 0...0 squares 1 - Z at every step, so (1 - Z)^2 is tight below
        n, eps = 8, 0.4
        sc = IntervalState.degenerate(1 - eps)
        for b in digits_of(1, 2, n):
            sc = propagate_comp_interval(sc, b, arikan)
        assert sc.contains(enumerate_level(arikan.kernel, eps, n).value_at(1).complement())

    def test_random_paths_inclusion_l3(self, l3prof):
        n = 8
        polys = split_erasure_polynomials(l3prof.kernel)
        paths = path_digit_matrix(13, 200, n, 3)
        for row in paths:
            sz = IntervalState.degenerate(0.4)
            sc = IntervalState.degenerate(1 - 0.4)  # comp side tracks 1-Z
            for b in row:
                sz = propagate_z_interval(sz, int(b), l3prof)
                sc = propagate_comp_interval(sc, int(b), l3prof)
            z = evolve_exact(0.4, row.tolist(), polys)
            assert sz.contains(z)
            assert sc.contains(z.complement())

    def test_wide_start_still_brackets(self, arikan):
        polys = split_erasure_polynomials(arikan.kernel)
        lo = ExtendedUnitValue.from_float(0.29)
        hi = ExtendedUnitValue.from_float(0.31)
        paths = path_digit_matrix(3, 40, 10, 2)
        for row in paths:
            s = IntervalState(lo=lo, hi=hi)
            for b in row:
                s = propagate_z_interval(s, int(b), arikan)
            z = evolve_exact(0.3, row.tolist(), polys)
            assert s.contains(z)

    def test_upper_bound_saturates(self, arikan):
        # repeated branch-0 steps push the upper bound to the top sentinel
        s = IntervalState.degenerate(0.5)
        for _ in range(8):
            s = propagate_z_interval(s, 0, arikan)
        assert s.hi.is_top
        assert as_pairs(s)["hi"] == ("complog", math.inf)

    def test_comp_requires_consistent_mapping(self, arikan):
        broken = dataclasses.replace(arikan, comp_map_consistent=False)
        s = IntervalState.degenerate(0.5)
        with pytest.raises(AssumptionUnmet):
            propagate_comp_interval(s, 0, broken)
        # the z side does not need the mapping
        propagate_z_interval(s, 0, broken)


class TestProcessConditions:
    def arikan_trace(self, digits, eps=0.5):
        g = BitMatrix.from_literal("10;11")
        polys = split_erasure_polynomials(g)
        dist = (1, 2)
        trace = []
        for k in range(len(digits) + 1):
            z = evolve_exact(eps, digits[:k], polys)
            s = dist[digits[k]] if k < len(digits) else 1
            trace.append((z, s))
        return trace

    def test_genuine_traces_have_no_violations(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            digits = rng.integers(0, 2, 16).tolist()
            rep = check_process_conditions(self.arikan_trace(digits), c=4.0)
            assert rep.steps == 16
            assert rep.c2_violations == 0
            assert rep.c3_violations == 0
            assert rep.max_c3_constant_observed <= 4.0

    def test_polarized_terminal_drift(self):
        rep = check_process_conditions(self.arikan_trace([1] * 20), c=4.0)
        assert rep.terminal_drift <= 2.0**-1000
        rep0 = check_process_conditions([(0.25, 1.0), (0.25, 1.0)], c=4.0)
        assert math.isclose(rep0.terminal_drift, 0.25, rel_tol=1e-12)

    def test_detects_lower_violation(self):
        rep = check_process_conditions([(0.5, 1), (0.2, 1)], c=4.0)
        assert rep.c2_violations == 1 and rep.c3_violations == 0

    def test_detects_upper_violation(self):
        rep = check_process_conditions([(0.01, 2), (0.9, 1)], c=4.0)
        assert rep.c3_violations == 1 and rep.c2_violations == 0
        assert rep.max_c3_constant_observed > 4.0

    def test_observed_constant(self):
        rep = check_process_conditions([(0.5, 1), (0.75, 1)], c=4.0)
        assert math.isclose(rep.max_c3_constant_observed, 1.5, rel_tol=1e-9)

    def test_observed_constant_past_the_float_range(self):
        # a log2 ratio of 2000 bits reads as an infinite constant; the
        # counts still come from the comparisons
        tiny = ExtendedUnitValue(NEGLOG, 2000.0)
        rep = check_process_conditions([(tiny, 1), (0.5, 1)], c=4.0)
        assert rep.max_c3_constant_observed == math.inf
        assert (rep.c2_violations, rep.c3_violations) == (0, 1)
        assert json.loads(rep.to_json())["max_c3_constant_observed"] == "inf"
        # 1023.5 bits still fit
        rep = check_process_conditions([(ExtendedUnitValue(NEGLOG, 1024.5), 1), (0.5, 1)], c=4.0)
        assert rep.max_c3_constant_observed == 2.0**1023.5

    def test_fractional_exponent_path(self):
        # s = 1.5 falls back to the -log2 domain; 0.5^1.5 ~ 0.3536
        ok = check_process_conditions([(0.5, 1.5), (0.36, 1)], c=4.0)
        assert ok.c2_violations == 0 and ok.c3_violations == 0
        bad = check_process_conditions([(0.5, 1.5), (0.36, 1)], c=1.01)
        assert bad.c3_violations == 1

    @pytest.mark.parametrize("c", [0.5, 0.25])
    def test_fractional_constant(self, c):
        # log2(c) is an integer below 0, so the c-bound is compared in the
        # -log2 domain; x' = c * x^s exactly is not a violation
        at = check_process_conditions([(0.5, 2), (0.25 * c, 1)], c=c)
        assert (at.c2_violations, at.c3_violations) == (1, 0)
        assert at.max_c3_constant_observed == c
        above = check_process_conditions([(0.5, 2), (0.3 * c, 1)], c=c)
        assert (above.c2_violations, above.c3_violations) == (1, 1)
        on = check_process_conditions([(0.5, 2), (0.25, 1)], c=c)
        assert (on.c2_violations, on.c3_violations) == (0, 1)

    def test_boundary_equality_is_not_a_violation(self):
        # x' = x^s exactly, and x' = c * x^s exactly
        rep = check_process_conditions([(0.5, 2), (0.25, 1)], c=4.0)
        assert rep.c2_violations == 0 and rep.c3_violations == 0
        rep2 = check_process_conditions([(0.125, 2), (0.0625, 1)], c=4.0)
        assert rep2.c2_violations == 0 and rep2.c3_violations == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            check_process_conditions([], c=4.0)
        with pytest.raises(DomainError):
            check_process_conditions([(0.5, 0.5), (0.25, 1)], c=4.0)
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                check_process_conditions([(0.5, 1), (0.25, 1)], c=c)
        for s in (math.nan, math.inf):
            with pytest.raises(DomainError):
                check_process_conditions([(0.5, s), (0.25, 1)], c=4.0)
        with pytest.raises(DomainError):
            check_process_conditions([(1.5, 1), (0.25, 1)], c=4.0)

    def test_report_json(self):
        rep = check_process_conditions([(0.5, 1), (0.5, 1)], c=4.0)
        doc = json.loads(rep.to_json())
        assert doc["steps"] == 1
        assert doc["c2_violations"] == 0
        assert "independen" in doc["c5_note"]


def outcome(f, *args):
    """Mode and payload bits of every value in a result, or the error raised."""
    try:
        got = f(*args)
    except (DomainError, AssumptionUnmet, OverflowError) as e:
        return type(e), str(e)
    if isinstance(got, IntervalState):
        got = (got.lo, got.hi)
    if isinstance(got, ConditionReport):
        got = {k: v for k, v in dataclasses.asdict(got).items() if k != "c5_note"}
    if isinstance(got, dict):
        return {k: v.hex() if isinstance(v, float) else v for k, v in got.items()}
    return tuple((v.mode, float(v.payload).hex()) for v in got)


def reference_kernels():
    rs = np.random.default_rng(21)
    profiles = [random_polarizing(rs, ell) for ell in (2, 3, 4, 5, 6) for _ in range(2)]
    lits = ("10;11", "100;110;101")
    return profiles + [kernel_profile(BitMatrix.from_literal(x)) for x in lits] + [
        kernel_profile(kron_power(3))
    ]


def start_intervals():
    """(lo, hi) start pairs: points in every band, hand-built values outside
    their mode's band, wide intervals and a saturated upper bound."""
    f = ExtendedUnitValue.from_float
    points = [f(z) for z in (0.5, 0.3, 0.9, 1e-3, 1 - 1e-6, 2.0**-39)] + [
        ExtendedUnitValue(NEGLOG, 50.0),
        ExtendedUnitValue(COMPLOG, 45.0),
        ExtendedUnitValue(LINEAR, 2.0**-40),
        ExtendedUnitValue(NEGLOG, 40.0),
        ExtendedUnitValue(NEGLOG, 12.0),
        ExtendedUnitValue(COMPLOG, 40.0),
        ExtendedUnitValue(COMPLOG, 3.0),
        ExtendedUnitValue(LINEAR, 1 - 2.0**-45),
    ]
    return [(p, p) for p in points] + [
        (f(0.29), f(0.31)),
        (f(1e-12), f(0.5)),
        (ExtendedUnitValue(NEGLOG, 200.0), f(1e-20)),
        (f(0.2), ExtendedUnitValue.top()),
        (ExtendedUnitValue(NEGLOG, 40.0), ExtendedUnitValue(LINEAR, 2.0**-40)),
    ]


class TestReferencePath:
    """Bound propagation and the process audit against the reference scalar
    path of tests/conftest.py: equal modes, payload bits, report fields and
    raised errors along random depth-40 paths."""

    def test_propagation_matches_reference(self):
        rs = np.random.default_rng(5)
        seen = set()
        for prof in reference_kernels():
            for lo, hi in start_intervals():
                for comp in (False, True):
                    step = propagate_comp_interval if comp else propagate_z_interval
                    digits = rs.integers(0, prof.ell, 40).tolist()
                    if rs.random() < 0.3:  # a run of the weakest branch drives hi to the top
                        digits[:8] = [0] * 8
                    state = (lo, hi)
                    for b in digits:
                        want = outcome(ref_propagate, *state, b, prof, comp)
                        got = outcome(step, IntervalState(*state), b, prof)
                        assert got == want, (prof.kernel, lo, hi, comp, digits)
                        if isinstance(got[0], type):
                            break
                        new = [ExtendedUnitValue(m, float.fromhex(p)) for m, p in got]
                        for old, v in zip(state, new):
                            if old.mode == LINEAR and v.mode == NEGLOG:
                                seen.add("switch")
                            if old.mode != LINEAR and old.payload < SATURATED <= v.payload:
                                seen.add("saturated")
                            if v.is_top and not old.is_top:
                                seen.add("top")
                        state = new
        assert seen == {"switch", "saturated", "top"}

    def test_propagation_errors_match_reference(self, arikan):
        broken = dataclasses.replace(arikan, comp_map_consistent=False)
        half = ExtendedUnitValue.from_float(0.5)
        for prof, b in ((arikan, 2), (arikan, -1), (arikan, 0.5), (arikan, 1.0), (broken, 0)):
            for comp, step in ((False, propagate_z_interval), (True, propagate_comp_interval)):
                got = outcome(step, IntervalState(half, half), b, prof)
                assert got == outcome(ref_propagate, half, half, b, prof, comp)
        lo, hi = ExtendedUnitValue(NEGLOG, 12.0), ExtendedUnitValue(LINEAR, 2.0**-40)
        assert outcome(IntervalState, lo, hi) == outcome(ref_interval, lo, hi)

    def test_process_conditions_match_reference(self):
        rs = np.random.default_rng(9)
        odd = [
            ExtendedUnitValue(LINEAR, 2.0**-40),
            ExtendedUnitValue(NEGLOG, 40.0),
            ExtendedUnitValue(COMPLOG, 40.0),
            ExtendedUnitValue.top(),
        ]
        for prof in reference_kernels():
            polys = split_erasure_polynomials(prof.kernel)
            for eps in (0.5, 0.1, 0.97):
                digits = rs.integers(0, prof.ell, 40).tolist()
                xs = [ExtendedUnitValue.from_float(eps)]
                for b in digits:
                    xs.append(evolve_exact(xs[-1], [b], polys))
                ss = [prof.partial_distances[b] for b in digits] + [1]
                traces = [
                    list(zip(xs, ss)),
                    list(zip(xs, [s + 0.5 for s in ss])),
                    list(zip(xs[::-1], ss)),  # every step a violation
                    list(zip([odd[i % 4] if i % 7 == 3 else x for i, x in enumerate(xs)], ss)),
                    [(x, 1) for x in xs[:3]],
                ]
                # equal lams: across a band edge, and for adjacent LINEAR floats
                edge = ExtendedUnitValue(NEGLOG, 40.0), ExtendedUnitValue(LINEAR, 2.0**-40)
                z = ExtendedUnitValue(LINEAR, 1e-9)
                below = ExtendedUnitValue(LINEAR, math.nextafter(1e-9, 0.0))
                traces += [
                    [(edge[0], 1), (edge[1], 1), (edge[0], 1)],
                    [(z, 1), (below, 1), (z, 1)],
                ]
                for trace in traces:
                    for c in (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 16.0, 2.0**50):
                        got = outcome(check_process_conditions, trace, c)
                        assert got == outcome(ref_check_process_conditions, trace, c), (
                            prof.kernel, eps, c
                        )

    def test_process_condition_errors_match_reference(self):
        good = [(0.5, 1), (0.25, 1)]
        cases = [([], 4.0), ([(0.5, 0.5), (0.25, 1)], 4.0), ([(1.5, 1), (0.25, 1)], 4.0)]
        cases += [(good, c) for c in (0.0, -1.0, math.nan, math.inf)]
        cases += [([(0.5, s), (0.25, 1)], 4.0) for s in (math.nan, math.inf)]
        for trace, c in cases:
            got = outcome(check_process_conditions, trace, c)
            assert isinstance(got[0], type)
            assert got == outcome(ref_check_process_conditions, trace, c)
