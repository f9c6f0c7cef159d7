import dataclasses
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr, owens_t

import polarkit
from conftest import ref_bivariate_orthant
from polarkit.asymptotics import (
    DoubleExponent,
    GaussianPrediction,
    bivariate_orthant,
    loglog_exponent,
    overlap_limit,
    polar_threshold,
    predicted_cdf,
    q_function,
    q_inverse,
)
from polarkit.errors import DegenerateVariance, DomainError
from polarkit.extval import ExtendedUnitValue



def mp_q(t: float) -> float:
    return float(mp.erfc(mp.mpf(t) / mp.sqrt(2)) / 2)


def owens_bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) by Owen's T decomposition (h, k nonzero)."""
    s = math.sqrt(1 - rho * rho)
    ah = (k - rho * h) / (h * s)
    ak = (h - rho * k) / (k * s)
    delta = 0.0 if h * k > 0 else 0.5
    return 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, ah) - owens_t(k, ak) - delta


def orthant_oracle(t: float, v: float, rho: float) -> float:
    return owens_bvn_cdf(-t, -v, rho)


def mp_orthant(t: float, v: float, rho: float) -> float:
    """Integral of phi(x) * Q((v-rho x)/s) over x >= t, split at the
    conditional-tail switchover x = v/rho."""
    s = mp.sqrt(1 - mp.mpf(rho) ** 2)

    def f(x):
        return mp.npdf(x) * mp.erfc((mp.mpf(v) - rho * x) / s / mp.sqrt(2)) / 2

    pts = [mp.mpf(t), 10]
    if rho:
        x0 = mp.mpf(v) / rho
        if t < x0 < 10:
            pts = [mp.mpf(t), x0, 10]
    return float(mp.quad(f, pts))


class TestQFunction:
    def test_against_mp_grid(self):
        for t in np.arange(-8.0, 8.01, 0.125):
            got = q_function(float(t))
            want = mp_q(float(t))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)

    def test_deep_tail_relative(self):
        for t in (10.0, 20.0, 37.0):
            assert math.isclose(q_function(t), mp_q(t), rel_tol=1e-13)

    def test_reflection_and_anchors(self):
        assert q_function(0.0) == 0.5
        for t in (0.3, 1.7, 4.2):
            assert q_function(-t) == 1.0 - q_function(t)
        assert q_function(math.inf) == 0.0
        assert q_function(-math.inf) == 1.0

    def test_monotone_decreasing(self):
        ts = np.arange(-6, 6.01, 0.25)
        qs = [q_function(float(t)) for t in ts]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            q_function(math.nan)


class TestQInverse:
    def test_roundtrip(self):
        for p in np.geomspace(1e-12, 0.5, 30):
            assert abs(q_function(q_inverse(float(p))) - p) <= 1e-12
        for t in np.arange(-3.0, 3.01, 0.25):
            assert abs(q_inverse(q_function(float(t))) - t) <= 1e-9

    def test_symmetry_and_center(self):
        assert q_inverse(0.5) == 0.0
        assert math.isclose(q_inverse(0.975), -q_inverse(0.025), rel_tol=1e-12)
        assert math.isclose(q_inverse(0.025), 1.9599639845400545, rel_tol=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                q_inverse(bad)


class TestLogLog:
    def test_float_values(self):
        assert math.isclose(loglog_exponent(2.0**-8, 2), 3.0, rel_tol=1e-14)
        assert math.isclose(loglog_exponent(2.0**-9, 3), 2.0, rel_tol=1e-14)

    def test_extended_values_read_payload(self):
        z = ExtendedUnitValue(1, 2.0**100)  # NEGLOG
        assert loglog_exponent(z, 2) == 100.0

    def test_near_one_is_minus_inf_like(self):
        z = ExtendedUnitValue.from_complog2(60.0)
        assert loglog_exponent(z, 2) < -50
        # the saturated top is the one value whose -log2 z is 0
        assert loglog_exponent(ExtendedUnitValue.top(), 2) == -math.inf

    def test_domain(self):
        # the float 1.0 is no value of (0,1)
        for z, ell in ((0.5, 1), (0.5, 2.5), (1.0, 2), (0.0, 2), (math.nan, 2)):
            with pytest.raises(DomainError):
                loglog_exponent(z, ell)
        assert loglog_exponent(2.0**-8, 2.0) == loglog_exponent(2.0**-8, 2)


class TestDoubleExponent:
    def test_admits_matches_direct_comparison(self):
        th = DoubleExponent(nu=3.0, ell=2)  # z* = 2^-8
        assert th.admits(2.0**-9)
        assert th.admits(2.0**-8)
        assert not th.admits(2.0**-7)
        assert th.neglog2() == 8.0

    def test_nested_thresholds(self):
        lo, hi = DoubleExponent(2.0, 2), DoubleExponent(4.0, 2)
        for z in (2.0**-3, 2.0**-5, 2.0**-17, 2.0**-100):
            if hi.admits(z):
                assert lo.admits(z)

    def test_overflow_saturates(self):
        assert DoubleExponent(nu=5000.0, ell=2).neglog2() == math.inf


class TestThresholdAndPrediction:
    def test_polar_threshold_formula(self, arikan):
        th = polar_threshold(20, 0.0, arikan)
        assert th.nu == 10.0 and th.ell == 2
        assert th.neglog2() == 1024.0
        th2 = polar_threshold(16, 1.0, arikan)
        assert math.isclose(th2.nu, 8.0 + math.sqrt(4.0), rel_tol=1e-14)
        th3 = polar_threshold(16, 0.0, arikan, f_of_n=1.5)
        assert math.isclose(th3.nu, 9.5, rel_tol=1e-14)

    def test_bad_side_uses_h_moments(self, l3prof):
        th_good = polar_threshold(9, 0.5, l3prof, side="good")
        th_bad = polar_threshold(9, 0.5, l3prof, side="bad")
        assert math.isclose(
            th_good.nu,
            9 * l3prof.exponent + 0.5 * math.sqrt(9 * l3prof.second_exponent),
            rel_tol=1e-14,
        )
        assert math.isclose(
            th_bad.nu,
            9 * l3prof.h_exponent + 0.5 * math.sqrt(9 * l3prof.h_second_exponent),
            rel_tol=1e-14,
        )

    def test_predicted_cdf_inverts_threshold(self, arikan):
        pred = predicted_cdf(16, 9.0, 0.5, arikan)
        assert isinstance(pred, GaussianPrediction)
        # t = (9 - 8)/sqrt(16*0.25) = 0.5
        assert math.isclose(pred.t, 0.5, rel_tol=1e-14)
        assert math.isclose(
            pred.predicted_probability, 0.5 * q_function(0.5), rel_tol=1e-14
        )
        bad = predicted_cdf(16, 9.0, 0.3, arikan, side="bad")
        assert math.isclose(
            bad.predicted_probability, 0.7 * q_function(0.5), rel_tol=1e-14
        )

    def test_degenerate_variance(self, arikan):
        flat = dataclasses.replace(arikan, second_exponent=0.0)
        th = polar_threshold(10, 0.0, flat)
        assert th.nu == 5.0
        with pytest.raises(DegenerateVariance):
            polar_threshold(10, 1.0, flat)
        with pytest.raises(DegenerateVariance):
            predicted_cdf(10, 5.0, 0.5, flat)

    def test_domain(self, arikan):
        with pytest.raises(DomainError):
            polar_threshold(0, 0.0, arikan)
        with pytest.raises(DomainError):
            polar_threshold(10, 0.0, arikan, side="ugly")
        with pytest.raises(DomainError):
            predicted_cdf(10, 5.0, 1.5, arikan)
        for bad in (1.5, 2.5, math.nan, math.inf, 0.0):
            with pytest.raises(DomainError):
                polar_threshold(bad, 0.0, arikan)
            with pytest.raises(DomainError):
                predicted_cdf(bad, 5.0, 0.5, arikan)
        # an integral float is the int it equals
        assert polar_threshold(3.0, 1.0, arikan) == polar_threshold(3, 1.0, arikan)
        pred = predicted_cdf(np.float64(3.0), 2.0, 0.5, arikan)
        assert type(pred.n) is int and pred == predicted_cdf(3, 2.0, 0.5, arikan)


class TestOrthant:
    def test_against_owens_t_grid(self):
        for rho in (-0.9, -0.5, -0.2, 0.2, 0.5, 0.7, 0.9, 0.95):
            for t in (-2.0, -0.5, 0.3, 1.5, 2.5):
                for v in (-1.7, -0.4, 0.4, 2.2):
                    got = bivariate_orthant(t, v, rho)
                    want = orthant_oracle(t, v, rho)
                    assert abs(got - want) <= 1e-10

    def test_both_thresholds_past_the_cut(self):
        # the integral runs over [max(t, v), 9.5]; past 9.5 it is empty
        got = bivariate_orthant(10.0, 12.0, 0.5)
        assert got == 0.0 and abs(got - orthant_oracle(10.0, 12.0, 0.5)) <= 1e-8

    def test_near_singular_rho_breakpoints(self):
        # points placed around the conditional-tail switchover x0 = v/rho
        for rho, v in ((0.95, 0.5), (-0.95, 0.5), (0.99, -1.0), (0.999, 0.8)):
            s = math.sqrt(1 - rho * rho)
            w = s / abs(rho)
            x0 = v / rho
            for kk in (-12, -4, 0, 4, 12):
                t = x0 + kk * w
                got = bivariate_orthant(t, v, rho)
                want = mp_orthant(t, v, rho)
                assert abs(got - want) <= 1e-9

    def test_independence_factorizes(self):
        for t in (-1.0, 0.0, 0.7, 2.0):
            for v in (-0.3, 1.2):
                got = bivariate_orthant(t, v, 0.0)
                assert abs(got - q_function(t) * q_function(v)) <= 1e-10

    def test_degenerate_correlations(self):
        for t, v in ((-1.0, 0.5), (0.3, 0.3), (1.2, -2.0)):
            assert bivariate_orthant(t, v, 1.0) == q_function(max(t, v))
            want = max(0.0, 1.0 - q_function(-t) - q_function(-v))
            assert math.isclose(
                bivariate_orthant(t, v, -1.0), want, rel_tol=1e-12, abs_tol=1e-15
            )

    def test_rho_to_one_limit(self):
        # off the diagonal the limit value Q(max) is reached exponentially fast;
        # at t == v the gap from the rho=1 closed form is a genuine O(sqrt(1-rho))
        # boundary layer, so check that point against the integral oracle instead
        got = bivariate_orthant(-0.5, 0.8, 1.0 - 1e-9)
        assert abs(got - q_function(0.8)) <= 1e-9
        got = bivariate_orthant(1.0, 1.0, 1.0 - 1e-9)
        assert abs(got - mp_orthant(1.0, 1.0, 1.0 - 1e-9)) <= 1e-9

    def test_swap_symmetry_exact(self):
        for rho in (-0.7, 0.0, 0.4, 0.97):
            for t, v in ((-1.5, 0.3), (0.2, 2.0), (1.0, -1.0)):
                assert bivariate_orthant(t, v, rho) == bivariate_orthant(v, t, rho)

    def test_matches_reference_bit_for_bit(self):
        # the panel loop on plain floats against numpy float64 nodes
        grid = (-2.0, -1.0, 0.0, 0.8, 2.0)
        rhos = (0.0, 1.0, 1.0 - 1e-12, -0.99, -0.5, 0.3, 0.7, 0.95)
        points = [(t, v, rho) for t in grid for v in grid for rho in rhos]
        rs = np.random.default_rng(4)
        points += [
            (t, v, rho)
            for t, v, rho in zip(
                rs.uniform(-10.0, 10.0, 40).tolist(),
                rs.uniform(-4.0, 4.0, 40).tolist(),
                rs.uniform(-1.0, 1.0, 40).tolist(),
            )
        ]
        for t, v, rho in points:
            got = bivariate_orthant(t, v, rho)
            assert got.hex() == ref_bivariate_orthant(t, v, rho).hex(), (t, v, rho)

    def test_bounded_by_single_tail(self):
        for rho in (-0.9, -0.3, 0.0, 0.5, 0.95):
            for t in (-2.0, 0.0, 1.5):
                for v in (-1.0, 0.5, 2.5):
                    p = bivariate_orthant(t, v, rho)
                    assert 0.0 <= p <= q_function(max(t, v)) + 1e-12

    def test_monotone_in_rho(self):
        # Slepian: the orthant probability grows with the correlation
        for t, v in ((0.5, 0.5), (-0.5, 1.0)):
            vals = [bivariate_orthant(t, v, r) for r in (-0.9, -0.5, 0.0, 0.5, 0.9)]
            assert all(a < b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            bivariate_orthant(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            bivariate_orthant(0.0, 0.0, 1.5)


class TestOverlapLimit:
    def test_values(self):
        assert overlap_limit(0.5, 0.3, 0.5) == 0.25
        assert overlap_limit(0.5, 0.2, 0.5) == 0.2  # saturated: returns r
        assert overlap_limit(0.8, 0.3, 0.25) == 0.2

    def test_domain(self):
        with pytest.raises(DomainError):
            overlap_limit(0.5, 0.6, 0.5)
        with pytest.raises(DomainError):
            overlap_limit(0.5, 0.3, 1.0)


def test_import_skips_numpy_polynomial():
    # the Gauss-Legendre rule is built on first use, not at import
    src = os.path.dirname(os.path.dirname(polarkit.__file__))
    code = "import sys, numpy, polarkit; sys.exit('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
