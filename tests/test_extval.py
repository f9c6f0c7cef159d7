import math
import warnings
import random

import mpmath as mp
import numpy as np
import pytest

from conftest import ref_cmp, ref_pow_int, ref_times_pow2
from polarkit.becpolar import _eval_terms, _Group
from polarkit.errors import DomainError
from polarkit.extval import (
    COMPLOG,
    LINEAR,
    NEGLOG,
    SWITCH_BITS,
    ExtendedUnitValue,
    _pow_arr,
)



def mp_neglog2(z):
    return -mp.log(z, 2)


class TestConstructors:
    def test_from_float_mode_bands(self):
        assert ExtendedUnitValue.from_float(0.5).mode == LINEAR
        assert ExtendedUnitValue.from_float(2.0**-39).mode == LINEAR
        assert ExtendedUnitValue.from_float(2.0**-41).mode == NEGLOG
        assert ExtendedUnitValue.from_float(1 - 2.0**-41).mode == COMPLOG
        assert ExtendedUnitValue.from_float(2.0**-40).mode == LINEAR

    def test_from_float_rejects_outside_interval(self):
        for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
            with pytest.raises(DomainError):
                ExtendedUnitValue.from_float(bad)

    def test_from_neglog2_bands(self):
        assert ExtendedUnitValue.from_neglog2(50.0) == ExtendedUnitValue(
            NEGLOG, 50.0
        )
        v = ExtendedUnitValue.from_neglog2(10.0)
        assert v.mode == LINEAR and v.payload == 2.0**-10
        # tiny lam means z near 1
        w = ExtendedUnitValue.from_neglog2(2.0**-45)
        assert w.mode == COMPLOG
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                ExtendedUnitValue.from_neglog2(bad)

    def test_subnormal_complement_keeps_its_fraction(self):
        # below lam ~ 2^-1022 / ln 2, d = 1 - 2^-lam is subnormal, and
        # -log2(d) of the float d would lose the payload's fraction
        with mp.workdps(80):
            for lam in (2.0**-1074, 3 * 2.0**-1074, 2.0**-1060, 2.0**-1023, 2.0**-1000):
                want = float(-mp.log(-mp.expm1(-mp.mpf(lam) * mp.log(2)), 2))
                v = ExtendedUnitValue.from_neglog2(lam)
                assert v.mode == COMPLOG and math.isclose(v.payload, want, rel_tol=1e-15)
                w = ExtendedUnitValue.from_complog2(lam)
                assert w.mode == NEGLOG and w.payload == v.payload
        assert math.isclose(ExtendedUnitValue.from_neglog2(2.0**-1074).payload,
                            1074.5287663729449, rel_tol=1e-15)
        assert math.isclose(ExtendedUnitValue.from_neglog2(3 * 2.0**-1074).payload,
                            1072.9438038722237, rel_tol=1e-15)

    def test_from_complog2_bands(self):
        assert ExtendedUnitValue.from_complog2(64.0) == ExtendedUnitValue(
            COMPLOG, 64.0
        )
        v = ExtendedUnitValue.from_complog2(10.0)
        assert v.mode == LINEAR and v.payload == 1.0 - 2.0**-10
        w = ExtendedUnitValue.from_complog2(2.0**-45)
        assert w.mode == NEGLOG
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="complog payload"):
                ExtendedUnitValue.from_complog2(bad)

    def test_top(self):
        t = ExtendedUnitValue.top()
        assert t.is_top
        assert t.mode == COMPLOG and math.isinf(t.payload)
        assert t.value == 1.0
        assert not ExtendedUnitValue.from_float(0.5).is_top


class TestViews:
    def test_value_roundtrip_linear(self):
        for z in (0.5, 0.001, 1 - 1e-9, 2.0**-39):
            assert ExtendedUnitValue.from_float(z).value == z

    def test_neglog2_accuracy_across_modes(self):
        # the three representations agree with 50-digit arithmetic
        for lam in (0.5, 5.0, 39.0, 40.5, 100.0, 1e6):
            v = ExtendedUnitValue.from_neglog2(lam)
            want = float(mp_neglog2(mp.power(2, -mp.mpf(lam))))
            assert math.isclose(v.neglog2, want, rel_tol=1e-12)

    def test_complog2_accuracy_across_modes(self):
        for mu in (0.5, 5.0, 39.0, 40.5, 100.0):
            v = ExtendedUnitValue.from_complog2(mu)
            z = 1 - mp.power(2, -mp.mpf(mu))
            want = float(-mp.log(1 - z, 2))
            assert math.isclose(v.complog2, want, rel_tol=1e-12)

    def test_mode_switch_roundtrip_error(self):
        # crossing the 40-bit boundary perturbs the value below 2^-45 relative
        for lam in (39.5, 39.99, 40.0, 40.01, 40.5):
            v = ExtendedUnitValue.from_neglog2(lam)
            exact = mp.power(2, -mp.mpf(lam))
            rel = abs(mp.mpf(v.value) - exact) / exact
            assert rel < 2.0**-45

    def test_value_underflow_and_round_to_one(self):
        assert ExtendedUnitValue(NEGLOG, 1e9).value == 0.0
        assert ExtendedUnitValue(COMPLOG, 1e9).value == 1.0

    def test_complog_zero_payload_is_outside_the_interval(self):
        # 1 - 2^-0 = 0 is no value of the open unit interval
        with pytest.raises(DomainError, match="outside"):
            ExtendedUnitValue(COMPLOG, 0.0).neglog2


class TestComplement:
    def test_swaps_log_modes_exactly(self):
        v = ExtendedUnitValue(NEGLOG, 123.25)
        c = v.complement()
        assert c == ExtendedUnitValue(COMPLOG, 123.25)
        assert c.complement() == v

    def test_linear(self):
        v = ExtendedUnitValue.from_float(0.3)
        assert v.complement().value == 0.7

    def test_matches_value(self):
        for z in (0.2, 0.8, 1e-20, 1 - 1e-13):
            v = ExtendedUnitValue.from_float(z)
            assert math.isclose(
                v.complement().value, 1 - z, rel_tol=1e-12, abs_tol=1e-300
            )


MIRROR_MUS = (2.0**-45, 0.5, 39.5, 40.0, 40.5, 1e6, math.inf)


def direct_from_complog2(mu):
    """(mode, payload) of 1 - z = 2^-mu, written out without the mirror."""
    if mu > SWITCH_BITS:
        return COMPLOG, mu
    z = -math.expm1(-mu * math.log(2.0))
    if z < 2.0**-SWITCH_BITS:
        return NEGLOG, -math.log2(z)
    return LINEAR, 1.0 - math.pow(2.0, -mu)


def direct_complog2(v):
    """-log2(1 - z) of v, written out per mode without the mirror."""
    if v.mode == COMPLOG:
        return v.payload
    if v.mode == LINEAR:
        return -math.log2(1.0 - v.payload)
    return -math.log1p(-math.pow(2.0, -v.payload)) / math.log(2.0)


class TestMirror:
    """The COMPLOG side is the NEGLOG side taken through ``complement``;
    both forms, and the per-mode formulas, agree bit for bit."""

    @staticmethod
    def bits(x):
        return float(x).hex()

    def test_from_complog2_is_mirrored_from_neglog2(self):
        for mu in MIRROR_MUS:
            got = ExtendedUnitValue.from_complog2(mu)
            mirror = ExtendedUnitValue.from_neglog2(mu).complement()
            assert (got.mode, self.bits(got.payload)) == (mirror.mode, self.bits(mirror.payload))
            mode, payload = direct_from_complog2(mu)
            assert (got.mode, self.bits(got.payload)) == (mode, self.bits(payload))
        assert ExtendedUnitValue.from_complog2(math.inf).is_top
        modes = {ExtendedUnitValue.from_complog2(mu).mode for mu in MIRROR_MUS}
        assert modes == {LINEAR, NEGLOG, COMPLOG}

    def test_complog2_is_mirrored_neglog2(self):
        values = [ExtendedUnitValue.from_float(z) for z in (2.0**-40, 0.3, 0.5, 1 - 2.0**-39)]
        for mu in MIRROR_MUS:
            values += [
                ExtendedUnitValue.from_neglog2(mu),
                ExtendedUnitValue.from_complog2(mu),
                ExtendedUnitValue(NEGLOG, mu),
                ExtendedUnitValue(COMPLOG, mu),
            ]
        for v in values:
            want = self.bits(direct_complog2(v))
            assert self.bits(v.complog2) == self.bits(v.complement().neglog2) == want


class TestOrdering:
    def chain(self):
        return [
            ExtendedUnitValue(NEGLOG, 200.0),
            ExtendedUnitValue(NEGLOG, 100.0),
            ExtendedUnitValue.from_float(0.25),
            ExtendedUnitValue.from_float(0.5),
            ExtendedUnitValue(COMPLOG, 100.0),
            ExtendedUnitValue(COMPLOG, 200.0),
            ExtendedUnitValue.top(),
        ]

    def test_strict_chain(self):
        vals = self.chain()
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                assert (a < b) == (i < j)
                assert (a <= b) == (i <= j)
                assert (a > b) == (i > j)
                assert (a >= b) == (i >= j)

    def test_band_boundary_compares_equal(self):
        lin = ExtendedUnitValue(LINEAR, 2.0**-40)
        log = ExtendedUnitValue(NEGLOG, 40.0)
        assert lin <= log <= lin
        assert not lin < log and not log < lin

    def test_consistent_with_float_values(self):
        import random

        r = random.Random(5)
        vals = [ExtendedUnitValue.from_float(r.uniform(1e-6, 1 - 1e-6))
                for _ in range(50)]
        by_cmp = sorted(vals)
        by_val = sorted(vals, key=lambda v: v.value)
        assert [v.value for v in by_cmp] == [v.value for v in by_val]


class TestPowInt:
    def test_neglog_multiplies_payload(self):
        v = ExtendedUnitValue(NEGLOG, 100.0)
        assert v.pow_int(8) == ExtendedUnitValue(NEGLOG, 800.0)

    def test_linear_matches_mp(self):
        for z in (0.3, 0.9, 0.999):
            for d in (2, 3, 7):
                got = ExtendedUnitValue.from_float(z).pow_int(d)
                want = mp.power(mp.mpf(z), d)
                assert abs(mp.mpf(got.value) - want) / want < 1e-13

    def test_linear_falls_back_to_log_domain(self):
        got = ExtendedUnitValue.from_float(0.5).pow_int(5000)
        assert got == ExtendedUnitValue(NEGLOG, 5000.0)

    def test_linear_subnormal_power_matches_mp(self):
        # z^d below the smallest normal float keeps too few bits; the log
        # domain keeps lam within an ulp across the normal/subnormal and the
        # subnormal/zero crossings (0.3^588 ~ 2^-1022, 0.3^619 ~ 2^-1075)
        cases = [(0.3, d) for d in range(580, 621)] + [(1e-12, 26), (0.9, 7000)]
        for z, d in cases:
            got = ExtendedUnitValue.from_float(z).pow_int(d)
            want = -mp.log(mp.power(mp.mpf(z), d), 2)
            assert got.mode == NEGLOG
            assert abs(mp.mpf(got.payload) - want) <= 2 * math.ulp(got.payload), (z, d)

    def test_complog_small_power_matches_mp(self):
        v = ExtendedUnitValue(COMPLOG, 50.0)  # z = 1 - 2^-50
        got = v.pow_int(3)
        z = 1 - mp.power(2, -50)
        want_mu = float(-mp.log(1 - z**3, 2))
        assert got.mode == COMPLOG
        assert math.isclose(got.payload, want_mu, rel_tol=1e-13)

    def test_complog_large_power_crosses_bands(self):
        v = ExtendedUnitValue(COMPLOG, 41.0)
        got = v.pow_int(2**20)
        z = 1 - mp.power(2, -41)
        want = mp.power(z, 2**20)
        assert abs(mp.mpf(got.value) - want) / want < 1e-12

    def test_identity_and_top(self):
        v = ExtendedUnitValue.from_float(0.25)
        assert v.pow_int(1) is v
        assert ExtendedUnitValue.top().pow_int(7).is_top

    def test_rejects_bad_exponent(self):
        v = ExtendedUnitValue.from_float(0.25)
        for bad in (0, -1, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                v.pow_int(bad)

    def test_exponent_beyond_the_float_range(self):
        # float(d) overflows there, in every mode; the top stays the top
        for v in (ExtendedUnitValue.from_float(0.3), ExtendedUnitValue(NEGLOG, 50.0),
                  ExtendedUnitValue(COMPLOG, 50.0), ExtendedUnitValue(COMPLOG, 200.0)):
            for d in (2**1024, 2**1100):
                with pytest.raises(DomainError, match="beyond the float range"):
                    v.pow_int(d)

    def test_numpy_non_finite_exponent_is_a_domain_error(self):
        v = ExtendedUnitValue.from_float(0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.float64(np.inf), np.float64(np.nan)):
                with pytest.raises(DomainError):
                    v.pow_int(bad)
            assert v.pow_int(np.float64(2.0)) == v.pow_int(2)
            assert ExtendedUnitValue.top().pow_int(2**1100).is_top


class TestTimesPow2:
    def test_neglog_shift(self):
        v = ExtendedUnitValue(NEGLOG, 100.0)
        assert v.times_pow2(30) == ExtendedUnitValue(NEGLOG, 70.0)

    def test_linear_exact_scaling(self):
        v = ExtendedUnitValue.from_float(2.0**-30)
        assert v.times_pow2(10).value == 2.0**-20

    def test_saturation(self):
        assert ExtendedUnitValue.from_float(0.5).times_pow2(2).is_top
        assert ExtendedUnitValue(NEGLOG, 41.0).times_pow2(41).is_top
        assert ExtendedUnitValue(COMPLOG, 50.0).times_pow2(1).is_top

    def test_saturation_past_the_float_range(self):
        # 2.0**k overflows from k = 1024 on and float(k) from k = 2^1024 on
        for v in (ExtendedUnitValue(LINEAR, 0.5), ExtendedUnitValue(NEGLOG, 50.0),
                  ExtendedUnitValue(COMPLOG, 50.0)):
            for k in (1023, 1024, 1075, 2**64, 2**1100):
                assert v.times_pow2(k).is_top, (v, k)
        # a subnormal payload (hand-built) scales exactly up to 1 and saturates there
        tiny = ExtendedUnitValue(LINEAR, 2.0**-1074)
        assert tiny.times_pow2(1073) == ExtendedUnitValue(LINEAR, 0.5)
        assert tiny.times_pow2(1074).is_top
        assert ExtendedUnitValue(NEGLOG, 50.0).times_pow2(49) == ExtendedUnitValue(LINEAR, 0.5)

    def test_identity_and_domain(self):
        v = ExtendedUnitValue.from_float(0.5)
        assert v.times_pow2(0) is v
        for bad in (-1, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                v.times_pow2(bad)

    def test_numpy_non_finite_exponent_is_a_domain_error(self):
        v = ExtendedUnitValue.from_float(2.0**-30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.float64(np.inf), np.float64(np.nan)):
                with pytest.raises(DomainError):
                    v.times_pow2(bad)
            assert v.times_pow2(np.float64(10.0)) == v.times_pow2(10)
            assert ExtendedUnitValue.top().times_pow2(2**1100).is_top


def test_as_pair():
    assert ExtendedUnitValue(NEGLOG, 100.0).as_pair() == ("neglog", 100.0)
    assert ExtendedUnitValue.from_float(0.5).as_pair() == ("linear", 0.5)
    assert SWITCH_BITS == 40.0


def outcome(f, *args):
    """(mode, payload bits) of a value, any other result, or the error raised."""
    try:
        got = f(*args)
    except (DomainError, ValueError, OverflowError) as e:
        return type(e), str(e)
    if isinstance(got, ExtendedUnitValue):
        return got.mode, float(got.payload).hex()
    return got


def scalar_values():
    """Values in every mode band, at the band edges, past SATURATED, the top,
    and hand-built non-canonical ones (a payload outside its mode's band)."""
    r = random.Random(3)
    vals = [ExtendedUnitValue.from_float(r.random()) for _ in range(12)]
    vals += [ExtendedUnitValue.from_neglog2(r.uniform(1.0, 300.0)) for _ in range(6)]
    vals += [ExtendedUnitValue.from_complog2(r.uniform(1.0, 300.0)) for _ in range(6)]
    vals += [
        ExtendedUnitValue.from_float(z)
        for z in (0.5, 2.0**-40, 2.0**-39, 1 - 2.0**-40, 1e-300, 5e-324, 1 - 2.0**-53)
    ]
    vals += [
        ExtendedUnitValue(NEGLOG, lam) for lam in (40.000000001, 128.0, 129.5, 1e6)
    ] + [ExtendedUnitValue(COMPLOG, mu) for mu in (40.000000001, 128.0, 1e6)]
    vals += [
        ExtendedUnitValue.top(),
        ExtendedUnitValue(LINEAR, 2.0**-40),
        ExtendedUnitValue(LINEAR, 2.0**-60),
        ExtendedUnitValue(LINEAR, 1 - 2.0**-41),
        ExtendedUnitValue(NEGLOG, 40.0),
        ExtendedUnitValue(NEGLOG, 10.0),
        ExtendedUnitValue(NEGLOG, 2.0**-45),
        ExtendedUnitValue(COMPLOG, 40.0),
        ExtendedUnitValue(COMPLOG, 10.0),
        ExtendedUnitValue(COMPLOG, 2.0**-45),
    ]
    return vals


class TestScalarReference:
    """pow_int, times_pow2 and the ordering against the reference scalar path
    of tests/conftest.py: equal modes, payload bits and raised errors."""

    def test_pow_int(self):
        ds = [*range(1, 21), 31, 63, 64, 65, 100, 1000, 5000, 2**20, 2**63, 2**64,
              0, -1, 1.5, math.nan, math.inf]
        for v in scalar_values():
            for d in ds:
                assert outcome(v.pow_int, d) == outcome(ref_pow_int, v, d), (v, d)

    def test_times_pow2(self):
        for v in scalar_values():
            for k in [*range(0, 70), 1000, -1, 1.5, math.nan, math.inf]:
                assert outcome(v.times_pow2, k) == outcome(ref_times_pow2, v, k), (v, k)

    def test_ordering(self):
        vals = scalar_values()
        for a in vals:
            for b in vals:
                want = outcome(ref_cmp, a, b)
                assert outcome(a._cmp, b) == want, (a, b)
                if isinstance(want, int):
                    assert (a < b, a <= b, a > b, a >= b) == (
                        want < 0, want <= 0, want > 0, want >= 0
                    )


class TestPowArr:
    """_pow_arr for k = 0, 1 and 2 skips numpy; it must still give what
    numpy's array power and the engine's _eval_terms give."""

    def inputs(self):
        rs = np.random.default_rng(11)
        return np.concatenate([
            rs.random(20000),
            2.0 ** -rs.uniform(0.0, 600.0, 2000),  # tiny
            1.0 - 2.0 ** -rs.uniform(1.0, 53.0, 2000),  # near 1
            [2.0**-40, 2.0**-20, 0.5, 1.0, 1 - 2.0**-53],
            [2.0**-1022, 2.0**-1030, 5e-324, 1e-310, 2.0**-537, 2.0**-511.5],  # subnormal results
        ])

    def test_low_powers_match_numpy_and_engine(self):
        xs = self.inputs()
        for k in (0, 1, 2):
            got = [_pow_arr(x, k).hex() for x in xs.tolist()]
            arr = np.power(xs, k).tolist()
            single = [float(np.power(np.array([x]), k)[0]) for x in xs.tolist()]
            engine = np.broadcast_to(_eval_terms([(1.0, k, 0)], _Group(xs, False)), xs.shape)
            assert got == [x.hex() for x in arr], k
            assert got == [x.hex() for x in single], k
            assert got == [x.hex() for x in engine.tolist()], k

    def test_higher_powers_are_numpys(self):
        xs = self.inputs()[::10]
        for k in (3, 4, 7, 16):
            want = [x.hex() for x in np.power(xs, k).tolist()]
            assert [_pow_arr(x, k).hex() for x in xs.tolist()] == want
