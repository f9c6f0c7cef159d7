import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    RefTables,
    kron_power,
    np_gf2_rank,
    random_invertible,
    ref_bracket,
    ref_enumerate_levels,
    ref_eval_terms,
    ref_evolve,
    ref_step_arrays,
    sample_paths_masked,
)
from polarkit import becpolar
from polarkit.becpolar import (
    DEFAULT_BUDGET,
    SATURATED,
    LevelCdf,
    LevelWalk,
    enumerate_level,
    enumerate_levels,
    evolve_exact,
    level_from_samples,
    sample_paths,
    split_erasure_polynomials,
)
from polarkit.errors import (
    BudgetExceeded,
    DomainError,
    NotPolarizing,
    RequiresExactCdf,
)
from polarkit.extval import COMPLOG, LINEAR, NEGLOG, SWITCH_BITS, ExtendedUnitValue
from polarkit.gf2kernel import BitMatrix, is_polarizing, partial_distances
from polarkit.rng import path_digit_matrix
from polarkit.serialize import fmt_real


ARIKAN = BitMatrix.from_literal("10;11")
L3 = BitMatrix.from_literal("100;110;101")


def polarizing_sample():
    yield ARIKAN
    yield L3
    yield BitMatrix.from_literal("01;11")
    rng = np.random.default_rng(41)
    found = {ARIKAN.to_literal(), L3.to_literal(), "01;11"}
    for ell in (3, 4):
        got = 0
        while got < 4:
            m = random_invertible(rng, ell)
            lit = m.to_literal()
            if lit in found:
                continue
            try:
                split_erasure_polynomials(m)
            except NotPolarizing:
                continue
            found.add(lit)
            got += 1
            yield m


def random_polarizing(seed, ell):
    rng = np.random.default_rng(seed)
    while True:
        m = random_invertible(rng, ell)
        if is_polarizing(m):
            return m


def oracle_counts(m):
    """Pattern counts by independent per-pattern rank tests."""
    ell = m.ell
    a = np.array(m.as_lists())
    counts = [[0] * (ell + 1) for _ in range(ell)]
    for E in range(1 << ell):
        known = [c for c in range(ell) if not ((E >> c) & 1)]
        w = bin(E).count("1")
        for j in range(ell):
            undet = np_gf2_rank(a[j:, known]) == np_gf2_rank(a[j + 1:, known])
            if undet:
                counts[j][w] += 1
    return counts


def frac_poly(counts_row, ell, x: Fraction) -> Fraction:
    return sum(
        a * x**k * (1 - x) ** (ell - k)
        for k, a in enumerate(counts_row)
        if a
    )


def mp_evolve(polys, eps, digits):
    z = mp.mpf(eps)
    ell = polys.ell
    for b in digits:
        z = mp.fsum(
            a * z**k * (1 - z) ** (ell - k)
            for k, a in enumerate(polys.counts[b])
            if a
        )
    return z


def assert_close_extval(got: ExtendedUnitValue, want_mp):
    if got.mode == NEGLOG:
        # z-side payloads never suffer cancellation; near machine precision
        want = float(-mp.log(want_mp, 2))
        assert math.isclose(got.neglog2, want, rel_tol=1e-10)
    elif got.mode == COMPLOG:
        # the complement of a value that crossed the linear band near 1
        # carries the crossing's 1-z cancellation (up to ~2^-53/2^-40 relative
        # on the complement); the value itself stays accurate to ~1e-15
        want = float(-mp.log(1 - want_mp, 2))
        assert math.isclose(got.complog2, want, rel_tol=1e-7, abs_tol=1e-2)
    else:
        assert math.isclose(got.value, float(want_mp), rel_tol=1e-12)


class TestSplit:
    def test_counts_match_pattern_oracle(self):
        for m in polarizing_sample():
            polys = split_erasure_polynomials(m)
            assert [list(r) for r in polys.counts] == oracle_counts(m)

    def test_arikan_polynomials(self):
        polys = split_erasure_polynomials(ARIKAN)
        assert polys.counts == ((0, 2, 1), (0, 0, 1))  # 2z-z^2 and z^2
        assert polys.comp_counts == ((0, 0, 1), (0, 2, 1))
        assert polys.leading_degree == (1, 2)
        assert polys.comp_leading_degree == (2, 1)

    def test_leading_degree_equals_partial_distance(self):
        for m in polarizing_sample():
            polys = split_erasure_polynomials(m)
            assert polys.leading_degree == partial_distances(m)

    def test_complement_identity(self):
        # q_j(d) = 1 - p_j(1-d) exactly, checked in rational arithmetic
        for m in polarizing_sample():
            polys = split_erasure_polynomials(m)
            for j in range(m.ell):
                for num in range(0, 14):
                    d = Fraction(num, 13)
                    q = frac_poly(polys.comp_counts[j], m.ell, d)
                    p = frac_poly(polys.counts[j], m.ell, 1 - d)
                    assert q == 1 - p

    def test_conservation_exact(self):
        # sum_j p_j(x) = ell * x as polynomials (martingale property)
        for m in polarizing_sample():
            polys = split_erasure_polynomials(m)
            for num in range(0, 12):
                x = Fraction(num, 11)
                total = sum(
                    frac_poly(polys.counts[j], m.ell, x) for j in range(m.ell)
                )
                assert total == m.ell * x

    def test_sandwich_exact(self):
        # x^D_j <= p_j(x) <= 2^(ell-j) x^D_j on a rational grid
        for m in polarizing_sample():
            polys = split_erasure_polynomials(m)
            dists = partial_distances(m)
            for j in range(m.ell):
                for num in range(1, 20):
                    x = Fraction(num, 20)
                    p = frac_poly(polys.counts[j], m.ell, x)
                    assert x ** dists[j] <= p <= 2 ** (m.ell - j) * x ** dists[j]

    def test_erasure_prob_matches_fractions(self):
        polys = split_erasure_polynomials(L3)
        for j in range(3):
            for eps in (0.0, 0.25, 0.5, 0.875, 1.0):
                want = float(frac_poly(polys.counts[j], 3, Fraction(eps)))
                assert math.isclose(
                    polys.erasure_prob(j, eps), want, rel_tol=1e-14, abs_tol=1e-15
                )
                wantc = float(frac_poly(polys.comp_counts[j], 3, Fraction(eps)))
                assert math.isclose(
                    polys.complement_prob(j, eps), wantc,
                    rel_tol=1e-14, abs_tol=1e-15,
                )
        with pytest.raises(DomainError):
            polys.erasure_prob(0, 1.5)

    def test_branch_index_is_checked(self):
        # -1 must not read the last branch; a whole float names its branch
        polys = split_erasure_polynomials(L3)
        for prob in (polys.erasure_prob, polys.complement_prob):
            assert prob(2.0, 0.25) == prob(2, 0.25)
            for bad in (-1, 3, 0.5, math.nan):
                with pytest.raises(DomainError):
                    prob(bad, 0.25)

    def test_rejects_non_polarizing(self):
        with pytest.raises(NotPolarizing):
            split_erasure_polynomials(BitMatrix.from_literal("10;01"))

    def test_json(self):
        doc = json.loads(split_erasure_polynomials(ARIKAN).to_json())
        assert doc["counts"] == [[0, 2, 1], [0, 0, 1]]
        assert doc["leading_degree"] == [1, 2]


class TestEvolveExact:
    def test_pure_squaring_chain(self):
        polys = split_erasure_polynomials(ARIKAN)
        v = evolve_exact(0.5, [1] * 20, polys)
        assert v == ExtendedUnitValue(NEGLOG, float(2**20))

    def test_pure_good_chain(self):
        polys = split_erasure_polynomials(ARIKAN)
        v = evolve_exact(0.5, [0] * 20, polys)
        assert v == ExtendedUnitValue(COMPLOG, float(2**20))

    def test_against_mp_recursion_arikan(self):
        polys = split_erasure_polynomials(ARIKAN)
        rng = np.random.default_rng(2)
        paths = [
            [0] * 8 + [1] * 8,
            [1] * 8 + [0] * 8,
            [0, 1] * 8,
        ] + [rng.integers(0, 2, 16).tolist() for _ in range(10)]
        for digits in paths:
            got = evolve_exact(0.3, digits, polys)
            want = mp_evolve(polys, 0.3, digits)
            assert_close_extval(got, want)

    def test_against_mp_recursion_l3(self):
        polys = split_erasure_polynomials(L3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            digits = rng.integers(0, 3, 10).tolist()
            got = evolve_exact(0.6, digits, polys)
            want = mp_evolve(polys, 0.6, digits)
            assert_close_extval(got, want)

    def test_extval_start(self):
        polys = split_erasure_polynomials(ARIKAN)
        z0 = ExtendedUnitValue(NEGLOG, 1000.0)
        v = evolve_exact(z0, [1, 1], polys)
        assert v == ExtendedUnitValue(NEGLOG, 4000.0)

    def test_bad_start_state(self):
        # no probability; a LINEAR payload >= SATURATED would otherwise be
        # stepped as a saturated log-domain payload
        polys = split_erasure_polynomials(ARIKAN)
        for z0 in ((LINEAR, 300.0), (LINEAR, 1.0), (LINEAR, -0.5), (NEGLOG, 0.0),
                   (COMPLOG, math.nan), (7, 0.5)):
            with pytest.raises(DomainError):
                evolve_exact(ExtendedUnitValue(*z0), [0], polys)
        assert evolve_exact(ExtendedUnitValue.top(), [0], polys).is_top

    def test_log_start_below_one_takes_its_canonical_pair(self):
        # NEGLOG 2^-45 is z = 1 - 2^-45.53, so Arikan branch 0 squares 1 - z:
        # -2 log2(1 - 2^-(2^-45)) = 91.05753274588982365 (50-digit mpmath);
        # the COMPLOG mirror on branch 1 squares z to the same payload
        polys = split_erasure_polynomials(ARIKAN)
        want = float(-2 * mp.log(1 - mp.mpf(2) ** -(mp.mpf(2) ** -45), 2))
        for mode, b, out in ((NEGLOG, 0, COMPLOG), (COMPLOG, 1, NEGLOG)):
            z = evolve_exact(ExtendedUnitValue(mode, 2.0**-45), [b], polys)
            assert z.mode == out and math.isclose(z.payload, want, rel_tol=1e-12)
        l3 = split_erasure_polynomials(L3)
        for pay in (2.0**-45, 0.25, 0.999):
            for digits in ([0, 2, 1], [2, 2, 0, 1]):
                assert evolve_exact(ExtendedUnitValue(NEGLOG, pay), digits, l3) == (
                    evolve_exact(ExtendedUnitValue.from_neglog2(pay), digits, l3))
                assert evolve_exact(ExtendedUnitValue(COMPLOG, pay), digits, l3) == (
                    evolve_exact(ExtendedUnitValue.from_complog2(pay), digits, l3))

    def test_subnormal_log_start_keeps_its_fraction(self):
        # z0 = 2^-(2^-1074), so 1 - z0 is subnormal; Arikan branch 0 doubles
        # mu = -log2(1 - z), branch 1 takes log2(1 + z) off it
        with mp.workdps(80):
            mu = -mp.log(-mp.expm1(-mp.mpf(2) ** -1074 * mp.log(2)), 2)
            mu = 2 * mu
            mu = 2 * (mu - mp.log(2 - mp.mpf(2) ** -mu, 2))
            want = float(mu)
        z = evolve_exact(ExtendedUnitValue(NEGLOG, 2.0**-1074), [0, 1, 0],
                         split_erasure_polynomials(ARIKAN))
        assert z.mode == COMPLOG and math.isclose(z.payload, want, rel_tol=1e-15)
        assert math.isclose(want, 4296.115, rel_tol=1e-6)

    def test_empty_path_is_identity(self):
        polys = split_erasure_polynomials(ARIKAN)
        assert evolve_exact(0.25, [], polys).value == 0.25

    def test_bad_digit(self):
        polys = split_erasure_polynomials(ARIKAN)
        for digits in ([2], [-1], [1.7, 0.2], [0, 0.5], [math.nan]):
            with pytest.raises(DomainError):
                evolve_exact(0.5, digits, polys)
        # integral floats are digits like any other
        assert evolve_exact(0.5, [1.0, 0.0], polys) == evolve_exact(0.5, [1, 0], polys)

    def test_numpy_non_finite_digit_is_a_domain_error(self):
        polys = split_erasure_polynomials(ARIKAN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.float64(np.inf), np.float64(np.nan)):
                with pytest.raises(DomainError):
                    evolve_exact(0.5, [0, bad], polys)
            with pytest.raises(DomainError):
                evolve_exact(0.5, [2**1100], polys)
            assert evolve_exact(0.5, [np.float64(1.0)], polys) == evolve_exact(0.5, [1], polys)

    def test_tables_built_once(self, monkeypatch):
        builds = []

        class Counting(becpolar._EvolveTables):
            def __init__(self, polys):
                builds.append(polys)
                super().__init__(polys)

        monkeypatch.setattr(becpolar, "_EvolveTables", Counting)
        becpolar._tables.cache_clear()
        try:
            for _ in range(3):
                # an equal polynomial set built anew shares the tables
                polys = split_erasure_polynomials(L3)
                for digits in ([0, 1, 2], [2, 2], []):
                    evolve_exact(0.4, digits, polys)
            assert len(builds) == 1
        finally:
            becpolar._tables.cache_clear()

    @pytest.mark.parametrize("g, n", [
        (ARIKAN, 64),
        (L3, 40),
        (kron_power(4), 8),
        (random_polarizing(24, 6), 14),
    ])
    def test_matches_reference_steps(self, g, n):
        # deep paths reach the saturated classes
        polys = split_erasure_polynomials(g)
        rows = np.random.default_rng(n).integers(0, g.ell, (12, n))
        for eps in (0.5, 1e-13, 1 - 1e-13):
            for row in rows.tolist():
                got = evolve_exact(eps, row, polys)
                assert (got.mode, got.payload) == ref_evolve(eps, row, polys)

    @pytest.mark.parametrize("g", [
        ARIKAN, L3, kron_power(4), *(random_polarizing(60 + ell, ell) for ell in range(3, 9)),
    ], ids=["arikan", "l3", "g16", *(f"random{ell}" for ell in range(3, 9))])
    def test_every_start_matches_reference_steps(self, g):
        # hand-built values outside their band, payloads next to, at and
        # above SATURATED, and the top, each stepped from where it is
        polys = split_erasure_polynomials(g)
        starts = [
            ExtendedUnitValue(NEGLOG, 12.0),
            ExtendedUnitValue(COMPLOG, 3.0),
            ExtendedUnitValue(NEGLOG, 20.0),  # Arikan's squaring lands on SWITCH_BITS
            ExtendedUnitValue(COMPLOG, 20.0),
            ExtendedUnitValue(LINEAR, 2.0**-45),
            ExtendedUnitValue(LINEAR, 1 - 2.0**-45),
            ExtendedUnitValue(NEGLOG, math.nextafter(SATURATED, 0.0)),
            ExtendedUnitValue(NEGLOG, SATURATED),
            ExtendedUnitValue(NEGLOG, 300.0),
            ExtendedUnitValue(COMPLOG, SATURATED),
            ExtendedUnitValue(COMPLOG, 1e4),
            ExtendedUnitValue.top(),
        ]
        rows = np.random.default_rng(g.ell).integers(0, g.ell, (8, 12)).tolist()
        for z0 in starts:
            for row in rows:
                for depth in (1, 3, 12):
                    got = evolve_exact(z0, row[:depth], polys)
                    want = ref_evolve(z0, row[:depth], polys)
                    assert (got.mode, got.payload.hex()) == (want[0], want[1].hex()), (z0, row)


SATURATED_KERNELS = {
    "arikan": ARIKAN,
    "l3": L3,
    "g8": kron_power(3),
    "g16": kron_power(4),
    **{f"random{ell}": random_polarizing(100 + ell, ell) for ell in range(4, 17)},
}


class TestSaturatedStep:
    @pytest.mark.parametrize("name", SATURATED_KERNELS)
    def test_bracket_is_the_lead_count(self, name):
        # from SATURATED on, the full bracket is exactly a_d, and np.log2 of
        # it, over every SIMD lane and tail element, is the stored constant
        polys = split_erasure_polynomials(SATURATED_KERNELS[name])
        ref = RefTables(polys)
        t = becpolar._EvolveTables(polys)
        lam = np.concatenate((
            [SATURATED, np.nextafter(SATURATED, np.inf)],
            np.geomspace(SATURATED, 1e6, 1021),
        ))
        for comp, counts, leads, consts in (
            (False, polys.counts, ref.lead, t.c[0]),
            (True, polys.comp_counts, ref.comp_lead, t.c[1]),
        ):
            assert len(consts) == polys.ell
            for j, (row, d, c) in enumerate(zip(counts, leads, consts)):
                bracket = ref_bracket(ref, j, lam, comp)
                assert np.all(bracket == row[d])
                assert np.all(np.log2(bracket) == c)
                # the affine step never re-normalizes toward LINEAR
                assert SATURATED - c > SWITCH_BITS


def last_true(pred, lo, hi):
    """Largest float z in [lo, hi) with pred(z), for pred true at lo, false
    at hi and monotone between; bisects the bit patterns, which order
    positive floats."""
    assert pred(lo) and not pred(hi)
    a = int(np.float64(lo).view(np.int64))
    b = int(np.float64(hi).view(np.int64))
    while b - a > 1:
        mid = (a + b) // 2
        if pred(float(np.int64(mid).view(np.float64))):
            a = mid
        else:
            b = mid
    return float(np.int64(a).view(np.float64))


def linear_boundary_inputs(j, ref):
    """Two arrays of LINEAR payloads z: in the first p_j(z), in the second
    q_j(1 - z), lands on either side of 2^-SWITCH_BITS, 8 ulps of z each
    way from the crossing (an exact hit included where a float reaches it)."""
    thresh = 2.0**-SWITCH_BITS
    p = lambda z: ref_eval_terms(ref.terms[j], np.array([z]), np.array([1.0 - z]))[0]
    q = lambda z: ref_eval_terms(ref.comp_terms[j], np.array([1.0 - z]), np.array([z]))[0]
    return [z0 + np.arange(-8, 9) * np.spacing(z0) for z0 in (
        last_true(lambda z: p(z) < thresh, 2.0**-60, 0.5),
        last_true(lambda z: q(z) >= thresh, 0.5, 1.0 - 2.0**-53),
    )]


class TestLinearStep:
    @pytest.mark.parametrize("g", [
        ARIKAN, L3, kron_power(3), kron_power(4), BitMatrix.from_literal("001;010;101"),
    ])
    def test_band_edges_match_reference_steps(self, g):
        # p or q just below, at and just above 2^-SWITCH_BITS, on every
        # branch; "001;010;101" has a single first-power branch, where p is
        # the payload array itself
        polys = split_erasure_polynomials(g)
        ref = RefTables(polys)
        t = becpolar._EvolveTables(polys)
        thresh = 2.0**-SWITCH_BITS
        for j in range(g.ell):
            zp, zq = linear_boundary_inputs(j, ref)
            for side in (ref_eval_terms(ref.terms[j], zp, 1.0 - zp),
                         ref_eval_terms(ref.comp_terms[j], 1.0 - zq, zq)):
                assert (side < thresh).any() and (side >= thresh).any()
            z = np.concatenate((zp, zq))
            # all LINEAR (one group), then mixed with log-domain elements
            # (one group per class)
            mixed_m = np.concatenate((np.full(len(z), LINEAR), [NEGLOG, COMPLOG, NEGLOG]))
            mixed_p = np.concatenate((z, [45.0, 50.0, 300.0]))
            for mode, payload in ((np.full(len(z), LINEAR), z), (mixed_m, mixed_p)):
                mode = mode.astype(np.int8)
                want = ref_step_arrays(mode, payload, j, ref)
                got = (mode.copy(), payload.copy())
                becpolar._step(*got, np.full(len(mode), j), t)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_band_edges_reach_the_threshold_exactly(self):
        # p_1 = z^2 (Arikan) and p_1 = z ("001;010;101") hit 2^-SWITCH_BITS
        for g in (ARIKAN, BitMatrix.from_literal("001;010;101")):
            polys = split_erasure_polynomials(g)
            ref = RefTables(polys)
            z = linear_boundary_inputs(1, ref)[0]
            assert (ref_eval_terms(ref.terms[1], z, 1.0 - z) == 2.0**-SWITCH_BITS).any()


def all_class_states(rng, cls):
    """(mode, payload) arrays of the given step classes: LINEAR values
    across (0, 1), log-domain payloads in their bands below SATURATED and
    from SATURATED up."""
    u = rng.random(len(cls))
    payload = np.select(
        [cls == 0, cls < 3],
        [np.where(u < 0.5, 2.0 ** (-60 * u), 1.0 - 2.0 ** (-60 * u)),
         SWITCH_BITS + (SATURATED - SWITCH_BITS) * u],
        SATURATED * 2.0 ** (3 * u),
    )
    mode = np.where(cls < 3, cls, cls - 2).astype(np.int8)  # see _classes
    assert np.all(becpolar._classes(mode, payload) == cls)
    return mode, payload


GROUPED_KERNELS = [
    ARIKAN, L3, kron_power(3), kron_power(4), BitMatrix.from_literal("001;010;101"),
]


class TestGroupedStep:
    @pytest.mark.parametrize("g", GROUPED_KERNELS)
    def test_matches_each_element_stepped_alone(self, g):
        # every (branch, class) pair six times over, shuffled
        polys = split_erasure_polynomials(g)
        ref = RefTables(polys)
        t = becpolar._EvolveTables(polys)
        rng = np.random.default_rng(g.ell)
        digits, cls = np.divmod(rng.permutation(np.repeat(np.arange(5 * g.ell), 6)), 5)
        mode, payload = all_class_states(rng, cls)
        want = [ref_step_arrays(mode[i:i + 1], payload[i:i + 1], b, ref)
                for i, b in enumerate(digits.tolist())]
        becpolar._step(mode, payload, digits, t)
        assert mode.tobytes() == np.concatenate([m for m, _ in want]).tobytes()
        assert payload.tobytes() == np.concatenate([p for _, p in want]).tobytes()


class TestPointStep:
    @pytest.mark.parametrize("g", [*GROUPED_KERNELS, random_polarizing(26, 5)])
    def test_matches_the_array_step(self, g):
        # _step_point against the array engine's _step, element by element,
        # bit for bit: every class, log payloads below their band as well
        # (where 2^-x is far from 0 and its last bit reaches the bracket),
        # and LINEAR values at every branch's band edges, stepped by it
        polys = split_erasure_polynomials(g)
        t = becpolar._EvolveTables(polys)
        rng = np.random.default_rng(g.ell + 200)
        mode, payload = all_class_states(rng, rng.permutation(np.repeat(np.arange(5), 300)))
        digits = rng.integers(0, g.ell, len(mode))
        edges = [linear_boundary_inputs(j, RefTables(polys)) for j in range(g.ell)]
        edge_digits = [np.full(sum(map(len, z)), j) for j, z in enumerate(edges)]
        mode = np.concatenate((mode, np.repeat(np.int8([NEGLOG, COMPLOG]), 600),
                               np.full(sum(map(len, edge_digits)), LINEAR, dtype=np.int8)))
        payload = np.concatenate((payload, rng.uniform(0.5, SWITCH_BITS, 1200),
                                  *(x for z in edges for x in z)))
        digits = np.concatenate((digits, rng.integers(0, g.ell, 1200), *edge_digits))
        got = [becpolar._step_point(m, x, b, t)
               for m, x, b in zip(mode.tolist(), payload.tolist(), digits.tolist())]
        becpolar._step(mode, payload, digits, t)
        assert [m for m, _ in got] == mode.tolist()
        assert np.array([x for _, x in got]).tobytes() == payload.tobytes()


class TestExpand:
    @pytest.mark.parametrize("g", [*GROUPED_KERNELS, random_polarizing(26, 5)])
    def test_children_match_reference_steps(self, g):
        # parents of all five classes, shuffled, and LINEAR parents at every
        # branch's band edges (where a bare power of z, shared by the
        # branches, leaves the band): child j of parent v at v * ell + j is
        # branch j's reference step of v, element by element
        polys = split_erasure_polynomials(g)
        ref = RefTables(polys)
        t = becpolar._EvolveTables(polys)
        rng = np.random.default_rng(g.ell + 100)
        mode, payload = all_class_states(rng, rng.permutation(np.repeat(np.arange(5), 40)))
        edges = np.concatenate([z for j in range(g.ell) for z in linear_boundary_inputs(j, ref)])
        order = rng.permutation(len(mode) + len(edges))
        mode = np.concatenate((mode, np.full(len(edges), LINEAR, dtype=np.int8)))[order]
        payload = np.concatenate((payload, edges))[order]
        before = (mode.tobytes(), payload.tobytes())
        got_m, got_p = becpolar._expand(mode, payload, t)
        assert (mode.tobytes(), payload.tobytes()) == before  # parents untouched
        assert got_m.dtype == np.int8 and got_p.dtype == np.float64
        for j in range(g.ell):
            want_m, want_p = ref_step_arrays(mode, payload, j, ref)
            assert got_m[j::g.ell].tobytes() == want_m.astype(np.int8).tobytes()
            assert got_p[j::g.ell].tobytes() == want_p.tobytes()


class TestEnumerate:
    def test_tree_order_matches_evolve(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 8)
        polys = split_erasure_polynomials(ARIKAN)
        rng = np.random.default_rng(4)
        for i in rng.integers(1, 257, 12):
            digits = [(int(i) - 1) >> (7 - p) & 1 for p in range(8)]
            want = evolve_exact(0.5, digits, polys)
            got = cdf.value_at(int(i))
            assert got == want

    def test_tree_order_matches_evolve_l3(self, cdf_cache):
        cdf = cdf_cache("100;110;101", 0.4, 5)
        polys = split_erasure_polynomials(L3)
        for i in (1, 17, 100, 243):
            x = i - 1
            digits = []
            for p in range(5):
                digits.append(x // 3 ** (4 - p) % 3)
            assert cdf.value_at(i) == evolve_exact(0.4, digits, polys)

    def test_levels_shape_and_children(self):
        levels = enumerate_levels(ARIKAN, 0.5, 4)
        assert len(levels) == 5
        for d, (modes, payloads) in enumerate(levels):
            assert len(modes) == 2**d == len(payloads)
        last = enumerate_level(ARIKAN, 0.5, 4)
        assert np.array_equal(last._modes, levels[-1][0])
        assert np.array_equal(last._payloads, levels[-1][1])

    @pytest.mark.parametrize("g, eps, n", [
        (ARIKAN, 0.5, 20),
        (L3, 0.3, 12),
        (kron_power(3), 0.5, 6),
        (kron_power(4), 0.6, 4),
    ])
    def test_levels_match_reference_steps(self, g, eps, n):
        got = enumerate_levels(g, eps, n)
        want = ref_enumerate_levels(g, eps, n)
        assert len(got) == len(want)
        for (gm, gp), (wm, wp) in zip(got, want):
            assert np.array_equal(gm, wm)
            assert gp.tobytes() == wp.tobytes()

    def test_mean_martingale(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 10)
        assert abs(cdf.mean_z() - 0.5) < 1e-15
        cdf3 = cdf_cache("100;110;101", 0.4, 5)
        assert abs(cdf3.mean_z() - 0.4) < 1e-13

    def test_frozen_values_n10(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 10)
        assert cdf.value_at(1) == ExtendedUnitValue(COMPLOG, 1024.0)
        assert cdf.value_at(1024) == ExtendedUnitValue(NEGLOG, 1024.0)
        assert cdf.cdf_at_neglog(12.0) == Fraction(161, 512)

    def test_cdf_at_conventions(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 6)
        assert cdf.cdf_at(1.0) == Fraction(1, 1)
        assert cdf.cdf_at(0.0) == Fraction(0, 1)
        assert cdf.cdf_at(ExtendedUnitValue(NEGLOG, 64.0)) == cdf.cdf_at_neglog(64.0)
        # a str is not a number, though float() would read it
        for bad in (-0.1, "0.5", None, math.nan):
            with pytest.raises(DomainError):
                cdf.cdf_at(bad)
        # non-increasing in lambda; inclusive at exact values
        lams = [0.5, 1.0, 2.0, 64.0, 100.0]
        vals = [cdf.cdf_at_neglog(l) for l in lams]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # the all-bad-branch channel sits exactly at lam = 64
        assert cdf.cdf_at_neglog(64.0) >= Fraction(1, 64)

    def test_z_order_sorts_values(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 6)
        order = cdf.z_order()
        vals = [cdf.value_at(int(i) + 1) for i in order]
        for a, b in zip(vals, vals[1:]):
            assert a <= b
        # deterministic tie-break toward the smaller index
        again = cdf.z_order()
        assert np.array_equal(order, again)

    def test_z_order_is_sorted_once(self):
        cdf = enumerate_level(ARIKAN, 0.5, 5)
        order = cdf.z_order()
        assert cdf.z_order() is order
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 1

    def test_value_at_range(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 6)
        with pytest.raises(DomainError):
            cdf.value_at(0)
        with pytest.raises(DomainError):
            cdf.value_at(65)
        assert cdf.value_at(2.0) == cdf.value_at(2)
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                cdf.value_at(bad)

    def test_depth_domain(self):
        for bad in (-1, 2.5, 5.0000001, math.nan, math.inf, np.float64(0.5)):
            with pytest.raises(DomainError):
                enumerate_level(ARIKAN, 0.5, bad)
            with pytest.raises(DomainError):
                enumerate_levels(ARIKAN, 0.5, bad)
        # an integral float (or a bool) is stored as its int
        want = enumerate_level(ARIKAN, 0.5, 5)
        for n, as_int in ((5.0, 5), (np.float64(5.0), 5), (True, 1)):
            cdf = enumerate_level(ARIKAN, 0.5, n)
            assert type(cdf.n) is int and cdf.n == as_int
            assert len(enumerate_levels(ARIKAN, 0.5, n)) == as_int + 1
        assert enumerate_level(ARIKAN, 0.5, 5.0).neglogs_by_index.tobytes() == (
            want.neglogs_by_index.tobytes())

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_level(ARIKAN, 0.5, 23)
        with pytest.raises(BudgetExceeded):
            enumerate_level(ARIKAN, 0.5, 8, budget=100)
        for eps in (0.0, "0.5", None, math.nan):
            with pytest.raises(DomainError):
                enumerate_level(ARIKAN, eps, 4)
            with pytest.raises(DomainError):
                LevelWalk(ARIKAN, eps).cdf(2)

    def test_csv(self, cdf_cache):
        cdf = cdf_cache("10;11", 0.5, 6)
        lines = cdf.to_csv().strip().split("\n")
        assert lines[0] == "lambda"
        assert len(lines) == 65
        got = [float(x) for x in lines[1:]]
        assert got == sorted(got)

    @pytest.mark.parametrize("block", [3, 4096])
    def test_csv_runs_print_each_value(self, block, cdf_cache, monkeypatch):
        # repeated values print once per entry; -0 and 0 compare equal but
        # print differently, so they are separate runs
        monkeypatch.setattr(becpolar, "_CSV_BLOCK", block)
        # (the odd level is NEGLOG payloads, which are lambda unchanged)
        lams = np.array([-0.0, -0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1 / 3, math.inf,
                         math.inf, math.nan])
        odd = LevelCdf(n=1, ell=11, eps=0.5, source="montecarlo",
                       _modes=np.full(len(lams), NEGLOG, dtype=np.int8), _payloads=lams)
        assert odd.neglogs_by_index.tobytes() == lams.tobytes()
        cdfs = [odd, cdf_cache("10;11", 0.5, 10)]
        # sampled levels: most values distinct, so some blocks have no run
        for g, n, seed in ((ARIKAN, 50, 42), (L3, 30, 43)):
            level = level_from_samples(sample_paths(g, 0.5, n, 10000, seed), g, 0.5, n, seed)
            blocks = [level.sorted_neglogs[lo:lo + block]
                      for lo in range(0, level.size, block)]
            assert any(len(np.unique(b)) == len(b) > 1 for b in blocks)
            cdfs.append(level)
        for cdf in cdfs:
            want = "".join(f"{fmt_real(v)}\n" for v in cdf.sorted_neglogs)
            assert cdf.to_csv() == "lambda\n" + want


def walked(depths) -> int:
    """Levels a LevelWalk expands to serve ``depths`` in order: a depth at or
    past the walk's level continues from it, one behind restarts at the root."""
    count, at = 0, None
    for n in depths:
        count += n if at is None or n < at else n - at
        at = n
    return count


def assert_same_level(got: LevelCdf, want: LevelCdf):
    assert (got.n, got.ell, got.eps, got.source) == (want.n, want.ell, want.eps, want.source)
    for name in ("neglogs_by_index", "sorted_neglogs", "_modes", "_payloads"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


R5 = random_polarizing(5, 5)


class TestLevelWalk:
    """One walk serves a depth sweep: every request gives enumerate_level's
    level bit for bit, and its checks run when the request is made."""

    @pytest.mark.parametrize("g, depths", [
        (ARIKAN, (12, 14)), (ARIKAN, (14, 12)), (ARIKAN, (10, 14, 10)),
        (ARIKAN, (0, 3, 3, 2, 0, 5)),
        (L3, (8, 10)), (L3, (10, 8)), (L3, (9, 10, 9)),
        (R5, (4, 6)), (R5, (6, 4)), (R5, (5, 6, 5)),
    ])
    def test_requests_match_enumerate_level(self, g, depths, monkeypatch):
        wants = [enumerate_level(g, 0.3, n) for n in depths]
        expanded = []
        expand = becpolar._expand

        def counting_expand(modes, payloads, t):
            expanded.append(len(modes))
            return expand(modes, payloads, t)

        monkeypatch.setattr(becpolar, "_expand", counting_expand)
        walk = LevelWalk(g, 0.3)
        for n, want in zip(depths, wants):
            got = walk.cdf(n)
            assert_same_level(got, want)
            # the walk holds the level it stands on and nothing else
            assert walk.depth == n
            assert walk._level[0] is got._modes and walk._level[1] is got._payloads
        assert len(expanded) == walked(depths)

    def test_checks_run_when_asked(self):
        def message(call, n):
            with pytest.raises((DomainError, BudgetExceeded)) as exc:
                call(n)
            return type(exc.value), str(exc.value)

        walk = LevelWalk(ARIKAN, 0.5, budget=2**10)
        assert_same_level(walk.cdf(4), enumerate_level(ARIKAN, 0.5, 4))
        one_depth = lambda n: enumerate_level(ARIKAN, 0.5, n, budget=2**10)
        for bad in (11, 30, -1, 2.5, math.nan, 1000):
            assert message(walk.cdf, bad) == message(one_depth, bad)
            assert message(walk.check, bad) == message(one_depth, bad)
            assert walk.depth == 4  # a refused request walks nothing
        assert message(walk.cdf, 11) == (
            BudgetExceeded, "2^11 exceeds the enumeration budget 1024")
        assert walk.check(10.0) == 10 and type(walk.check(10.0)) is int
        assert_same_level(walk.cdf(6), enumerate_level(ARIKAN, 0.5, 6))
        # depth before eps before budget before the kernel, as enumerate_level
        bad_eps = LevelWalk(ARIKAN, 0.0, budget=4)
        assert message(bad_eps.cdf, 1000)[1].startswith("requested depth")
        assert message(bad_eps.cdf, 8)[1].startswith("erasure probability")
        walk = LevelWalk(BitMatrix.from_literal("10;01"), 0.5, budget=4)
        assert message(walk.cdf, 3)[0] is BudgetExceeded
        with pytest.raises(NotPolarizing):
            walk.cdf(2)


def assert_paths_match_evolve(g, eps, n, count, seed):
    """Every sampled state equals evolve_exact on that path's stream digits."""
    polys = split_erasure_polynomials(g)
    got = sample_paths(g, eps, n, count, seed)
    digits = path_digit_matrix(seed, count, n, g.ell)
    for p in range(count):
        z = evolve_exact(eps, digits[p].tolist(), polys)
        assert (int(got["mode"][p]), float(got["payload"][p])) == (z.mode, z.payload)


def classes_per_level(g, eps, n, count, seed):
    """Number of step classes (mode, and saturated or not) held by the paths
    entering each level 0..n-1."""
    out = []
    for d in range(n):
        s = sample_paths_masked(g, eps, d, count, seed)
        out.append(len(np.unique(s["mode"] + 2 * (s["payload"] >= SATURATED))))
    return out


class TestSampling:
    @pytest.mark.parametrize("g, eps, n, count, seed", [
        (ARIKAN, 0.5, 50, 3000, 42),
        (L3, 0.5, 30, 3000, 43),
        (random_polarizing(21, 4), 0.5, 14, 2000, 1),
        (random_polarizing(22, 5), 0.4, 12, 2000, 2),
        (random_polarizing(23, 6), 0.6, 10, 2000, 3),
        (kron_power(3), 0.5, 8, 2000, 4),
        (L3, 0.3, 6, 0, 5),
        (L3, 0.3, 6, 1, 6),
        (ARIKAN, 0.5, 0, 7, 7),
        (ARIKAN, 1e-13, 20, 500, 8),  # root in NEGLOG
        (L3, 1 - 1e-13, 20, 500, 9),  # root in COMPLOG
        (ARIKAN, 0.5, 64, 2000, 10),
        (kron_power(4), 0.5, 8, 1000, 11),
        (random_polarizing(24, 6), 0.5, 12, 1000, 12),
        (kron_power(4), 1e-13, 6, 500, 13),
        (random_polarizing(24, 6), 1 - 1e-13, 10, 500, 14),
        # the exact prefix tree's depth k (ell^k <= count) at its edges
        (ARIKAN, 0.5, 20, 4096, 15),  # count = ell^12
        (ARIKAN, 0.5, 20, 4095, 16),
        (ARIKAN, 0.5, 20, 4097, 17),
        (L3, 0.5, 10, 2, 18),  # count < ell: k = 0
        (kron_power(3), 0.5, 6, 7, 19),
        (L3, 0.5, 4, 2000, 20),  # k = n: the whole sample is the tree's
        (ARIKAN, 0.5, 5, 1000, 21),
        (kron_power(4), 0.5, 6, 300, 22),
        (random_polarizing(25, 5), 1e-13, 12, 700, 23),  # root in NEGLOG
        # deep: most paths join the absorbed tail, on either side
        (ARIKAN, 1e-3, 200, 2000, 24),
        (ARIKAN, 0.999, 200, 2000, 25),
        (L3, 0.5, 60, 2000, 26),
        (kron_power(3), 0.5, 20, 1000, 27),
        (random_polarizing(25, 5), 0.5, 40, 1000, 28),
    ])
    def test_matches_masked_oracle(self, g, eps, n, count, seed):
        got = sample_paths(g, eps, n, count, seed)
        want = sample_paths_masked(g, eps, n, count, seed)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_prefix_tree_saves_steps_and_memory(self, monkeypatch):
        # 100k Arikan paths share a 2^16-entry tree: _expand takes the
        # sum_{i<16} 2^i parents of levels 0..15, and of the 34 levels below
        # it, whose 3.4M element-steps are about 91% saturated, the grouped
        # _step sees only the paths not yet absorbed; no count-sized scratch
        # outlives the prefix
        expanded, stepped = [], []
        expand, step = becpolar._expand, becpolar._step

        def counting_expand(modes, payloads, t):
            expanded.append(len(modes))
            return expand(modes, payloads, t)

        def counting_step(modes, payloads, digits, t):
            stepped.append(len(digits))
            step(modes, payloads, digits, t)

        monkeypatch.setattr(becpolar, "_expand", counting_expand)
        monkeypatch.setattr(becpolar, "_step", counting_step)
        tracemalloc.start()
        try:
            sample_paths(ARIKAN, 0.5, 50, 100000, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expanded == [2**i for i in range(16)]
        assert len(stepped) == 34
        assert sum(stepped) <= 500000
        assert peak <= 5.5 * 2**20

    @pytest.mark.parametrize("name", SATURATED_KERNELS)
    def test_absorbed_payloads_stay_saturated(self, name):
        # the worst case of the absorption bound: lead 1 and the largest c.
        # A payload at the threshold with r levels left, stepped r times,
        # stays >= SATURATED; r up to the deepest level _check_depth admits
        t = becpolar._EvolveTables(split_erasure_polynomials(SATURATED_KERNELS[name]))
        c = t.c.max()
        depth = int(900 / math.log2(t.ell))
        r = np.arange(1, depth + 1)
        x = np.array([becpolar._absorb_threshold(t, int(k)) for k in r])
        for done in range(depth):
            live = r > done
            assert np.all(x[live] >= SATURATED)
            x[live] = x[live] * 1.0 - c
        assert np.all(x >= SATURATED)

    def test_oracle_cases_cross_every_band(self):
        # some level of the deep oracle cases steps all five classes at once:
        # the three mode bands and both saturated log-domain classes
        assert 5 in classes_per_level(ARIKAN, 0.5, 50, 3000, 42)
        assert 5 in classes_per_level(L3, 0.5, 30, 3000, 43)
        assert 5 in classes_per_level(kron_power(3), 0.5, 8, 2000, 4)
        assert 5 in classes_per_level(kron_power(4), 0.5, 8, 1000, 11)
        assert 5 in classes_per_level(random_polarizing(24, 6), 0.5, 12, 1000, 12)
        roots = [sample_paths_masked(g, eps, 0, 1, 0)["mode"][0]
                 for g, eps in ((ARIKAN, 1e-13), (L3, 1 - 1e-13))]
        assert roots == [NEGLOG, COMPLOG]

    def test_digits_come_from_rng_streams(self):
        assert_paths_match_evolve(ARIKAN, 0.5, 12, 25, seed=7)
        assert_paths_match_evolve(ARIKAN, 0.5, 40, 60, seed=42)

    def test_z_final_matches_evolve(self):
        assert_paths_match_evolve(L3, 0.3, 9, 40, seed=3)
        assert_paths_match_evolve(L3, 0.5, 30, 60, seed=43)
        assert_paths_match_evolve(random_polarizing(17, 5), 0.5, 8, 50, seed=5)
        assert_paths_match_evolve(random_polarizing(18, 6), 0.4, 5, 50, seed=6)
        # at the edges of the sampler's exact prefix tree (ell^k <= count)
        assert_paths_match_evolve(ARIKAN, 0.5, 14, 16, seed=1)
        assert_paths_match_evolve(ARIKAN, 0.5, 14, 15, seed=2)
        assert_paths_match_evolve(L3, 0.5, 2, 40, seed=3)  # k = n
        assert_paths_match_evolve(random_polarizing(25, 5), 1e-13, 8, 30, seed=5)

    def test_result_layout(self):
        for n, count in ((6, 0), (6, 1), (6, 17), (0, 5), (0, 0)):
            got = sample_paths(L3, 0.3, n, count, seed=2)
            assert len(got) == count
            assert got["mode"].dtype == np.int8
            assert got["payload"].dtype == np.float64
        root = ExtendedUnitValue.from_float(0.3)
        got = sample_paths(L3, 0.3, 0, 5, seed=2)
        assert np.all(got["mode"] == root.mode)
        assert np.all(got["payload"] == root.payload)

    def test_deterministic(self):
        a = sample_paths(ARIKAN, 0.5, 10, 50, seed=11)
        b = sample_paths(ARIKAN, 0.5, 10, 50, seed=11)
        assert np.array_equal(a, b)
        c = sample_paths(ARIKAN, 0.5, 10, 50, seed=12)
        assert not np.array_equal(a, c)

    def test_sampled_lambda_matches_neglog2(self):
        # deep enough that every mode band holds paths
        samples = sample_paths(L3, 0.5, 30, 3000, seed=43)
        assert set(np.unique(samples["mode"])) == {LINEAR, NEGLOG, COMPLOG}
        emp = level_from_samples(samples, L3, 0.5, 30, seed=43)
        want = [ExtendedUnitValue(int(m), float(p)).neglog2 for m, p in samples]
        # the level keeps its own copy: a later edit of the samples is not seen
        samples["payload"] = 0.0
        np.testing.assert_array_max_ulp(emp.neglogs_by_index, np.array(want), maxulp=2)

    def test_monte_carlo_matches_exact_cdf(self, cdf_cache):
        # empirical F at several thresholds within 99.9% Wilson bands
        exact = cdf_cache("10;11", 0.5, 16)
        count = 20000
        samples = sample_paths(ARIKAN, 0.5, 16, count, seed=42)
        emp = level_from_samples(samples, ARIKAN, 0.5, 16, seed=42)
        zcrit = 3.29
        for lam in (4.0, 12.0, 64.0, 1000.0):
            p = float(exact.cdf_at_neglog(lam))
            phat = float(emp.cdf_at_neglog(lam))
            half = zcrit * math.sqrt(p * (1 - p) / count) + 1 / count
            assert abs(phat - p) <= half

    def test_empirical_level_restrictions(self):
        samples = sample_paths(ARIKAN, 0.5, 8, 10, seed=1)
        emp = level_from_samples(samples, ARIKAN, 0.5, 8, seed=1)
        assert not emp.is_exact
        assert emp.source == "montecarlo"
        assert emp.sample_seed == 1
        with pytest.raises(RequiresExactCdf):
            emp.value_at(1)
        with pytest.raises(RequiresExactCdf):
            emp.z_order()
        assert emp.mean_z() > 0.0

    def test_empty_sample_is_rejected(self):
        samples = sample_paths(ARIKAN, 0.5, 8, 0, seed=1)
        assert len(samples) == 0
        with pytest.raises(DomainError):
            level_from_samples(samples, ARIKAN, 0.5, 8, seed=1)

    def test_domain(self):
        for eps in (1.0, "0.5", None, math.nan):
            with pytest.raises(DomainError):
                sample_paths(ARIKAN, eps, 4, 2, seed=0)
        with pytest.raises(DomainError):
            sample_paths(ARIKAN, 0.5, 4, -1, seed=0)
        for bad in (2.5, math.nan, math.inf, np.float64(0.5)):
            with pytest.raises(DomainError):
                sample_paths(ARIKAN, 0.5, 4, bad, seed=0)
            with pytest.raises(DomainError):
                sample_paths(ARIKAN, 0.5, bad, 3, seed=0)
        with pytest.raises(DomainError):
            sample_paths(ARIKAN, 0.5, -1, 3, seed=0)
        # an integral float is taken as its int
        want = sample_paths(ARIKAN, 0.5, 5, 3, seed=0)
        for n, count in ((5.0, 3), (5, 3.0), (np.float64(5.0), np.float64(3.0))):
            assert sample_paths(ARIKAN, 0.5, n, count, seed=0).tobytes() == want.tobytes()
        # so is an integral-float seed, as for simulate and transmit_bec
        want = sample_paths(ARIKAN, 0.5, 6, 5, seed=1).tobytes()
        for seed in (1.0, np.float64(1.0), np.int64(1), True):
            assert sample_paths(ARIKAN, 0.5, 6, 5, seed=seed).tobytes() == want
        for bad in (1.5, math.nan, math.inf, np.float64(1.5)):
            with pytest.raises(DomainError):
                sample_paths(ARIKAN, 0.5, 6, 5, seed=bad)
