import functools
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from polarkit import cli
from polarkit.becpolar import enumerate_level, level_from_samples, sample_paths
from polarkit.construct import (
    SelectionBounds,
    SelectionSet,
    _digit_table,
    _row_weight_table,
    default_prefix_depth,
    digit_reverse,
    hybrid_selection,
    hybrid_selection_recursive,
    overlap_fraction,
    polar_selection,
    rm_selection,
    selection_bounds,
)
from polarkit.errors import (
    DomainError,
    IndexOutOfRange,
    MismatchedLevel,
    RequiresExactCdf,
)
from polarkit.extval import LINEAR, NEGLOG
from polarkit.gf2kernel import BitMatrix, kernel_profile
from polarkit.asymptotics import q_inverse

from conftest import (
    ARIKAN,
    L3,
    check_min_weight_row,
    random_polarizing,
    selection_report_json,
)

# row weights 1, 2, 2, 4, 5: many indices share a weight, and float log2
# sums of the same product taken in different digit orders differ by ulps
ELL5 = "10000;11000;10100;11110;11111"



def polar_order_oracle(cdf):
    """Total order by exact Z ascending, ties toward the smaller index."""

    def cmp(i, j):
        a, b = cdf.value_at(i), cdf.value_at(j)
        if a < b:
            return -1
        if b < a:
            return 1
        return i - j

    return sorted(range(1, cdf.size + 1), key=functools.cmp_to_key(cmp))


def kron_row_weights(literal: str, n: int) -> np.ndarray:
    g = np.array(BitMatrix.from_literal(literal).as_lists(), dtype=np.int64)
    acc = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        acc = np.kron(acc, g)
    return acc.sum(axis=1)


def digit_oracle(values, n, lo, hi, op):
    """values[b_p] reduced by op over positions lo..hi-1, index by index."""
    ell = len(values)
    idx = np.arange(ell**n)
    out = np.full(ell**n, op.identity, dtype=values.dtype)
    for pos in range(lo, hi):
        out = op(out, values[(idx // ell ** (n - 1 - pos)) % ell])
    return out


def weight_oracle(profile, n):
    """Row weight of every index as a Python int product over its digits."""
    ell = profile.ell
    out = []
    for x in range(ell**n):
        prod = 1
        for _ in range(n):
            prod *= profile.row_weights[x % ell]
            x //= ell
        out.append(prod)
    return np.array(out, dtype=np.int64)


def mc_cdf(n=6, count=20):
    g = BitMatrix.from_literal(ARIKAN)
    samples = sample_paths(g, 0.5, n, count, seed=5)
    return level_from_samples(samples, g, 0.5, n, seed=5)


class TestDigitReverse:
    def test_known_values(self):
        assert digit_reverse(1, 2, 3) == 1
        assert digit_reverse(2, 2, 3) == 5  # 001 -> 100
        assert digit_reverse(8, 2, 3) == 8
        assert digit_reverse(2, 3, 2) == 4  # 01 -> 10 base 3

    def test_involution(self):
        for ell, n in ((2, 4), (3, 3)):
            for i in range(1, ell**n + 1):
                assert digit_reverse(digit_reverse(i, ell, n), ell, n) == i

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            digit_reverse(0, 2, 3)
        with pytest.raises(IndexOutOfRange):
            digit_reverse(9, 2, 3)

    def test_integral_indices_only(self):
        # an integral float is the int; checked before any digit arithmetic
        assert digit_reverse(2.0, 2, 3) == 5
        assert type(digit_reverse(2.0, 2, 3)) is int
        assert digit_reverse(np.int64(2), 3, 2) == 4
        for i in (1.5, 8.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                digit_reverse(i, 2, 3)
        # so are the base and the width
        for ell, n in ((2.5, 3), (2, 2.5), (0, 3), (2, -1), (2, math.inf)):
            with pytest.raises(DomainError):
                digit_reverse(2, ell, n)
        assert digit_reverse(2, 2.0, np.float64(3.0)) == 5
        assert type(digit_reverse(2, 2.0, 3.0)) is int

    def test_numpy_non_finite_index_is_a_domain_error(self):
        # numpy warns on inf % 1, so the check must not take the remainder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in (np.float64(np.inf), np.float64(-np.inf), np.float64(np.nan)):
                with pytest.raises(DomainError):
                    digit_reverse(i, 2, 3)
            assert digit_reverse(np.float64(2.0), 2, 3) == 5
            with pytest.raises(IndexOutOfRange):
                digit_reverse(2**1100, 2, 3)


class TestDigitTable:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5])
    def test_matches_per_index_digits(self, ell):
        rng = np.random.default_rng(ell)
        reals = rng.normal(size=ell)
        ints = rng.integers(1, ell + 1, size=ell)
        for n in range(7 if ell < 5 else 6):
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    got = _digit_table(reals, n, lo, hi)
                    want = digit_oracle(reals, n, lo, hi, np.add)
                    assert np.array_equal(got.view(np.int64),
                                          want.view(np.int64))
                    got = _digit_table(ints, n, lo, hi, op=np.multiply)
                    assert got.dtype == np.int64
                    assert np.array_equal(
                        got, digit_oracle(ints, n, lo, hi, np.multiply))
                    assert got.flags.writeable


class TestSelectionSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            SelectionSet(n=2, ell=2, rate=0.5, indices=np.array([1]), rule="x")
        with pytest.raises(DomainError):
            SelectionSet(n=2, ell=2, rate=0.5, indices=np.array([3, 1]),
                         rule="x")
        with pytest.raises(DomainError):
            SelectionSet(n=2, ell=2, rate=0.5, indices=np.array([2, 2]),
                         rule="x")
        with pytest.raises(DomainError):
            SelectionSet(n=2, ell=2, rate=0.5, indices=np.array([1, 5]),
                         rule="x")
        # non-integral indices are rejected, not truncated to [1, 2]
        for bad in ([1.7, 2.2], [1.0, 2.5], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(DomainError):
                SelectionSet(n=2, ell=2, rate=0.5, indices=bad, rule="x")
        for rate in (math.nan, -0.5, 1.5):
            with pytest.raises(DomainError):
                SelectionSet(n=2, ell=2, rate=rate, indices=[1, 4], rule="x")
        # integral floats are indices like any other
        ok = SelectionSet(n=2, ell=2, rate=0.5, indices=[1.0, 4.0], rule="x")
        assert ok.indices.dtype == np.int64 and ok.indices.tolist() == [1, 4]
        # and levels: 2^2.5 channels would admit a fractional level
        for n, ell in ((2.5, 2), (-1, 2), (2, 2.5), (2, 0), (math.nan, 2)):
            with pytest.raises(DomainError):
                SelectionSet(n=n, ell=ell, rate=0.5, indices=[1, 2], rule="x")
        ok = SelectionSet(n=2.0, ell=np.float64(2.0), rate=0.5, indices=[1, 4], rule="x")
        assert type(ok.n) is type(ok.ell) is int

    def test_frozen_storage(self):
        s = SelectionSet(n=2, ell=2, rate=0.5, indices=np.array([1, 4]),
                         rule="x")
        assert s.size == 2
        assert not s.indices.flags.writeable
        assert s.to_csv() == "index\n1\n4\n"
        empty = SelectionSet(n=1, ell=2, rate=0.25, indices=np.array([]),
                             rule="x")
        assert empty.to_csv() == "index\n"


class TestPolarSelection:
    @pytest.mark.parametrize("literal,eps,n,rate",
                             [(ARIKAN, 0.5, 8, 0.25), (ARIKAN, 0.5, 8, 0.5),
                              (L3, 0.3, 4, 0.4)])
    def test_matches_comparison_sort(self, cdf_cache, literal, eps, n, rate):
        cdf = cdf_cache(literal, eps, n)
        sel = polar_selection(cdf, rate)
        order = polar_order_oracle(cdf)
        k = math.floor(cdf.size * rate)
        assert np.array_equal(sel.indices, np.sort(order[:k]))
        assert sel.rule == "polar" and sel.metadata["eps"] == eps

    def test_nested_rates(self, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        small = polar_selection(cdf, 0.25)
        big = polar_selection(cdf, 0.5)
        assert np.isin(small.indices, big.indices).all()

    def test_requires_exact(self):
        with pytest.raises(RequiresExactCdf):
            polar_selection(mc_cdf(), 0.5)


class TestRmSelection:
    @pytest.mark.parametrize("literal,n,rate",
                             [(ARIKAN, 4, 0.5), (ARIKAN, 5, 0.3), (L3, 3, 0.4)])
    def test_matches_kronecker_oracle(self, literal, n, rate):
        g = BitMatrix.from_literal(literal)
        wts = kron_row_weights(literal, n)
        k = math.floor(len(wts) * rate)
        order = np.lexsort((np.arange(len(wts)), -wts))
        sel = rm_selection(g, n, rate)
        assert np.array_equal(sel.indices, np.sort(order[:k]) + 1)

    def test_weights_multiply_over_digits(self, arikan):
        wts = kron_row_weights(ARIKAN, 6)
        for i in (0, 13, 37, 63):
            prod = 1
            for pos in range(6):
                prod *= arikan.row_weights[(i >> (5 - pos)) & 1]
            assert wts[i] == prod

    def test_ties_toward_smaller_index(self):
        g = BitMatrix.from_literal(ARIKAN)
        sel = rm_selection(g, 3, 3 / 8)
        # weights desc: 8 at index 8, then three 4s at 4,6,7; keep 4 and 6
        assert sel.indices.tolist() == [4, 6, 8]

    @pytest.mark.parametrize("ell,n", [(3, 6), (4, 5), (5, 4), (6, 4)])
    def test_exact_ranking_on_random_kernels(self, ell, n):
        rng = np.random.default_rng(100 + ell)
        for _ in range(3):
            prof = random_polarizing(rng, ell)
            wts = weight_oracle(prof, n)
            order = np.lexsort((np.arange(len(wts)), -wts))
            for rate in (0.1, 0.3, 0.5):
                k = math.floor(len(wts) * rate)
                sel = rm_selection(prof.kernel, n, rate)
                assert np.array_equal(sel.indices, np.sort(order[:k]) + 1)

    def test_equal_weights_tie_by_index(self):
        g = BitMatrix.from_literal(ELL5)
        wts = weight_oracle(kernel_profile(g), 5)
        order = np.lexsort((np.arange(len(wts)), -wts))
        sel = rm_selection(g, 5, 0.25)
        assert np.array_equal(sel.indices, np.sort(order[:781]) + 1)
        # both weigh 200; a float log2 ranking picked the larger index
        assert wts[2389] == wts[2740] == 200
        assert 2390 in sel.indices and 2741 not in sel.indices

    def test_depth_domain(self):
        g = BitMatrix.from_literal(ARIKAN)
        for n in (2.5, -1, math.nan, math.inf):
            with pytest.raises(DomainError):
                rm_selection(g, n, 0.5)
        sel = rm_selection(g, 3.0, 0.5)
        assert type(sel.n) is int
        assert np.array_equal(sel.indices, rm_selection(g, 3, 0.5).indices)

    def test_row_weight_table_built_once_per_depth(self, capsys):
        # selection-compare ranks RM twice and bounds three rules per depth
        _row_weight_table.cache_clear()
        assert cli.main(["selection-compare", "--kernel", L3, "--n", "4,5"]) == 0
        capsys.readouterr()
        info = _row_weight_table.cache_info()
        assert (info.misses, info.hits) == (2, 8)
        table = _row_weight_table((1, 2, 2), 5)
        assert not table.flags.writeable
        assert np.array_equal(table, weight_oracle(kernel_profile(BitMatrix.from_literal(L3)), 5))


class TestDefaultPrefixDepth:
    def test_values(self, arikan, l3prof):
        assert default_prefix_depth(16, 0.5, arikan) == 10
        assert default_prefix_depth(4, 0.25, arikan) == 4  # clamped to n
        assert default_prefix_depth(2, 5.0, arikan) == 1  # clamped up
        assert default_prefix_depth(9, 0.4, l3prof) == 9

    def test_domain(self, arikan):
        with pytest.raises(DomainError):
            default_prefix_depth(16, 0.0, arikan)
        for n, beta in ((0, 0.5), (16, math.nan), (16, math.inf), (2.5, 0.5),
                        (math.inf, 0.5), (math.nan, 0.5)):
            with pytest.raises(DomainError):
                default_prefix_depth(n, beta, arikan)
        got = default_prefix_depth(16.0, 0.5, arikan)
        assert type(got) is int and got == default_prefix_depth(16, 0.5, arikan)

    def test_subnormal_beta(self, arikan):
        # (log2 n + log2 log2 c)/beta overflows to inf: the depth is n
        for beta in (1e-320, 5e-324):
            assert default_prefix_depth(5, beta, arikan) == 5


class TestHybridSelection:
    def test_full_depth_schedule_is_polar(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf = cdf_cache(ARIKAN, 0.5, 8)
        for rate in (0.25, 0.5):
            hyb = hybrid_selection_recursive(g, 8, rate, [8], 0.3, 0.0, 0.0,
                                             cdf_prefix=cdf)
            pol = polar_selection(cdf, rate)
            assert np.array_equal(hyb.indices, pol.indices)

    @pytest.mark.parametrize("literal,n", [(ARIKAN, 6), (L3, 4)])
    def test_channel_independent_case_is_rm(self, literal, n):
        # partial distances equal row weights for both kernels, so the
        # m = 0, t -> -inf rule degenerates to the weight ranking
        g = BitMatrix.from_literal(literal)
        hyb = hybrid_selection(None, g, n, 0.4, 0.25, -100.0)
        assert np.array_equal(hyb.indices, rm_selection(g, n, 0.4).indices)
        assert hyb.metadata["shortfall"] == 0

    def test_wrapper_matches_recursive(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf4 = cdf_cache(ARIKAN, 0.5, 4)
        a = hybrid_selection(cdf4, g, 8, 0.3, 0.3, 1.0)
        b = hybrid_selection_recursive(g, 8, 0.3, [4], 0.3, 0.0, 1.0,
                                       cdf_prefix=cdf4)
        assert np.array_equal(a.indices, b.indices)
        assert a.metadata == b.metadata

    def test_segment_conditions_hold_on_chosen(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf2 = cdf_cache(ARIKAN, 0.5, 2)
        # 16 indices satisfy all three conditions here; keep k below that
        n, rate, beta = 8, 0.05, 0.3
        sel = hybrid_selection_recursive(g, n, rate, [2, 5], beta, 0.0, 0.0,
                                         cdf_prefix=cdf2)
        assert sel.metadata["shortfall"] == 0
        for i in sel.indices:
            x = int(i) - 1
            bits = [(x >> (n - 1 - p)) & 1 for p in range(n)]
            lam_pref = cdf2.neglogs_by_index[x >> 6]
            assert lam_pref > 2.0 ** (beta * 2)
            assert sum(bits[2:5]) >= 1.5  # 3 positions * (E' - 0)
            assert sum(bits[5:]) >= 1.5

    def test_chosen_are_best_candidates(self, cdf_cache):
        # independent recomputation of the candidate set and its ranking
        g = BitMatrix.from_literal(ARIKAN)
        cdf2 = cdf_cache(ARIKAN, 0.5, 2)
        n, rate, beta = 8, 0.05, 0.3
        sel = hybrid_selection_recursive(g, n, rate, [2, 5], beta, 0.0, 0.0,
                                         cdf_prefix=cdf2)
        pref_order = polar_order_oracle(cdf2)
        pref_rank = {p - 1: r for r, p in enumerate(pref_order)}
        cand = []
        for x in range(2**n):
            bits = [(x >> (n - 1 - p)) & 1 for p in range(n)]
            if (cdf2.neglogs_by_index[x >> 6] > 2.0 ** (beta * 2)
                    and sum(bits[2:5]) >= 1.5 and sum(bits[5:]) >= 1.5):
                cand.append((-sum(bits[2:]), pref_rank[x >> 6], x))
        cand.sort()
        k = math.floor(2**n * rate)
        want = sorted(x + 1 for _, _, x in cand[:k])
        assert sel.indices.tolist() == want

    def test_shortfall_pads_from_pad_cdf(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf8 = cdf_cache(ARIKAN, 0.5, 8)
        sel = hybrid_selection(None, g, 8, 0.25, 0.3, 1000.0, pad_cdf=cdf8)
        k = math.floor(256 * 0.25)
        assert sel.metadata["shortfall"] == k
        assert np.array_equal(sel.indices, polar_selection(cdf8, 0.25).indices)

    def test_shortfall_pads_by_scores(self):
        g = BitMatrix.from_literal(ARIKAN)
        sel = hybrid_selection(None, g, 8, 0.25, 0.3, 1000.0)
        assert sel.metadata["shortfall"] == 64
        assert np.array_equal(sel.indices, rm_selection(g, 8, 0.25).indices)

    def test_schedule_validation(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf4 = cdf_cache(ARIKAN, 0.5, 4)
        with pytest.raises(DomainError):
            hybrid_selection_recursive(g, 8, 0.3, [], 0.3, 0.0, 0.0)
        with pytest.raises(DomainError):
            hybrid_selection_recursive(g, 8, 0.3, [4, 4], 0.3, 0.0, 0.0,
                                       cdf_prefix=cdf4)
        with pytest.raises(DomainError):
            hybrid_selection_recursive(g, 8, 0.3, [4, 9], 0.3, 0.0, 0.0,
                                       cdf_prefix=cdf4)
        with pytest.raises(DomainError):
            hybrid_selection_recursive(g, 8, 0.3, [4], 0.3, 0.0, 0.0)
        with pytest.raises(MismatchedLevel):
            hybrid_selection_recursive(g, 8, 0.3, [5], 0.3, 0.0, 0.0,
                                       cdf_prefix=cdf4)
        with pytest.raises(MismatchedLevel):
            hybrid_selection_recursive(g, 8, 0.3, [0], 0.3, 0.0, 0.0,
                                       cdf_prefix=cdf4)
        # fractional breakpoints and depths are refused, not truncated
        for n, schedule in ((8, [1.7]), (8, [0, 4.5]), (8, [math.nan]), (8.5, [0])):
            with pytest.raises(DomainError):
                hybrid_selection_recursive(g, n, 0.3, schedule, 0.3, 0.0, 0.0)
        got = hybrid_selection_recursive(g, 8.0, 0.3, iter([0.0, 4.0]), 0.3, 0.0, 0.0)
        want = hybrid_selection_recursive(g, 8, 0.3, [0, 4], 0.3, 0.0, 0.0)
        assert np.array_equal(got.indices, want.indices)
        assert got.metadata == want.metadata and type(got.n) is int

    def test_parameter_domain(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf4 = cdf_cache(ARIKAN, 0.5, 4)
        for beta in (0.0, 0.5, 1.0):  # e2 = 0.5 for this kernel
            with pytest.raises(DomainError):
                hybrid_selection(cdf4, g, 8, 0.3, beta, 0.0)
        with pytest.raises(DomainError):
            hybrid_selection(cdf4, g, 8, 0.3, 0.3, math.inf)

    def test_exactness_requirements(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        emp = mc_cdf(n=4)
        with pytest.raises(RequiresExactCdf):
            hybrid_selection(emp, g, 8, 0.3, 0.3, 0.0)
        with pytest.raises(RequiresExactCdf):
            hybrid_selection(None, g, 6, 0.3, 0.3, 1000.0, pad_cdf=mc_cdf())
        with pytest.raises(MismatchedLevel):
            hybrid_selection(None, g, 8, 0.3, 0.3, 1000.0,
                             pad_cdf=cdf_cache(ARIKAN, 0.5, 6))

    def test_prefix_past_the_default_budget(self):
        # the enumeration budget is the caller's: a prefix enumerated under a
        # budget above the default 2^22 is taken as it is
        g = BitMatrix.from_literal(L3)
        assert 3**14 > 2**22
        cdf = enumerate_level(g, 0.5, 14, budget=3**14)
        hyb = hybrid_selection(cdf, g, 14, 0.01, 0.6, 0.0)
        assert hyb.metadata["schedule"] == (14,)
        assert np.array_equal(hyb.indices, polar_selection(cdf, 0.01).indices)

    def test_prefix_budget(self):
        g = BitMatrix.from_literal(ARIKAN)
        with pytest.raises(DomainError, match="needs the exact depth-m enumeration"):
            hybrid_selection_recursive(g, 25, 0.3, [25], 0.3, 0.0, 0.0)


class TestSelectionBounds:
    def test_frozen_reference_point(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 0.25)
        b = selection_bounds(sel, cdf, arikan, 0.5)
        assert b.union_bound.mode == LINEAR
        assert b.union_bound.value == 5.685363220691179e-06
        assert math.isclose(b.union_neglog2, 17.42431604783187, rel_tol=1e-14)
        assert b.sc_lower.mode == NEGLOG
        assert math.isclose(b.sc_lower.neglog2, 43.18278419755807,
                            rel_tol=1e-14)
        assert b.dmin_upper == 32
        assert b.map_lower.as_pair() == ("neglog", 66.0)

    def test_union_against_mp_sum(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        for rate in (0.25, 0.5):
            sel = polar_selection(cdf, rate)
            b = selection_bounds(sel, cdf, arikan, 0.5)
            lam = cdf.neglogs_by_index[sel.indices - 1]
            total = mp.fsum(mp.power(2, -mp.mpf(x)) for x in lam)
            assert math.isclose(b.union_neglog2, float(-mp.log(total, 2)),
                                rel_tol=1e-13)

    def test_deep_polarized_union_in_log_domain(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 4 / 1024)
        b = selection_bounds(sel, cdf, arikan, 0.5)
        assert b.union_bound.mode == NEGLOG
        assert b.union_bound.payload == b.union_neglog2
        lam = cdf.neglogs_by_index[sel.indices - 1]
        assert lam.min() > 40.0  # plain fsum would underflow toward 0 here
        total = mp.fsum(mp.power(2, -mp.mpf(x)) for x in lam)
        assert math.isclose(b.union_neglog2, float(-mp.log(total, 2)),
                            rel_tol=1e-13)

    def test_sc_lower_against_mp(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        for rate in (0.25, 0.5):
            sel = polar_selection(cdf, rate)
            b = selection_bounds(sel, cdf, arikan, 0.5)
            worst = max((cdf.value_at(int(i)) for i in sel.indices),
                        key=functools.cmp_to_key(
                            lambda a, c: -1 if a < c else (1 if c < a else 0)))
            if worst.mode == NEGLOG:
                z = mp.power(2, -mp.mpf(worst.payload))
            else:
                z = mp.mpf(worst.value)
            want = (1 - mp.sqrt(1 - z * z)) / 2
            assert math.isclose(b.sc_lower.neglog2, float(-mp.log(want, 2)),
                                rel_tol=1e-12)

    def test_dmin_by_integer_products(self, l3prof, cdf_cache):
        cdf = cdf_cache(L3, 0.3, 4)
        sel = polar_selection(cdf, 0.3)
        b = selection_bounds(sel, cdf, l3prof, 0.3)
        best = None
        for i in sel.indices:
            x, prod = int(i) - 1, 1
            for _ in range(4):
                prod *= l3prof.row_weights[x % 3]
                x //= 3
            best = prod if best is None else min(best, prod)
        assert b.dmin_upper == best

    @pytest.mark.parametrize("literal,n", [(ELL5, 3), ("100;110;111", 5)])
    def test_dmin_against_brute_force(self, literal, n, cdf_cache):
        prof = kernel_profile(BitMatrix.from_literal(literal))
        assert any(w & (w - 1) for w in prof.row_weights)
        cdf = cdf_cache(literal, 0.4, n)
        wts = weight_oracle(prof, n)
        for rate in (0.1, 0.3, 0.7):
            for sel in (polar_selection(cdf, rate),
                        rm_selection(prof.kernel, n, rate)):
                b = selection_bounds(sel, cdf, prof, 0.4)
                assert b.dmin_upper == int(wts[sel.indices - 1].min())

    def test_dmin_on_random_kernels(self):
        rng = np.random.default_rng(7)
        for ell, n in ((3, 4), (4, 3), (5, 3)):
            prof = random_polarizing(rng, ell)
            cdf = enumerate_level(prof.kernel, 0.5, n)
            wts = weight_oracle(prof, n)
            sel = polar_selection(cdf, 0.4)
            b = selection_bounds(sel, cdf, prof, 0.5)
            assert b.dmin_upper == int(wts[sel.indices - 1].min())

    def test_map_lower_linear_band(self, l3prof, cdf_cache):
        cdf = cdf_cache(L3, 0.3, 4)
        sel = polar_selection(cdf, 0.3)
        b = selection_bounds(sel, cdf, l3prof, 0.9)
        assert b.map_lower.mode == LINEAR
        assert math.isclose(b.map_lower.value,
                            0.9 ** (2 * b.dmin_upper) / 4.0, rel_tol=1e-12)

    def test_polar_union_is_minimal(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        g = BitMatrix.from_literal(ARIKAN)
        pol = selection_bounds(polar_selection(cdf, 0.25), cdf, arikan, 0.5)
        rm = selection_bounds(rm_selection(g, 10, 0.25), cdf, arikan, 0.5)
        cdf4 = cdf_cache(ARIKAN, 0.5, 4)
        # t = 2 leaves few true candidates; pad by the polar ranking so the
        # filled-up selection stays channel-aware
        hyb = selection_bounds(
            hybrid_selection(cdf4, g, 10, 0.25, 0.4, 2.0, pad_cdf=cdf),
            cdf, arikan, 0.5)
        assert pol.union_neglog2 >= rm.union_neglog2 - 1e-9
        assert pol.union_neglog2 >= hyb.union_neglog2 - 1e-9
        # the channel-aware hybrid stays within a small factor of optimal
        assert 2.0 ** (pol.union_neglog2 - hyb.union_neglog2) <= 10.0

    def test_errors(self, arikan, l3prof, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 0.25)
        with pytest.raises(RequiresExactCdf):
            selection_bounds(sel, mc_cdf(n=10, count=8), arikan, 0.5)
        with pytest.raises(MismatchedLevel):
            selection_bounds(sel, cdf_cache(ARIKAN, 0.5, 8), arikan, 0.5)
        with pytest.raises(MismatchedLevel):
            selection_bounds(sel, cdf, l3prof, 0.5)
        with pytest.raises(DomainError):
            selection_bounds(sel, cdf, arikan, 1.0)
        empty = SelectionSet(n=10, ell=2, rate=1e-9,
                             indices=np.array([], dtype=np.int64), rule="x")
        with pytest.raises(DomainError):
            selection_bounds(empty, cdf, arikan, 0.5)


class TestOverlap:
    def test_frozen_value(self, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        g = BitMatrix.from_literal(ARIKAN)
        pol = polar_selection(cdf, 0.3)
        rm = rm_selection(g, 10, 0.5)
        assert overlap_fraction(pol, rm) == 0.267578125

    def test_self_overlap(self, cdf_cache):
        pol = polar_selection(cdf_cache(ARIKAN, 0.5, 10), 0.3)
        assert overlap_fraction(pol, pol) == 307 / 1024

    def test_mismatch(self, cdf_cache):
        a = polar_selection(cdf_cache(ARIKAN, 0.5, 10), 0.3)
        b = polar_selection(cdf_cache(ARIKAN, 0.5, 8), 0.3)
        with pytest.raises(MismatchedLevel):
            overlap_fraction(a, b)


class TestMinWeightRow:
    def test_matches_direct_computation(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 0.3)
        low = min(bin(int(i) - 1).count("1") for i in sel.indices)
        for slack in (-1.0, 0.0, 0.1, 1.0):
            thr = (10 * arikan.weight_exponent
                   + math.sqrt(10 * arikan.weight_second_exponent)
                   * (q_inverse(0.3 / 0.5) + slack))
            got = check_min_weight_row(sel, arikan, 10, 0.3, 0.5, slack)
            assert got == (low <= thr)

    def test_extremes(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 0.1)
        assert check_min_weight_row(sel, arikan, 10, 0.1, 0.5, 100.0)
        assert not check_min_weight_row(sel, arikan, 10, 0.1, 0.5, -50.0)
        # an integral float depth reads the selection's own level
        assert check_min_weight_row(sel, arikan, 10.0, 0.1, 0.5, 100.0)
        assert not check_min_weight_row(sel, arikan, 10.0, 0.1, 0.5, -50.0)

    def test_domain(self, arikan, l3prof, cdf_cache):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 10), 0.3)
        with pytest.raises(MismatchedLevel):
            check_min_weight_row(sel, arikan, 9, 0.3, 0.5, 0.0)
        with pytest.raises(MismatchedLevel):
            check_min_weight_row(sel, l3prof, 10, 0.3, 0.5, 0.0)
        with pytest.raises(DomainError):
            check_min_weight_row(sel, arikan, 10, 0.3, 0.3, 0.0)
        with pytest.raises(DomainError):
            check_min_weight_row(sel, arikan, 10, 0.3, 1.2, 0.0)


class TestReportJson:
    def test_without_bounds(self, cdf_cache):
        g = BitMatrix.from_literal(ARIKAN)
        cdf4 = cdf_cache(ARIKAN, 0.5, 4)
        sel = hybrid_selection(cdf4, g, 8, 0.3, 0.3, 1.0)
        doc = json.loads(selection_report_json(sel))
        assert doc["rule"] == "hybrid" and doc["count"] == sel.size
        assert doc["metadata"]["schedule"] == [4]
        assert doc["metadata"]["beta"] == 0.3
        assert "bounds" not in doc

    def test_with_bounds(self, arikan, cdf_cache):
        cdf = cdf_cache(ARIKAN, 0.5, 10)
        sel = polar_selection(cdf, 0.25)
        b = selection_bounds(sel, cdf, arikan, 0.5)
        doc = json.loads(selection_report_json(sel, b))
        assert doc["bounds"]["dmin_upper"] == 32
        assert doc["bounds"]["map_lower"] == ["neglog", 66.0]
        assert doc["bounds"]["union_neglog2"] == b.union_neglog2
        assert json.loads(b.to_json()) == doc["bounds"]
