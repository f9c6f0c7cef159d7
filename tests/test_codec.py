import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from polarkit.codec import (
    ERASED,
    MAX_BLOCK,
    WILSON_Z,
    ErasureWord,
    PolarCode,
    ScResult,
    SimulationReport,
    _bp_failures,
    _branch_rule,
    _factor,
    _map_failures,
    _run,
    _sc_failures,
    encode,
    map_decode_bec,
    sc_decode_bec,
    simulate,
    transmit_bec,
    wilson_interval,
)
from polarkit import codec
from polarkit.becpolar import enumerate_level
from polarkit.construct import digit_reverse, polar_selection
from polarkit.errors import (
    DimensionTooLarge,
    DomainError,
    FrozenBitNonzero,
    IndexOutOfRange,
    MismatchedLevel,
)
from polarkit.gf2kernel import (
    BitMatrix,
    _pack_bits,
    _unpack_bits,
    determined_masks,
    kernel_profile,
    minimal_determining_sets,
)
from polarkit.asymptotics import q_inverse
from polarkit.rng import erasure_words, subseed, subseeds

from conftest import (
    ARIKAN,
    L3,
    kron_power,
    np_gf2_rank,
    random_invertible,
    random_polarizing,
    ref_bp_failures,
    ref_branch_rule,
    ref_close_stage,
    ref_generator_rows,
    ref_sc_failures,
    sc_batch,
)



def full_rate(profile, n):
    return PolarCode(profile=profile, n=n, frozen=frozenset())


def kron_generator(literal: str, n: int) -> np.ndarray:
    """Row i-1 is the generator row of channel index i (digit-reversed
    row of the plain Kronecker power)."""
    g = np.array(BitMatrix.from_literal(literal).as_lists(), dtype=np.uint8)
    acc = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        acc = np.kron(acc, g)
    ell = g.shape[0]
    perm = [digit_reverse(i, ell, n) - 1 for i in range(1, ell**n + 1)]
    return acc[perm]


def row_bits(code, i):
    r = code.generator_row(i)
    return np.array([(r >> c) & 1 for c in range(code.block_length)],
                    dtype=np.uint8)


def erasure_masks(seeds, size, eps):
    """(len(seeds), size) bool erasure masks: ``erasure_words`` unpacked."""
    return _unpack_bits(erasure_words(seeds, size, eps), len(seeds)).T


def known_words(erased):
    """A (B, N) bool batch of erasure masks as (N, ceil(B/64)) known words,
    padding trials fully known."""
    return ~_pack_bits(erased.T)


def sc_fails(erased, code):
    """``_sc_failures`` of a (B, N) bool batch of erasure masks."""
    return _sc_failures(known_words(erased), len(erased), code)


def bp_fails(erased, code):
    """``_bp_failures`` of a (B, N) bool batch of erasure masks."""
    return _bp_failures(known_words(erased), len(erased), code)


def map_fails(erased, code):
    """``_map_failures`` of every trial of a (B, N) bool batch of erasure
    masks."""
    return _map_failures(known_words(erased), np.arange(len(erased)), code)


def all_patterns(size):
    """Every erasure pattern on size positions, pattern p erasing bit c of p."""
    p = np.arange(1 << size)
    return ((p[:, None] >> np.arange(size)) & 1).astype(bool)


class TestPolarCode:
    def test_from_selection_complement(self, arikan, cdf_cache):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5)
        code = PolarCode.from_selection(arikan, sel)
        assert code.block_length == 16 and code.k == 8
        assert code.rate == 0.5
        assert np.array_equal(code.info_indices, sel.indices)
        assert code.frozen == set(range(1, 17)) - set(map(int, sel.indices))

    def test_validation(self, arikan, l3prof, cdf_cache):
        with pytest.raises(DomainError):
            PolarCode(profile=arikan, n=0, frozen=frozenset())
        with pytest.raises(DimensionTooLarge):
            PolarCode(profile=arikan, n=23, frozen=frozenset())
        with pytest.raises(IndexOutOfRange):
            PolarCode(profile=arikan, n=2, frozen=frozenset({5}))
        # an int cast would truncate these to {1, 2}
        with pytest.raises(DomainError):
            PolarCode(profile=arikan, n=2, frozen=frozenset({1.7, 2.2}))
        # inf % 1 must not escape as a RuntimeWarning before the DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                PolarCode(profile=arikan, n=1, frozen=frozenset([1.0, math.inf]))
            with pytest.raises(DomainError):
                PolarCode(profile=arikan, n=1, frozen=frozenset([math.nan]))
        # a fractional depth would give a fractional block length
        for n in (2.5, math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                PolarCode(profile=arikan, n=n, frozen=frozenset())
        for n in (2.0, np.float64(2.0), np.int64(2)):
            code = PolarCode(profile=arikan, n=n, frozen=frozenset())
            assert type(code.n) is int and code.block_length == 4
            assert type(code.block_length) is int
        code = PolarCode(profile=arikan, n=2, frozen=frozenset({2.0, np.int64(3)}))
        assert code.frozen == {2, 3}
        # a bool is the 1 or 0 it equals, as a scalar bool is to ``whole``
        flagged = PolarCode(profile=arikan, n=1, frozen=frozenset([np.True_]))
        assert flagged.frozen == {1} and all(type(i) is int for i in flagged.frozen)
        with pytest.raises(IndexOutOfRange):
            PolarCode(profile=arikan, n=1, frozen=frozenset([False]))
        assert code._info_mask.tolist() == [True, False, False, True]
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5)
        with pytest.raises(MismatchedLevel):
            PolarCode.from_selection(l3prof, sel)

    @pytest.mark.parametrize("literal,n", [(ARIKAN, 4), (L3, 2)])
    def test_generator_rows_match_kronecker(self, arikan, l3prof, literal, n):
        prof = arikan if literal == ARIKAN else l3prof
        code = full_rate(prof, n)
        want = kron_generator(literal, n)
        for i in range(1, code.block_length + 1):
            assert np.array_equal(row_bits(code, i), want[i - 1])
        with pytest.raises(IndexOutOfRange):
            code.generator_row(0)

    def test_generator_rows_match_the_matrix_build(self, arikan, l3prof):
        # the int build against the (K, N) bool matrix it replaced, on
        # every index, a random subset, repeats out of order and no index
        rs = np.random.default_rng(29)
        cases = [(arikan, 9), (l3prof, 5)]
        cases += [(random_polarizing(rs, ell), n) for ell, n in ((3, 4), (4, 3), (5, 3), (6, 2))]
        for prof, n in cases:
            code = full_rate(prof, n)
            size = code.block_length
            for index in (np.arange(size), np.sort(rs.choice(size, size // 3, replace=False)),
                          np.array([size - 1, 0, size - 1, 1]), np.array([], dtype=np.int64)):
                assert code._generator_rows(index) == ref_generator_rows(code, index)

    def test_info_rows_build_no_bool_matrix(self, arikan):
        # K = 4096 rows of N = 8192 bits: the (K, N) bool matrix alone was
        # 32 MiB (48 MiB traced peak); the rows themselves take about 3.4 MiB
        code = PolarCode(profile=arikan, n=13, frozen=frozenset(range(1, 4097)))
        tracemalloc.start()
        try:
            rows = code._info_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == code.k and peak < 8 << 20

    def test_generator_row_takes_integral_indices_only(self, arikan):
        code = full_rate(arikan, 3)
        for i in (2.0, np.int64(2), np.float64(2.0)):
            assert code.generator_row(i) == code.generator_row(2)
            assert type(code.generator_row(i)) is int
        for i in (1.5, 7.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                code.generator_row(i)
        # numpy warns on inf % 1, so the check must not take the remainder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in (np.float64(np.inf), np.float64(np.nan)):
                with pytest.raises(DomainError):
                    code.generator_row(i)
            with pytest.raises(IndexOutOfRange):
                code.generator_row(2**1100)

    def test_row_weight_multiplies_over_digits(self, arikan):
        code = full_rate(arikan, 6)
        for i in (1, 17, 42, 64):
            x, prod = i - 1, 1
            for _ in range(6):
                prod *= arikan.row_weights[x % 2]
                x //= 2
            assert code.generator_row(i).bit_count() == prod


class TestEncode:
    @pytest.mark.parametrize("literal,n", [(ARIKAN, 5), (L3, 3)])
    def test_matches_kronecker_product(self, arikan, l3prof, literal, n):
        prof = arikan if literal == ARIKAN else l3prof
        code = full_rate(prof, n)
        gen = kron_generator(literal, n)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.integers(0, 2, code.block_length).astype(np.uint8)
            assert np.array_equal(encode(u, code), u @ gen % 2)

    def test_unit_vectors_reproduce_generator_rows(self, arikan):
        code = full_rate(arikan, 4)
        for i in range(1, 17):
            u = np.zeros(16, dtype=np.uint8)
            u[i - 1] = 1
            assert np.array_equal(encode(u, code), row_bits(code, i))

    def test_linearity(self, l3prof):
        code = full_rate(l3prof, 2)
        rng = np.random.default_rng(3)
        for _ in range(8):
            u, v = rng.integers(0, 2, (2, 9)).astype(np.uint8)
            assert np.array_equal(encode(u ^ v, code),
                                  encode(u, code) ^ encode(v, code))

    def test_frozen_bit_rejected(self, arikan):
        code = PolarCode(profile=arikan, n=3, frozen=frozenset({2}))
        u = np.zeros(8, dtype=np.uint8)
        u[1] = 1
        with pytest.raises(FrozenBitNonzero):
            encode(u, code)
        with pytest.raises(DomainError):
            encode(np.zeros(7, dtype=np.uint8), code)

    def test_frozen_error_names_smallest_index(self, arikan):
        code = PolarCode(profile=arikan, n=3, frozen=frozenset({7, 2, 5}))
        u = np.zeros(8, dtype=np.uint8)
        u[[4, 5, 6]] = 1
        with pytest.raises(FrozenBitNonzero, match="frozen index 5 "):
            encode(u, code)
        with pytest.raises(DomainError):
            encode(np.full(8, 2, dtype=np.uint8), code)

    def test_values_checked_before_cast(self, arikan):
        # 256 and 257 would wrap to 0 and 1 in uint8
        code = full_rate(arikan, 2)
        with pytest.raises(DomainError):
            encode(np.array([256, 0, 0, 257]), code)
        with pytest.raises(DomainError):
            encode(np.array([1.0, 0.0, 0.5, 0.0]), code)
        assert encode(np.array([1.0, 0.0, 0.0, 0.0]), code).tolist() == [1, 0, 0, 0]


class TestErasureWord:
    def test_validation_and_views(self):
        w = ErasureWord(np.array([0, 1, ERASED, 0], dtype=np.int8))
        assert len(w) == 4 and w.erasure_count == 1
        assert w.erased_mask().tolist() == [False, False, True, False]
        assert not w.symbols.flags.writeable
        with pytest.raises(DomainError):
            ErasureWord(np.array([0, 2], dtype=np.int8))
        with pytest.raises(DomainError):
            ErasureWord(np.zeros((2, 2), dtype=np.int8))

    def test_values_checked_before_cast(self):
        # int8 would wrap 257 to 1 and 255 to -1, and truncate 1.7 to 1
        with pytest.raises(DomainError):
            ErasureWord(np.array([257, 0, 255]))
        with pytest.raises(DomainError):
            ErasureWord(np.array([1.7, 0.0, -1.0]))
        w = ErasureWord(np.array([1.0, 0.0, -1.0]))
        assert w.symbols.dtype == np.int8
        assert w.symbols.tolist() == [1, 0, ERASED]


class TestTransmit:
    def test_deterministic_in_seed(self):
        x = np.zeros(64, dtype=np.int8)
        a = transmit_bec(x, 0.4, seed=11)
        b = transmit_bec(x, 0.4, seed=11)
        c = transmit_bec(x, 0.4, seed=12)
        assert np.array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, c.symbols)

    def test_eps_extremes_and_survivors(self):
        x = np.ones(32, dtype=np.int8)
        assert transmit_bec(x, 0.0, seed=1).erasure_count == 0
        assert transmit_bec(x, 1.0, seed=1).erasure_count == 32
        w = transmit_bec(x, 0.5, seed=1)
        kept = w.symbols[w.symbols != ERASED]
        assert (kept == 1).all()

    def test_domain(self):
        with pytest.raises(DomainError):
            transmit_bec(np.array([0, 2], dtype=np.int8), 0.5, seed=1)
        for eps in (1.5, "0.5", None, math.nan):
            with pytest.raises(DomainError):
                transmit_bec(np.zeros(4, dtype=np.int8), eps, seed=1)
        with pytest.raises(DomainError):
            transmit_bec(np.zeros((2, 2), dtype=np.int8), 0.5, seed=1)
        # values outside {0, 1} that an int8 cast would map into it
        with pytest.raises(DomainError):
            transmit_bec(np.array([256, 1, 0]), 0.0, seed=1)
        with pytest.raises(DomainError):
            transmit_bec(np.array([1.7, 0.0]), 0.0, seed=1)
        # a fractional seed is refused, not truncated to 1
        x = np.zeros(64, dtype=np.int8)
        for seed in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                transmit_bec(x, 0.5, seed=seed)
        for seed in (1.0, np.float64(1.0), np.int64(1)):
            assert np.array_equal(transmit_bec(x, 0.5, seed=seed).symbols,
                                  transmit_bec(x, 0.5, seed=1).symbols)


class TestBranchRule:
    @pytest.mark.parametrize("literal", [ARIKAN, L3, "1000;1100;1010;1111"])
    def test_pmask_zero_matches_determined_masks(self, arikan, l3prof, literal):
        g = BitMatrix.from_literal(literal)
        table = determined_masks(g)
        for j in range(g.ell):
            for kmask in range(1 << g.ell):
                det, alpha, beta = _branch_rule(g, j, kmask, 0)
                assert det == table[j, kmask]
                if det:
                    assert alpha & ~kmask == 0

    def test_matches_elimination(self):
        # every (j, K, P) of random invertible kernels, polarizing or not:
        # the same decision as the elimination, and alpha inside K with
        # parities e_j on the unresolved rows (row j, the later rows and P)
        # and beta on the known earlier rows
        rng = np.random.default_rng(71)
        for ell in range(2, 7):
            for g in (random_invertible(rng, ell), random_invertible(rng, ell)):
                for j in range(ell):
                    unresolved_later = (1 << ell) - (1 << j)
                    for pmask in range(1 << j):
                        for kmask in range(1 << ell):
                            det, alpha, beta = _branch_rule(g, j, kmask, pmask)
                            assert det == ref_branch_rule(g, j, kmask, pmask)[0]
                            if not det:
                                continue
                            assert alpha & ~kmask == 0
                            parities = sum(
                                ((r & alpha).bit_count() & 1) << t for t, r in enumerate(g.rows)
                            )
                            unresolved = unresolved_later | pmask
                            assert parities & unresolved == 1 << j
                            assert parities & ~unresolved == beta

    def test_rule_parity_is_consistent(self, l3prof):
        # decoding a full kernel block with any two inputs known and the
        # outputs partially known must reproduce the true branch value
        g = np.array(l3prof.kernel.as_lists(), dtype=np.uint8)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.integers(0, 2, 3).astype(np.uint8)
            x = u @ g % 2
            kmask = int(rng.integers(0, 8))
            for j in range(3):
                det, alpha, beta = _branch_rule(l3prof.kernel, j, kmask, 0)
                if not det:
                    continue
                acc = 0
                for c in range(3):
                    if (alpha >> c) & 1:
                        acc ^= int(x[c])
                for t in range(j):
                    if (beta >> t) & 1:
                        acc ^= int(u[t])
                assert acc == u[j]


class TestScDecode:
    def test_no_erasures_full_recovery(self, arikan, l3prof):
        for prof, n in ((arikan, 5), (l3prof, 3)):
            code = full_rate(prof, n)
            rng = np.random.default_rng(13)
            u = rng.integers(0, 2, code.block_length).astype(np.uint8)
            res = sc_decode_bec(ErasureWord(encode(u, code)), code)
            assert res.is_determined
            assert np.array_equal(res.u, u)

    def test_determined_entries_are_correct(self, arikan, l3prof, cdf_cache):
        cases = [
            (arikan, PolarCode.from_selection(
                arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 5), 0.4))),
            (l3prof, PolarCode.from_selection(
                l3prof, polar_selection(cdf_cache(L3, 0.3, 3), 0.5))),
        ]
        rng = np.random.default_rng(17)
        for prof, code in cases:
            size = code.block_length
            for trial in range(40):
                u = np.zeros(size, dtype=np.uint8)
                u[code.info_indices - 1] = rng.integers(0, 2, code.k)
                x = encode(u, code)
                erased = rng.random(size) < 0.45
                y = np.where(erased, np.int8(ERASED), x.astype(np.int8))
                res = sc_decode_bec(ErasureWord(y), code)
                known = res.u != ERASED
                assert np.array_equal(res.u[known], u[known])
                undet = np.flatnonzero((res.u == ERASED)) + 1
                assert set(res.undetermined) == set(map(int, undet)) & set(
                    map(int, code.info_indices))

    def test_batch_matches_single(self, arikan):
        code = PolarCode(profile=arikan, n=5, frozen=frozenset(range(1, 12)))
        rng = np.random.default_rng(19)
        words = []
        for _ in range(10):
            erased = rng.random(32) < 0.5
            words.append(np.where(erased, np.int8(ERASED), np.int8(0)))
        batch = sc_batch(np.stack(words), code)
        for t, y in enumerate(words):
            single = sc_decode_bec(ErasureWord(y), code)
            assert np.array_equal(batch[t], single.u)

    def test_wrong_length(self, arikan):
        code = full_rate(arikan, 3)
        with pytest.raises(MismatchedLevel):
            sc_decode_bec(ErasureWord(np.zeros(4, dtype=np.int8)), code)


def oracle_words(code, rng):
    """Codewords under random erasures, arbitrary ternary words, and words
    with nothing and with everything erased."""
    size = code.block_length
    words = []
    for frac in (0.2, 0.5, 0.8):
        u = np.zeros(size, dtype=np.uint8)
        u[code.info_indices - 1] = rng.integers(0, 2, code.k)
        x = encode(u, code).astype(np.int8)
        words.append(x)
        words.append(np.where(rng.random(size) < frac, np.int8(ERASED), x))
        words.append(rng.choice(np.array([0, 1, ERASED], dtype=np.int8), size,
                                p=[(1 - frac) / 2, (1 - frac) / 2, frac]))
    words.append(rng.integers(0, 2, size).astype(np.int8))
    words.append(np.full(size, ERASED, dtype=np.int8))
    return words


class TestScOracle:
    """``sc_decode_bec`` against the plain recursion ``sc_batch`` that visits
    every node, on codes with random, empty and full information sets."""

    @pytest.mark.parametrize("kernel,n", [
        (ARIKAN, 1), (ARIKAN, 2), (ARIKAN, 4), (ARIKAN, 7), (ARIKAN, 10),
        (L3, 1), (L3, 2), (L3, 3), (L3, 5),
        ("random4", 1), ("random4", 3), ("random5", 2), ("random6", 2),
        ("G8", 1), ("G8", 2), ("random9", 1), ("random9", 2), ("G16", 1),
        (L3, 6), ("G16", 2), ("random12", 1),
    ])
    def test_matches_reference(self, kernel, n):
        rng = np.random.default_rng([n, *kernel.encode()])
        if kernel.startswith("random"):
            prof = random_polarizing(rng, int(kernel[6:]))
        elif kernel.startswith("G"):
            prof = kernel_profile(kron_power(int(kernel[1:]).bit_length() - 1))
        else:
            prof = kernel_profile(BitMatrix.from_literal(kernel))
        size = prof.ell**n
        infos = [np.zeros(size, dtype=bool), np.ones(size, dtype=bool),
                 rng.random(size) < 0.3, rng.random(size) < 0.7]
        for info in infos:
            code = PolarCode(profile=prof, n=n, frozen=frozenset(
                int(i) + 1 for i in np.flatnonzero(~info)))
            words = oracle_words(code, rng)
            want = sc_batch(np.stack(words), code)
            for y, u in zip(words, want):
                res = sc_decode_bec(ErasureWord(y), code)
                assert res.u.dtype == u.dtype and np.array_equal(res.u, u)
                assert res.undetermined == tuple(
                    int(i) + 1 for i in np.flatnonzero((u == ERASED) & info))


class TestRuleStore:
    """``PolarCode._sc_rules`` is the only rule cache: repeated decodes of
    the same words derive each (branch, key) rule at most once."""

    @pytest.mark.parametrize("kernel,n", [(ARIKAN, 6), (L3, 4), ("random9", 2)])
    def test_branch_rule_runs_once_per_key(self, monkeypatch, kernel, n):
        rng = np.random.default_rng(41)
        if kernel.startswith("random"):
            prof = random_polarizing(rng, int(kernel[6:]))
        else:
            prof = kernel_profile(BitMatrix.from_literal(kernel))
        size = prof.ell**n
        code = PolarCode(profile=prof, n=n, frozen=frozenset(
            int(i) + 1 for i in np.flatnonzero(rng.random(size) < 0.5)))
        calls = []

        def counted(g, j, kmask, pmask):
            calls.append((j, kmask, pmask))
            return _branch_rule(g, j, kmask, pmask)

        monkeypatch.setattr(codec, "_branch_rule", counted)
        words = oracle_words(code, rng)
        first = [sc_decode_bec(ErasureWord(y), code).u for y in words]
        assert calls and len(set(calls)) == len(calls)
        seen = len(calls)
        for _ in range(2):
            for y, u in zip(words, first):
                assert np.array_equal(sc_decode_bec(ErasureWord(y), code).u, u)
        assert len(calls) == seen


class TestExactFailureProbabilities:
    """Exhaustive erasure patterns tie both decoders to closed forms.

    With a single information index i and dyadic eps, the SC block-error
    probability is exactly the polarized erasure probability Z_i, and the
    MAP ambiguity probability is exactly eps^(row weight)."""

    @pytest.mark.parametrize("literal,n", [(ARIKAN, 3), (L3, 2)])
    def test_single_info_bit(self, arikan, l3prof, cdf_cache, literal, n):
        prof = arikan if literal == ARIKAN else l3prof
        cdf = cdf_cache(literal, 0.5, n)
        size = prof.ell**n
        for i in range(1, size + 1):
            code = PolarCode(
                profile=prof, n=n,
                frozen=frozenset(range(1, size + 1)) - {i})
            sc_fail = 0
            map_fail = 0
            for pat in range(1 << size):
                y = np.fromiter(
                    ((ERASED if (pat >> c) & 1 else 0) for c in range(size)),
                    dtype=np.int8, count=size)
                word = ErasureWord(y)
                res = sc_decode_bec(word, code)
                amb = map_decode_bec(word, code) == "ambiguous"
                sc_fail += not res.is_determined
                map_fail += amb
                if amb:
                    assert not res.is_determined  # MAP failures are SC failures
            z = cdf.value_at(i)
            assert Fraction(sc_fail, 1 << size) == Fraction(z.value)
            w = code.generator_row(i).bit_count()
            assert Fraction(map_fail, 1 << size) == Fraction(1, 2**w)


class TestRandomKernels:
    """The batched genie-aided SC count and the MAP rank test against
    independent references on random polarizing kernels at n = 2."""

    @pytest.mark.parametrize("ell,seed,samples", [
        (4, 1, None), (4, 2, None), (5, 3, 4000), (5, 4, 4000),
        (6, 5, 4000), (6, 6, 4000),
    ])
    def test_batched_decoders_match_references(self, ell, seed, samples):
        rng = np.random.default_rng(seed)
        prof = random_polarizing(rng, ell)
        size = ell * ell
        # a polar information set with about one index in ten flipped, so
        # that both outcomes of both decoders stay common
        sel = polar_selection(enumerate_level(prof.kernel, 0.5, 2), rng.uniform(0.2, 0.6))
        info = np.zeros(size, dtype=bool)
        info[sel.indices - 1] = True
        info ^= rng.random(size) < 0.1
        code = PolarCode(profile=prof, n=2,
                         frozen=frozenset(int(i) + 1 for i in np.flatnonzero(~info)))
        if samples is None:
            erased = all_patterns(size)
        else:
            erased = rng.random((samples, size)) < rng.uniform(0.1, 0.7, (samples, 1))
        sc = sc_fails(erased, code)
        u = sc_batch(np.where(erased, np.int8(ERASED), np.int8(0)), code)
        assert np.array_equal(sc, ((u == ERASED) & code._info_mask).any(axis=1))
        amb = map_fails(erased, code)
        assert not (amb & ~sc).any()
        gen = np.stack([row_bits(code, int(i)) for i in code.info_indices])
        for t in rng.choice(len(erased), 400, replace=False):
            rank = np_gf2_rank(gen[:, ~erased[t]]) if (~erased[t]).any() else 0
            assert amb[t] == (rank < code.k)
        if samples is None:
            # every pattern: ambiguous iff it contains the support of a nonzero
            # codeword; mark the supports, then close upward one bit at a time
            combos = all_patterns(code.k)[1:].astype(np.uint8)
            supports = (combos @ gen % 2) @ (1 << np.arange(size))
            inside = np.zeros(1 << size, dtype=bool)
            inside[supports] = True
            for c in range(size):
                halves = inside.reshape(-1, 2, 1 << c)
                halves[:, 1] |= halves[:, 0]
            assert np.array_equal(amb, inside)

    def test_single_info_bit_matches_level_z(self):
        rng = np.random.default_rng(7)
        prof = random_polarizing(rng, 4)
        cdf = enumerate_level(prof.kernel, 0.5, 2)
        erased = all_patterns(16)
        for i in range(1, 17):
            code = PolarCode(profile=prof, n=2,
                             frozen=frozenset(range(1, 17)) - {i})
            sc = int(sc_fails(erased, code).sum())
            amb = int(map_fails(erased, code).sum())
            assert Fraction(sc, 1 << 16) == Fraction(cdf.value_at(i).value)
            w = code.generator_row(i).bit_count()
            assert Fraction(amb, 1 << 16) == Fraction(1, 2**w)


class TestBeliefPropagation:
    """Erasure BP between the rank test and the SC count: on every pattern a
    MAP failure is a BP failure and a BP failure is an SC failure."""

    @staticmethod
    def chain(erased, code):
        sc = sc_fails(erased, code)
        bp = bp_fails(erased, code)
        amb = map_fails(erased, code)
        assert not (amb & ~bp).any()
        assert not (bp & ~sc).any()
        return sc, bp, amb

    @pytest.mark.parametrize("ell,seed,samples", [
        (2, 1, None), (3, 2, None), (3, 3, None), (4, 4, None), (4, 5, None),
        (5, 6, 4000), (5, 7, 4000), (6, 8, 4000), (6, 9, 4000),
    ])
    def test_random_kernels(self, ell, seed, samples):
        rng = np.random.default_rng(seed)
        prof = random_polarizing(rng, ell)
        size = ell * ell
        sel = polar_selection(enumerate_level(prof.kernel, 0.5, 2), rng.uniform(0.2, 0.6))
        info = np.zeros(size, dtype=bool)
        info[sel.indices - 1] = True
        info ^= rng.random(size) < 0.1
        code = PolarCode(profile=prof, n=2,
                         frozen=frozenset(int(i) + 1 for i in np.flatnonzero(~info)))
        if samples is None:
            erased = all_patterns(size)
        else:
            erased = rng.random((samples, size)) < rng.uniform(0.1, 0.7, (samples, 1))
        self.chain(erased, code)

    @pytest.mark.parametrize("literal,n", [(ARIKAN, 3), (L3, 2)])
    def test_every_information_set(self, arikan, l3prof, literal, n):
        prof = arikan if literal == ARIKAN else l3prof
        size = prof.ell**n
        erased = all_patterns(size)
        sc_gap = bp_gap = 0
        for info in all_patterns(size):
            code = PolarCode(profile=prof, n=n, frozen=frozenset(
                int(i) + 1 for i in np.flatnonzero(~info)))
            sc, bp, amb = self.chain(erased, code)
            sc_gap += int((sc & ~bp).sum())
            bp_gap += int((bp & ~amb).sum())
        # BP resolves patterns SC cannot, and on Arikan n = 3 it stalls on
        # some MAP-unique ones
        assert sc_gap > 0
        assert bp_gap > 0 or literal == L3


class TestColumnPermutation:
    """A column permutation sigma of the kernel keeps every synthetic
    channel and moves code position p to the position whose base-ell digits
    are sigma of p's digits: on the words moved that way, the SC count, BP
    and the MAP rank test fail on the same trials."""

    @staticmethod
    def moved(sigma, n):
        """Entry p: the position whose base-ell digits are sigma of p's."""
        pos = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            pos = (pos[:, None] * len(sigma) + sigma[None, :]).ravel()
        return pos

    @staticmethod
    def failures(erased, code):
        return sc_fails(erased, code), bp_fails(erased, code), map_fails(erased, code)

    @pytest.mark.parametrize("ell, n, seed", [(3, 4, 1), (4, 3, 2), (5, 2, 3), (6, 2, 4)])
    def test_decoders_fail_on_the_same_trials(self, ell, n, seed):
        rng = np.random.default_rng(seed)
        prof = random_polarizing(rng, ell)
        while True:  # a sigma that is not its own inverse
            sigma = rng.permutation(ell)
            if (sigma[sigma] != np.arange(ell)).any():
                break
        twin = kernel_profile(BitMatrix(ell, tuple(
            sum((r >> c & 1) << int(sigma[c]) for c in range(ell)) for r in prof.kernel.rows)))
        sel = polar_selection(enumerate_level(prof.kernel, 0.5, n), 0.4)
        code = PolarCode.from_selection(prof, sel)
        twin_code = PolarCode.from_selection(twin, sel)
        erased = rng.random((2000, ell**n)) < rng.uniform(0.2, 0.6, (2000, 1))
        want = self.failures(erased, code)
        for fail in want:
            assert 0 < fail.sum() < len(fail)
        for perm, same in ((sigma, True), (np.argsort(sigma), False)):
            moved = np.empty_like(erased)
            moved[:, self.moved(perm, n)] = erased
            got = self.failures(moved, twin_code)
            assert [np.array_equal(a, b) for a, b in zip(got, want)] == [same] * 3


class TestPackedFailures:
    """The bit-packed SC count and BP against the table-lookup and strided
    references in conftest, and the factored SC program against
    ``determined_masks``."""

    @staticmethod
    def kernels():
        rng = np.random.default_rng(12)
        named = [BitMatrix.from_literal(ARIKAN), BitMatrix.from_literal(L3),
                 kron_power(3), kron_power(4)]
        return named + [random_invertible(rng, ell) for ell in range(3, 13)]

    def test_minimal_sets_and_program_match_determined_masks(self):
        for m in self.kernels():
            det = determined_masks(m)
            ell = m.ell
            masks = np.arange(1 << ell)
            slabs = [(masks >> c & 1).astype(bool) for c in range(ell)]
            families = minimal_determining_sets(m)
            for j, fam in enumerate(families):
                covered = np.zeros(1 << ell, dtype=bool)
                for k in fam:
                    bits = sum(1 << c for c in k)
                    covered |= masks & bits == bits
                    # minimal: determined, and not without any one coordinate
                    assert det[j, bits] and not any(det[j, bits ^ 1 << c] for c in k)
                assert np.array_equal(covered, det[j])
            got = _run(_factor(families), slabs)
            assert all(np.array_equal(v, det[j]) for j, v in enumerate(got))

    def test_program_keeps_a_root_that_is_also_a_step(self):
        # {{1}} is the root of the second family and the OR operand of the
        # first, which is built before it
        fams = (frozenset({frozenset({0}), frozenset({1})}), frozenset({frozenset({1})}),
                frozenset({frozenset({0, 1})}))
        masks = np.arange(4)
        slabs = [(masks >> c & 1).astype(bool) for c in range(2)]
        got = _run(_factor(fams), slabs)
        assert [v.tolist() for v in got] == [
            [False, True, True, True], [False, False, True, True], [False, False, False, True]]

    @staticmethod
    def bp_codes():
        rng = np.random.default_rng(19)
        named = [kernel_profile(BitMatrix.from_literal(lit))
                 for lit in (ARIKAN, L3, "100;110;111")]
        named.append(kernel_profile(kron_power(3)))
        profs = named + [random_polarizing(rng, ell) for ell in range(3, 9)]
        return [full_rate(prof, 1) for prof in profs]

    @staticmethod
    def bp_families(code):
        return tuple(frozenset(frozenset(k) - {v} for k in code._bp_checks if v in k)
                     for v in range(2 * code.profile.ell))

    def test_program_shares_ands(self):
        # ANDs of the sets as listed, against ANDs and ORs of the program,
        # per SC kernel stage and per BP kernel node
        random16 = random_invertible(np.random.default_rng(1), 16)
        g8 = full_rate(kernel_profile(kron_power(3)), 1)
        for families, naive, ands, ors in (
                (minimal_determining_sets(kron_power(4)), 3221, 165, 111),
                (minimal_determining_sets(random16), 3476, 841, 529),
                (self.bp_families(g8), 3724, 380, 208)):
            steps, _ = _factor(families)
            assert sum(len(k) - 1 for fam in families for k in fam) == naive
            assert sum(on >= 0 for _, on, _, _ in steps) == ands
            assert sum(off >= 0 for _, _, off, _ in steps) == ors

    def test_bp_families_are_antichains(self):
        # the precondition of ``_factor``, and the program is built from them
        for code in self.bp_codes():
            families = self.bp_families(code)
            for fam in families:
                assert fam and all(fam)
                assert not any(a < b for a in fam for b in fam)
            assert _factor(families) == code._bp_program

    def test_bp_program_closes_a_node_like_the_reference(self):
        # one run equals the check-by-check closure, and a second adds nothing
        rng = np.random.default_rng(20)
        for code in self.bp_codes():
            ell = code.profile.ell
            for p in (0.25, 0.5, 0.75):
                bits = rng.random((2 * ell, 30, 64 * 3)) < p
                buf = _pack_bits(bits)
                want = [v.copy() for v in buf]
                ref_close_stage(want, code._bp_checks)
                for var, gain in zip(buf, _run(code._bp_program, buf)):
                    var |= gain
                assert np.array_equal(buf, want), (code.profile.kernel, p)
                assert all(not (g & ~v).any()
                           for v, g in zip(buf, _run(code._bp_program, buf)))

    @pytest.mark.parametrize("kernel,n", [
        (ARIKAN, 5), (L3, 3), ("100;110;111", 3), ("kron2", 2),
        ("random2", 4), ("random3", 3), ("random4", 2), ("random5", 2),
        ("random6", 2), ("random7", 2), ("random8", 2), ("random9", 1),
    ])
    def test_match_references_per_trial(self, kernel, n):
        rng = np.random.default_rng(len(kernel) * 100 + n)
        if kernel.startswith("random"):
            prof = random_polarizing(rng, int(kernel[6:]))
        elif kernel == "kron2":
            prof = kernel_profile(kron_power(2))
        else:
            prof = kernel_profile(BitMatrix.from_literal(kernel))
        size = prof.ell**n
        code = PolarCode(profile=prof, n=n, frozen=frozenset(
            int(i) + 1 for i in np.flatnonzero(rng.random(size) < 0.5)))
        for eps in (0.0, 0.4, 1.0):
            # partial last words, an exact word, and padding past it
            for trials in (1, 63, 64, 65, 130):
                erased = rng.random((trials, size)) < eps
                assert np.array_equal(sc_fails(erased, code), ref_sc_failures(erased, code))
                bp = bp_fails(erased, code)
                want = ref_bp_failures(erased, code)
                assert (bp is None) == (want is None) == (prof.ell > codec.BP_MAX_ELL)
                assert bp is None or np.array_equal(bp, want)

    @pytest.mark.parametrize("ell,n", [
        (2, 5), (3, 3), (4, 2), (5, 2), (6, 2), (7, 1), (8, 1), (9, 1),
    ])
    def test_simulate_counts_match_references(self, ell, n, monkeypatch):
        rng = np.random.default_rng(ell)
        prof = random_polarizing(rng, ell)
        size = ell**n
        sel = polar_selection(enumerate_level(prof.kernel, 0.4, n), 0.5)
        code = PolarCode.from_selection(prof, sel)
        # chunks of 100 trials: the second word of each is partial
        monkeypatch.setattr(codec, "CELLS", 100 * size)
        rep = simulate(code, 0.4, 250, seed=ell)
        erased = erasure_masks(subseeds(ell, 250), size, 0.4)
        sc = ref_sc_failures(erased, code)
        assert rep.sc_errors == sc.sum()
        assert rep.map_errors == map_fails(erased, code).sum()
        assert rep == SimulationReport(
            eps=0.4, n=n, ell=ell, rate=code.rate, trials=250, seed=ell,
            sc_errors=int(sc.sum()), map_errors=rep.map_errors,
            sc_interval=wilson_interval(int(sc.sum()), 250),
            map_interval=wilson_interval(rep.map_errors, 250))


class TestMapDecode:
    def test_matches_rank_oracle_exhaustive(self, arikan, cdf_cache):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 3), 0.5)
        code = PolarCode.from_selection(arikan, sel)
        gen = np.stack([row_bits(code, int(i)) for i in code.info_indices])
        for pat in range(256):
            erased = np.array([(pat >> c) & 1 for c in range(8)], dtype=bool)
            y = np.where(erased, np.int8(ERASED), np.int8(0))
            got = map_decode_bec(ErasureWord(y), code)
            rank = np_gf2_rank(gen[:, ~erased]) if (~erased).any() else 0
            assert got == ("unique" if rank == code.k else "ambiguous")

    def test_matches_codeword_collisions(self, l3prof, cdf_cache):
        sel = polar_selection(cdf_cache(L3, 0.3, 2), 0.5)
        code = PolarCode.from_selection(l3prof, sel)
        gen = np.stack([row_bits(code, int(i)) for i in code.info_indices])
        combos = np.array(
            [[(m >> r) & 1 for r in range(code.k)] for m in range(2**code.k)],
            dtype=np.uint8)
        words = combos @ gen % 2
        rng = np.random.default_rng(23)
        for _ in range(40):
            erased = rng.random(9) < 0.5
            y = np.where(erased, np.int8(ERASED), np.int8(0))
            got = map_decode_bec(ErasureWord(y), code)
            seen = {tuple(w[~erased]) for w in words}
            assert got == ("unique" if len(seen) == len(words) else "ambiguous")

    def test_batch_matches_rank_oracle(self, arikan, cdf_cache):
        # 256 information rows, both verdicts common
        code = PolarCode.from_selection(
            arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 9), 0.5))
        rng = np.random.default_rng(3)
        erased = rng.random((180, 512)) < rng.uniform(0.4, 0.56, (180, 1))
        amb = map_fails(erased, code)
        assert 0.2 < amb.mean() < 0.9
        gen = np.stack([row_bits(code, int(i)) for i in code.info_indices])
        want = [np_gf2_rank(gen[:, ~e]) < code.k for e in erased]
        assert amb.tolist() == want

    def test_rate_zero_is_always_unique(self, arikan):
        code = PolarCode(profile=arikan, n=2, frozen=frozenset({1, 2, 3, 4}))
        y = np.full(4, ERASED, dtype=np.int8)
        assert map_decode_bec(ErasureWord(y), code) == "unique"

    def test_wrong_length(self, arikan):
        code = full_rate(arikan, 3)
        with pytest.raises(MismatchedLevel):
            map_decode_bec(ErasureWord(np.zeros(4, dtype=np.int8)), code)


class TestWilson:
    def test_against_quadratic_roots(self):
        for errors, trials in ((5, 100), (1, 37), (250, 500), (999, 1000)):
            lo, hi = wilson_interval(errors, trials)
            p = mp.mpf(errors) / trials
            zz = mp.mpf(WILSON_Z) ** 2 / trials
            roots = mp.polyroots([1 + zz, -(2 * p + zz), p * p])
            want_lo, want_hi = sorted(float(r) for r in roots)
            assert math.isclose(lo, want_lo, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(hi, want_hi, rel_tol=1e-12, abs_tol=1e-15)

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_z_constant(self):
        assert WILSON_Z == q_inverse(0.025)

    def test_domain(self):
        with pytest.raises(DomainError):
            wilson_interval(1, 0)
        with pytest.raises(DomainError):
            wilson_interval(5, 4)
        for errors, trials in ((1.5, 3), (1, 3.5), (math.nan, 3), (1, math.inf)):
            with pytest.raises(DomainError):
                wilson_interval(errors, trials)
        assert wilson_interval(1.0, np.float64(3.0)) == wilson_interval(1, 3)


class TestSimulate:
    def test_matches_per_trial_replay(self, arikan, cdf_cache, monkeypatch):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5)
        code = PolarCode.from_selection(arikan, sel)
        trials = 60
        monkeypatch.setattr(codec, "CELLS", 17 * 16)
        rep = simulate(code, 0.35, trials, seed=9)
        zeros = np.zeros(16, dtype=np.int8)
        sc_fail = map_fail = 0
        for t in range(trials):
            word = transmit_bec(zeros, 0.35, subseed(9, t))
            sc_fail += not sc_decode_bec(word, code).is_determined
            map_fail += map_decode_bec(word, code) == "ambiguous"
        assert rep.sc_errors == sc_fail
        assert rep.map_errors == map_fail
        assert rep.sc_interval == wilson_interval(sc_fail, trials)
        assert rep.map_interval == wilson_interval(map_fail, trials)

    def test_deterministic_and_seed_sensitive(self, arikan, cdf_cache, monkeypatch):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5)
        code = PolarCode.from_selection(arikan, sel)
        a = simulate(code, 0.5, 200, seed=4)
        # CELLS below N still runs one trial per chunk
        for chunk in (0, 1, 17, 64, 2048):
            monkeypatch.setattr(codec, "CELLS", chunk * 16)
            assert simulate(code, 0.5, 200, seed=4) == a
        c = simulate(code, 0.5, 200, seed=5)
        assert (a.sc_errors, a.map_errors) != (c.sc_errors, c.map_errors)

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
    def test_chunk_patterns_are_per_trial_words(self, seed):
        zeros = np.zeros(27, dtype=np.int8)
        for start, rows in ((0, 40), (2040, 16), (4090, 9)):
            erased = erasure_masks(subseeds(seed, rows, start), 27, 0.4)
            for r in range(rows):
                word = transmit_bec(zeros, 0.4, subseed(seed, start + r))
                assert np.array_equal(erased[r], word.erased_mask())

    def test_edge_cases(self, arikan, l3prof, monkeypatch):
        rate_zero = PolarCode(profile=arikan, n=4, frozen=frozenset(range(1, 17)))
        rep = simulate(rate_zero, 0.7, 50, seed=2)
        assert (rep.sc_errors, rep.map_errors) == (0, 0)
        code = PolarCode(profile=l3prof, n=2, frozen=frozenset({1, 2, 4}))
        rep = simulate(code, 0.0, 50, seed=2)
        assert (rep.sc_errors, rep.map_errors) == (0, 0)
        rep = simulate(code, 1.0, 50, seed=2)
        assert (rep.sc_errors, rep.map_errors) == (50, 50)
        # at full rate every word is a codeword: any erasure is fatal to both
        full = full_rate(l3prof, 2)
        monkeypatch.setattr(codec, "CELLS", 70 * 9)
        rep = simulate(full, 0.1, 300, seed=8)
        zeros = np.zeros(9, dtype=np.int8)
        hit = sum(transmit_bec(zeros, 0.1, subseed(8, t)).erasure_count > 0
                  for t in range(300))
        assert 0 < hit < 300
        assert (rep.sc_errors, rep.map_errors) == (hit, hit)

    def test_dominance_under_stress(self, l3prof, cdf_cache):
        # the per-trial inclusion assertion inside simulate is the check
        sel = polar_selection(cdf_cache(L3, 0.3, 3), 0.6)
        code = PolarCode.from_selection(l3prof, sel)
        rep = simulate(code, 0.6, 400, seed=21)
        assert rep.map_errors <= rep.sc_errors

    def test_report_csv_schema(self, arikan, cdf_cache):
        sel = polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5)
        code = PolarCode.from_selection(arikan, sel)
        rep = simulate(code, 0.3, 25, seed=1)
        head, row, tail = rep.to_csv().split("\n")
        assert head == ("eps,n,rate,trials,sc_errors,map_errors,sc_rate,"
                        "map_rate,sc_wilson_lo,sc_wilson_hi,map_wilson_lo,"
                        "map_wilson_hi")
        assert tail == ""
        cells = row.split(",")
        assert cells[0] == "0.29999999999999999"
        assert cells[3] == "25"
        assert float(cells[6]) == rep.sc_rate

    def test_domain(self, arikan):
        code = full_rate(arikan, 3)
        for eps in (1.5, "0.5", None, math.nan):
            with pytest.raises(DomainError):
                simulate(code, eps, 10, seed=1)
        # a bool eps is stored as the float it equals, so the report prints
        rep = simulate(code, True, 10, seed=1)
        assert type(rep.eps) is float and rep.to_csv().splitlines()[1].startswith("1,3,")
        with pytest.raises(DomainError):
            simulate(code, 0.5, 0, seed=1)
        for trials, seed in ((3.5, 1), (math.nan, 1), (3, 1.5), (3, math.inf)):
            with pytest.raises(DomainError):
                simulate(code, 0.5, trials, seed=seed)
        # integral floats and bools are stored as the ints they equal
        want = simulate(code, 0.5, 3, seed=1)
        for trials, seed in ((3.0, 1), (np.float64(3.0), np.float64(1.0)), (3, True)):
            rep = simulate(code, 0.5, trials, seed=seed)
            assert rep == want and type(rep.trials) is type(rep.seed) is int
        assert simulate(code, 0.5, True, seed=1).trials == 1

    @pytest.mark.parametrize("kernel,n", [
        (ARIKAN, 4), (ARIKAN, 7), (ARIKAN, 10), (L3, 3), (L3, 5), ("random4", 3),
    ])
    def test_counts_match_decoder_oracles(self, kernel, n, monkeypatch):
        if kernel == "random4":
            prof = random_polarizing(np.random.default_rng(41), 4)
        else:
            prof = kernel_profile(BitMatrix.from_literal(kernel))
        trials = 200
        for eps in (0.3, 0.5, 0.7):
            cdf = enumerate_level(prof.kernel, eps, n)
            for rate in (0.25, 0.5, 0.75):
                code = PolarCode.from_selection(prof, polar_selection(cdf, rate))
                # 130 + 70 trials: neither chunk fills its last 64-trial word
                monkeypatch.setattr(codec, "CELLS", 130 * code.block_length)
                rep = simulate(code, eps, trials, seed=n)
                erased = erasure_masks(subseeds(n, trials), code.block_length, eps)
                assert rep.sc_errors == sc_fails(erased, code).sum()
                assert rep.map_errors == map_fails(erased, code).sum()

    def test_memory_bounded_at_n12(self, arikan, cdf_cache):
        # 2048 trials of N = 4096 symbols span two chunks; the draw builds
        # no float matrix per trial
        code = PolarCode.from_selection(
            arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 12), 0.25))
        tracemalloc.start()
        try:
            simulate(code, 0.5, 2048, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 << 20

    def test_full_chunks_peak_under_16_mib(self, arikan, cdf_cache):
        # the same two full chunks: each is drawn into 512 KiB of packed
        # known words through one block buffer, which leaves BP's n + 1
        # layers (6.5 MiB in all) the largest arrays
        code = PolarCode.from_selection(
            arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 12), 0.25))
        tracemalloc.start()
        try:
            simulate(code, 0.5, 2048, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_map_rows_unpack_from_known_words(self, l3prof):
        # N = 27 leaves five padding bits in each trial's packed mask
        code = PolarCode(profile=l3prof, n=3, frozen=frozenset(range(1, 28, 2)))
        gen = np.stack([row_bits(code, int(i)) for i in code.info_indices])
        for rows in (1, 63, 64, 65, 130):
            seeds = subseeds(7, rows, 5)
            known = ~erasure_words(seeds, 27, 0.4)
            erased = erasure_masks(seeds, 27, 0.4)
            for pick in (np.arange(rows), np.arange(rows - 1, -1, -3), np.array([rows - 1])):
                want = [np_gf2_rank(gen[:, ~e]) < code.k for e in erased[pick]]
                assert _map_failures(known, pick, code).tolist() == want

    def test_bp_certified_chunks_skip_the_rank_test(self, arikan, cdf_cache):
        code = PolarCode.from_selection(
            arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 10), 0.25))
        simulate(code, 0.5, 200, seed=3)
        assert "_info_rows" not in code.__dict__

    def test_wide_kernel_rank_tests_every_trial(self, monkeypatch):
        prof = random_polarizing(np.random.default_rng(19), 9)
        sel = polar_selection(enumerate_level(prof.kernel, 0.4, 1), 0.5)
        code = PolarCode.from_selection(prof, sel)
        tested = []

        def counted(known, index, code):
            tested.append(len(index))
            return _map_failures(known, index, code)

        monkeypatch.setattr(codec, "_map_failures", counted)
        monkeypatch.setattr(codec, "CELLS", 128 * 9)
        rep = simulate(code, 0.4, 300, seed=6)
        assert tested == [128, 128, 44]
        erased = erasure_masks(subseeds(6, 300), 9, 0.4)
        assert rep.sc_errors == sc_fails(erased, code).sum()
        assert rep.map_errors == map_fails(erased, code).sum()
        assert rep.map_errors > 0

    def test_inclusions_are_asserted(self, arikan, cdf_cache, monkeypatch):
        code = PolarCode.from_selection(
            arikan, polar_selection(cdf_cache(ARIKAN, 0.5, 4), 0.5))

        def stuck(known, trials, code):
            return np.ones(trials, dtype=bool)

        monkeypatch.setattr(codec, "_bp_failures", stuck)
        with pytest.raises(AssertionError, match="BP undetermined but SC determined"):
            simulate(code, 0.3, 50, seed=1)
        monkeypatch.setattr(codec, "_bp_failures", lambda known, trials, code: None)
        monkeypatch.setattr(codec, "_map_failures",
                            lambda known, index, code: np.ones(len(index), dtype=bool))
        with pytest.raises(AssertionError, match="MAP ambiguous but SC determined"):
            simulate(code, 0.3, 50, seed=1)


class TestScResult:
    def test_is_determined(self):
        assert ScResult(u=np.zeros(2, dtype=np.int8),
                        undetermined=()).is_determined
        assert not ScResult(u=np.zeros(2, dtype=np.int8),
                            undetermined=(1,)).is_determined
