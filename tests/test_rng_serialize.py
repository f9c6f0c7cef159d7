import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polarkit import rng
from polarkit.extval import ExtendedUnitValue
from polarkit.gf2kernel import BitMatrix
from polarkit.rng import (
    DRAW_BLOCK,
    GAMMA,
    erasure_words,
    mix64,
    path_digit_matrix,
    path_digits,
    reduce_digits,
    subseed,
    subseeds,
    uniform01,
    uniform_matrix,
)
from polarkit.serialize import csv_text, dumps_17g, fmt_real, fmt_real_lines

from conftest import raw_stream


class TestMix64:
    def test_reference_values(self):
        # splitmix64 with seed 0x0DDB0FFEE: first outputs of the reference
        # implementation state+GAMMA, finalized
        seed = 0x0DDB0FFEE
        want = [mix64((seed + (k + 1) * GAMMA) & (2**64 - 1)) for k in range(4)]
        got = raw_stream(seed, 4)
        assert [int(x) for x in got] == want

    def test_scalar_vector_agree(self):
        xs = np.array([0, 1, 2**63, 2**64 - 1, 0xDEADBEEF], dtype=np.uint64)
        got = raw_stream(0, 0)  # dummy to import path
        from polarkit.rng import _mix64_np

        assert [int(v) for v in _mix64_np(xs)] == [int(mix64(int(x))) for x in xs]

    def test_stream_windowing(self):
        a = raw_stream(42, 10)
        b = raw_stream(42, 4, start=3)
        assert np.array_equal(a[3:7], b)

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(raw_stream(1, 8), raw_stream(2, 8))


class TestDerivedStreams:
    def test_subseed_matches_vector(self):
        s = 123456789
        vec = subseeds(s, 16)
        assert [int(v) for v in vec] == [subseed(s, i) for i in range(16)]
        assert np.array_equal(subseeds(s, 5, start=9), vec[9:14])

    def test_uniform_matrix_rows_are_streams(self):
        m = uniform_matrix(7, 5, 12)
        for r in range(5):
            row = uniform01(raw_stream(subseed(7, r), 12))
            assert np.array_equal(m[r], row)

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
    def test_erasure_flags_match_uniform_test(self, seed):
        words = [seed] + [subseed(seed, r) for r in range(5)]
        u = np.array([uniform_matrix(w, 1, 40)[0] for w in words])
        # every drawn value and its successor put a threshold on a draw
        drawn = np.concatenate([u[:, :3].ravel(), np.nextafter(u[:, :3].ravel(), 2.0)])
        edges = [0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0**-53, 1.0]
        for eps in edges + [float(v) for v in drawn]:
            one, _ = unpack_words(erasure_words([seed], 40, eps), 1)
            batch, _ = unpack_words(erasure_words(words, 40, eps), len(words))
            assert np.array_equal(one, u[:1] < eps)
            assert np.array_equal(batch, u < eps)

    def test_uniform_range_and_determinism(self):
        m = uniform_matrix(99, 40, 50)
        assert np.all((m >= 0.0) & (m < 1.0))
        assert np.array_equal(m, uniform_matrix(99, 40, 50))
        # mean of 2000 uniforms within 5 sigma of 1/2
        assert abs(m.mean() - 0.5) < 5 * math.sqrt(1 / 12 / m.size)

    def test_path_digit_matrix(self):
        for ell in (2, 3, 5):
            d = path_digit_matrix(11, 30, 9, ell)
            assert d.shape == (30, 9)
            assert d.min() >= 0 and d.max() < ell
            assert np.array_equal(d, path_digit_matrix(11, 30, 9, ell))
        # prefix property: shorter paths are prefixes of longer ones
        long = path_digit_matrix(11, 30, 9, 3)
        short = path_digit_matrix(11, 30, 4, 3)
        assert np.array_equal(long[:, :4], short)

    def test_path_digits_stack_to_matrix(self):
        for count, n in ((30, 9), (0, 5), (7, 0), (0, 0)):
            for ell in (2, 3, 7):
                subs = subseeds(11, count)
                cols = [path_digits(subs, d, ell) for d in range(n)]
                stacked = np.array(cols, dtype=np.int64).reshape(n, count).T
                assert np.array_equal(stacked, path_digit_matrix(11, count, n, ell))

    def test_path_digits_are_stream_outputs(self):
        # digit d of path p is output d of the derived stream p, reduced
        subs = subseeds(5, 6)
        for p in range(6):
            want = reduce_digits(raw_stream(subseed(5, p), 12), 3)
            got = [int(path_digits(subs, d, 3)[p]) for d in range(12)]
            assert got == want.tolist()

    def test_digit_frequencies(self):
        d = path_digit_matrix(5, 200, 50, 3)
        counts = np.bincount(d.ravel(), minlength=3) / d.size
        assert np.all(np.abs(counts - 1 / 3) < 0.01)


def unpack_words(words, rows):
    """(cols, W) packed erasure words as (rows, cols) flags, plus the
    (cols, 64 W - rows) padding bits past the last row."""
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(len(words), -1).astype(bool)
    return bits[:, :rows].T, bits[:, rows:]


class TestErasureWords:
    # block sizes: the default, column blocks that end inside the 40
    # columns, and blocks narrower than one column of 65 or 130 rows
    @pytest.mark.parametrize("block", [DRAW_BLOCK, 200, 64, 1])
    @pytest.mark.parametrize("seed,start", [(0, 0), (2**64 - 1, 0), (0, 1000), (2**64 - 1, 2**40)])
    def test_matches_uniform_oracle(self, block, seed, start, monkeypatch):
        monkeypatch.setattr(rng, "DRAW_BLOCK", block)
        for rows in (1, 63, 64, 65, 130):
            seeds = subseeds(seed, rows, start)
            # the independent oracle: one word's stream at a time, as floats
            u = np.array([uniform_matrix(int(s), 1, 40)[0] for s in seeds])
            for cols in (1, 7, 40):
                for eps in (0.0, 0.4, 1.0):
                    words = erasure_words(seeds, cols, eps)
                    assert words.shape == (cols, (rows + 63) // 64)
                    assert words.dtype == np.uint64
                    flags, pad = unpack_words(words, rows)
                    assert np.array_equal(flags, u[:, :cols] < eps)
                    # padding trials are never erased, so they read as known
                    assert not pad.any()

    def test_block_layout_does_not_change_the_draw(self, monkeypatch):
        seeds = subseeds(3, 300, 17)
        want = erasure_words(seeds, 50, 0.3)
        for block in (1, 64, 100, 128, 4096):
            monkeypatch.setattr(rng, "DRAW_BLOCK", block)
            assert np.array_equal(erasure_words(seeds, 50, 0.3), want)

    def test_empty_grids(self):
        assert erasure_words(subseeds(1, 5), 0, 0.5).shape == (0, 1)
        assert erasure_words(subseeds(1, 0), 4, 0.5).shape == (4, 0)


class TestReduceDigits:
    def test_matches_wide_multiply(self):
        bits = raw_stream(3, 100)
        for ell in (2, 3, 7, 13):
            want = [(int(b) * ell) >> 64 for b in bits]
            assert [int(v) for v in reduce_digits(bits, ell)] == want

    def test_extremes(self):
        bits = np.array([0, 2**64 - 1], dtype=np.uint64)
        got = reduce_digits(bits, 5)
        assert int(got[0]) == 0 and int(got[1]) == 4

    @pytest.mark.parametrize("ell", [2, 4, 8, 16, 3, 5, 7])
    def test_powers_of_two_and_others(self, ell):
        # powers of two take a single shift; both paths must equal the wide
        # multiply at the edge words, where an off-by-one shift shows
        words = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + raw_stream(11, 200).tolist()
        got = reduce_digits(np.array(words, dtype=np.uint64), ell)
        assert got.dtype == np.int64
        assert got.tolist() == [(int(w) * ell) >> 64 for w in words]


def assert_lines(values, want=None):
    """``fmt_real_lines`` prints exactly ``fmt_real`` + newline per value
    (``want``, if given, is that list of ``fmt_real`` strings)."""
    got = fmt_real_lines(values).split("\n")
    if want is None:
        want = [fmt_real(v) for v in values.tolist()]
    want = want + [""]
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise AssertionError(f"{values[bad]!r}: {got[bad]!r} != {want[bad]!r}")


def decade_edges():
    """Every power of ten from 1e-323 to 1e308 with both float neighbours."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])


def ties_at_digit_18():
    """Doubles x whose q = x 10^(16-K) ends in exactly 1/2, so that the 17th
    digit rounds half-even.  Such a q is M 5^(16-K) / 2 for an odd M, and x =
    M / 2^(17-K) is a double for M < 2^53, which leaves -8 <= K <= 15; the
    scan takes the smallest, middle and largest M of each decade."""
    ties = []
    for k in range(-8, 16):
        five = 5 ** (16 - k)
        lo, hi = -(-2 * 10**16 // five), min(2 * 10**17 // five, 2**53)
        for m in {lo | 1, (lo + hi) // 2 | 1, (hi - 2) | 1}:
            x = m / 2 ** (17 - k)
            q = Fraction(x) * Fraction(10) ** (16 - k)
            if 10**16 <= q < 10**17 and q - math.floor(q) == Fraction(1, 2):
                ties.append(x)
    return np.array(ties)


def near_ties():
    """Doubles whose q = x 10^(16-K) lies within 2^-44 of a half-integer
    without being one, closer than the double-double's error bound.  With
    x = M 2^s, q = M a / b for the reduced fraction a / b = 2^s 10^(16-K),
    so M = (b // 2 +- 1) a^-1 mod b, lifted into [2^52, 2^53), puts q's
    fraction 1 / (2b) or 1 / b from 1/2; b passes 2^43 only for K near -5
    (b a power of two) and near 36 (b a power of five)."""
    found = []
    for k in [*range(-8, -2), *range(34, 39)]:
        s0 = math.floor(k * math.log2(10)) - 52
        for s in range(s0 - 1, s0 + 4):
            c = Fraction(2) ** s * Fraction(10) ** (16 - k)
            a, b = c.numerator, c.denominator
            if b < 2**43:
                continue
            for target in (b // 2 - 1 + b % 2, b // 2 + 1):
                r = target * pow(a, -1, b) % b
                for m in range(r + max(0, -(-(2**52 - r) // b)) * b, 2**53, b):
                    x = math.ldexp(m, s)
                    q = Fraction(x) * Fraction(10) ** (16 - k)
                    off = q - math.floor(q) - Fraction(1, 2)
                    if 10**16 <= q < 10**17 and 0 < abs(off) < Fraction(1, 2**44):
                        found.append(x)
    return np.array(found)


class TestSerialize:
    def test_fmt_real_roundtrip(self):
        for x in (0.1, 1 / 3, 2.0**-45, 1e300, -0.0, 5.0):
            assert float(fmt_real(x)) == x

    def test_fmt_real_specials(self):
        assert fmt_real(math.nan) == "nan"
        assert fmt_real(math.inf) == "inf"
        assert fmt_real(-math.inf) == "-inf"

    def test_dumps_17g_parses_and_roundtrips(self):
        obj = {
            "a": 0.1,
            "b": [1, 2.5, "x"],
            "flag": True,
            "none": None,
            "nested": {"lam": 2.0**-45},
        }
        for indent in (0, 2):
            text = dumps_17g(obj, indent=indent)
            back = json.loads(text)
            assert back["a"] == 0.1
            assert back["nested"]["lam"] == 2.0**-45
            assert back["flag"] is True and back["none"] is None

    def test_csv_text_cells(self):
        rows = [(3, "polar", 0.1, -math.inf), (-7, "", np.float64(1 / 3), 2.5)]
        assert csv_text("a,b,c,d", rows) == (
            "a,b,c,d\n"
            "3,polar,0.10000000000000001,-inf\n"
            "-7,,0.33333333333333331,2.5\n"
        )
        assert csv_text("a,b", []) == "a,b\n"
        with pytest.raises(TypeError):
            csv_text("flag", [(True,)])

    def test_numpy_integers_print_as_int(self):
        big = 2**60
        assert csv_text("a,b", [(big, np.int64(big))]) == f"a,b\n{big},{big}\n"
        assert csv_text("u", [(np.uint64(2**64 - 1),)]) == f"u\n{2**64 - 1}\n"
        assert dumps_17g({"a": np.int64(3), "b": [np.int8(-4)]}) == '{"a": 3, "b": [-4]}'
        for flag in (True, np.bool_(True)):
            with pytest.raises(TypeError):
                csv_text("flag", [(flag,)])
        with pytest.raises(TypeError):
            dumps_17g({"flag": np.bool_(True)})

    def test_dumps_17g_records(self):
        # a dataclass prints as its fields in declaration order, a kernel
        # as its literal and an extended value as its [mode, payload] pair
        @dataclasses.dataclass(frozen=True)
        class Inner:
            z: ExtendedUnitValue
            k: BitMatrix

        @dataclasses.dataclass(frozen=True)
        class Outer:
            b: int
            a: Inner
            rows: tuple

        rec = Outer(3, Inner(ExtendedUnitValue.from_neglog2(50.0),
                             BitMatrix.from_literal("10;11")), (0.1, -0.0))
        want = {"b": 3, "a": {"z": ["neglog", 50.0], "k": "10;11"}, "rows": [0.1, -0.0]}
        for indent in (0, 2):
            assert dumps_17g(rec, indent=indent) == dumps_17g(want, indent=indent)
        assert dumps_17g(rec) == (
            '{"b": 3, "a": {"z": ["neglog", 50], "k": "10;11"}, '
            '"rows": [0.10000000000000001, -0]}')

    def test_dumps_17g_specials_as_strings(self):
        assert json.loads(dumps_17g({"x": math.inf}))["x"] == "inf"

    def test_deterministic(self):
        obj = {"v": [0.1 * k for k in range(20)]}
        assert dumps_17g(obj, indent=2) == dumps_17g(obj, indent=2)

    def test_lines_random_bit_patterns(self):
        # 1M positive patterns span the kernel's domain, subnormals included;
        # 64k full patterns add the nan, inf and negatives that go to fmt_real
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**63, 1 << 20, dtype=np.uint64)
        bits = np.concatenate([bits, rng.integers(0, 2**64, 1 << 16, dtype=np.uint64)])
        values = bits.view(np.float64)
        want = [fmt_real(v) for v in values.tolist()]
        assert_lines(values, want)
        order = np.argsort(values, kind="stable")
        assert_lines(values[order], [want[i] for i in order.tolist()])

    def test_lines_runs(self):
        # sorted draws from a small pool: runs of equal values print each line
        rng = np.random.default_rng(21)
        pool = rng.integers(0, 2**64, 500, dtype=np.uint64).view(np.float64)
        assert_lines(np.sort(rng.choice(pool, 20000)))

    def test_lines_decade_edges(self):
        values = decade_edges()
        assert_lines(values)
        # the docstring's exactness argument: below each power of ten, the
        # nearest double's q = x 10^(16-K) stays more than 2^-30 under 10^16
        for k, x in zip([*range(-323, 309)] * 3, values.tolist()):
            q = Fraction(x) * Fraction(10) ** (16 - k)
            assert q >= 10**16 or 10**16 - q > Fraction(1, 2**30)

    def test_lines_integers_near_digit_edges(self):
        # 2^53, where float spacing becomes 2; 10^16 and 10^17, where the
        # 17 digits become integral and where %g turns to exponents
        values = []
        for c in (2.0**53, 1e16, 1e17):
            lo = hi = c
            for _ in range(40):
                lo, hi = np.nextafter(lo, 0), np.nextafter(hi, np.inf)
                values += [lo, hi]
            values += [c + i for i in range(-64, 65)]
        assert_lines(np.array(values))

    def test_lines_layout_switches(self):
        # %g switches between fixed and exponent form at 1e-5 / 1e-4 and at
        # 1e16 / 1e17
        tens = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
        assert fmt_real_lines(values) == (
            "9.9999999999999991e-06\n9.9999999999999991e-05\n9999999999999998\n"
            "99999999999999984\n1.0000000000000001e-05\n0.0001\n10000000000000000\n"
            "1e+17\n1.0000000000000003e-05\n0.00010000000000000002\n10000000000000002\n"
            "1.0000000000000002e+17\n"
        )
        assert_lines(values)

    def test_lines_exact_ties_round_half_even(self):
        ties = ties_at_digit_18()
        assert len(ties) >= 40
        assert_lines(ties)
        assert_lines(np.concatenate([np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))

    def test_lines_near_ties_take_fmt_real(self):
        # inside the 2^-30 band, so fmt_real decides the side of 1/2
        values = near_ties()
        assert len(values) >= 1000
        assert_lines(values)

    def test_lines_signed_zero(self):
        values = np.array([0.0, -0.0, -0.0, 0.0, 0.0, 1.5, -0.0])
        assert fmt_real_lines(values) == "0\n-0\n-0\n0\n0\n1.5\n-0\n"
        assert fmt_real_lines(np.array([])) == ""

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (Path(__file__).parent / "golden").glob("polarize_*.csv")))
    def test_lines_golden_columns(self, name):
        text = (Path(__file__).parent / "golden" / name).read_text()
        header, body = text.split("\n", 1)
        assert header == "lambda"
        assert fmt_real_lines(np.array(body.split(), dtype=np.float64)) == body

    def test_numpy_bools_raise(self):
        # a numpy bool is a bool, as Python's True is: no cell prints it as 1
        for flag in (True, np.True_, np.False_):
            with pytest.raises(TypeError):
                fmt_real(flag)
            with pytest.raises(TypeError):
                csv_text("flag", [(flag,)])
        with pytest.raises(TypeError):
            fmt_real_lines(np.array([True, False]))
