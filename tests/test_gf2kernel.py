import functools
import itertools
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    equivalent_kernel,
    gf2_rank,
    kron_power,
    np_gf2_rank,
    random_invertible,
    random_polarizing,
    ref_determined,
    ref_minimal_sets,
    ref_undetermined_counts,
    row_weight,
)
from polarkit.becpolar import split_erasure_polynomials
from polarkit.errors import (
    DimensionTooLarge,
    NotPolarizing,
    SingularMatrix,
)
from polarkit.gf2kernel import (
    MASK_DTYPE,
    BitMatrix,
    _lattice_or,
    _pack_bits,
    _unpack_bits,
    determined_counts,
    determined_masks,
    gf2_independent,
    gf2_invert,
    is_polarizing,
    kernel_profile,
    minimal_determining_sets,
    partial_distances,
    profile_to_json,
    undetermined_counts,
)


def span_distance_oracle(rows, i):
    """Distance from row i to the span of rows i+1.., rows as 0/1 tuples.

    Builds the span set explicitly, one vector at a time."""
    span = {tuple([0] * len(rows[0]))}
    for r in rows[i + 1:]:
        span |= {tuple(a ^ b for a, b in zip(s, r)) for s in span}
    return min(sum(a ^ b for a, b in zip(rows[i], s)) for s in span)


def triangular_by_permutation(m):
    """True iff some column permutation makes the matrix upper triangular,
    by trying every permutation."""
    for sigma in itertools.permutations(range(m.ell)):
        seen = 0
        for i in range(1, m.ell):
            seen |= 1 << sigma[i - 1]
            if m.rows[i] & seen:
                break
        else:
            return True
    return False


def permuted_triangular(rng, ell):
    """Upper unit-triangular matrix with random columns permuted randomly."""
    a = np.triu(rng.integers(0, 2, (ell, ell)), 1) | np.eye(ell, dtype=np.int64)
    return a[:, rng.permutation(ell)]


def determined_by_rank(rows, j, known):
    """Row j is outside the span of the later rows on the columns in mask
    ``known``, by direct rank counts."""
    restricted = [r & known for r in rows]
    return gf2_rank(restricted[j:]) == gf2_rank(restricted[j + 1:]) + 1


def complement_degrees(m):
    """Per branch, the least known weight that determines it: the lowest
    nonzero weight of ``determined_counts`` (ell when there is none).  For
    a polarizing kernel it must also be the profile's
    ``comp_branch_degrees`` and the splitting's ``comp_leading_degree``."""
    got = tuple(next((k for k, c in enumerate(row) if c), m.ell) for row in determined_counts(m))
    if is_polarizing(m):
        assert kernel_profile(m).comp_branch_degrees == got, m
        assert split_erasure_polynomials(m).comp_leading_degree == got, m
    return got


def all_invertible(ell):
    for bits in range(1 << (ell * ell)):
        rows = [
            [(bits >> (r * ell + c)) & 1 for c in range(ell)]
            for r in range(ell)
        ]
        m = BitMatrix.from_rows(rows)
        if gf2_rank(list(m.rows)) == ell:
            yield m


class TestBitMatrix:
    def test_literal_roundtrip(self):
        for lit in ("10;11", "100;110;101", "1"):
            m = BitMatrix.from_literal(lit)
            assert m.to_literal() == lit
            assert BitMatrix.from_rows(m.as_lists()) == m

    def test_span_tables(self):
        # entry u of the codewords is uG, entry b of the parities G b, both
        # from the one doubling routine and read-only
        rng = np.random.default_rng(73)
        for m in (BitMatrix.from_literal("1"), BitMatrix.from_literal("100;110;101"),
                  BitMatrix(4, (0b0011, 0b0011, 0b0101, 0)), random_invertible(rng, 7)):
            cw, gb = m._codewords, m._parities
            assert cw.dtype == gb.dtype == MASK_DTYPE
            assert not cw.flags.writeable and not gb.flags.writeable
            for u in range(1 << m.ell):
                picked = [r for t, r in enumerate(m.rows) if u >> t & 1]
                assert cw[u] == functools.reduce(operator.xor, picked, 0)
                assert gb[u] == sum(((r & u).bit_count() & 1) << t for t, r in enumerate(m.rows))

    def test_row_weights(self):
        m = BitMatrix.from_literal("100;110;101")
        assert m.row_weights() == (1, 2, 2)
        assert row_weight(m, 1) == 2

    def test_transpose_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ell = int(rng.integers(1, 9))
            m = BitMatrix.from_rows(rng.integers(0, 2, (ell, ell)).tolist())
            assert m.transpose().transpose() == m
            assert np.array_equal(
                np.array(m.transpose().as_lists()),
                np.array(m.as_lists()).T,
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BitMatrix.from_literal("10;1")
        with pytest.raises(ValueError):
            BitMatrix.from_literal("1x;11")
        with pytest.raises(ValueError):
            BitMatrix.from_literal("")
        with pytest.raises(ValueError):
            BitMatrix.from_rows([[0, 2], [1, 1]])
        with pytest.raises(DimensionTooLarge):
            BitMatrix.from_rows([[1] * 17] * 17)


class TestInvert:
    def test_inverse_product_is_identity(self):
        rng = np.random.default_rng(11)
        eye = lambda ell: np.eye(ell, dtype=np.int64)
        for ell in range(1, 9):
            for _ in range(5):
                m = random_invertible(rng, ell)
                inv = gf2_invert(m)
                prod = (
                    np.array(m.as_lists()) @ np.array(inv.as_lists())
                ) % 2
                assert np.array_equal(prod, eye(ell))
                assert gf2_invert(inv) == m

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            gf2_invert(BitMatrix.from_literal("10;10"))
        with pytest.raises(SingularMatrix):
            partial_distances(BitMatrix.from_literal("11;11"))


class TestIsPolarizing:
    def test_ell2_exhaustive(self):
        good = {m.to_literal() for m in all_invertible(2) if is_polarizing(m)}
        # column-permuted lower-triangular kernels are the only 2x2 survivors
        assert good == {"10;11", "01;11"}

    def test_singular_is_not_polarizing(self):
        assert not is_polarizing(BitMatrix.from_literal("10;10"))

    def test_matches_permutation_oracle_ell3(self):
        def oracle(m):
            a = np.array(m.as_lists())
            if np_gf2_rank(a) < m.ell:
                return False
            for sigma in itertools.permutations(range(m.ell)):
                b = a[:, sigma]
                if np.all(b[np.tril_indices(m.ell, k=-1)] == 0):
                    return False
            return True

        rng = np.random.default_rng(3)
        mats = [
            BitMatrix.from_rows(rng.integers(0, 2, (3, 3)).tolist())
            for _ in range(60)
        ]
        for m in mats:
            assert is_polarizing(m) == oracle(m)

    def test_matches_permutation_oracle_up_to_ell7(self):
        mats = [
            BitMatrix(ell, tuple((bits >> (r * ell)) & ((1 << ell) - 1) for r in range(ell)))
            for ell in (1, 2, 3)
            for bits in range(1 << (ell * ell))
        ]
        rng = np.random.default_rng(29)
        for ell in range(4, 8):
            for _ in range(25):
                mats.append(BitMatrix.from_rows(rng.integers(0, 2, (ell, ell)).tolist()))
                a = permuted_triangular(rng, ell)
                mats.append(BitMatrix.from_rows(a.tolist()))
                a[rng.integers(ell), rng.integers(ell)] ^= 1
                mats.append(BitMatrix.from_rows(a.tolist()))
        outcomes = set()
        for m in mats:
            want = gf2_rank(list(m.rows)) == m.ell and not triangular_by_permutation(m)
            assert is_polarizing(m) == want, m
            outcomes.add((m.ell, want))
        assert all((ell, want) in outcomes for ell in range(2, 8) for want in (False, True))

    def test_wide_kernels(self):
        rng = np.random.default_rng(31)
        assert is_polarizing(kron_power(4))
        for ell in range(9, 17):
            assert is_polarizing(random_invertible(rng, ell))
            assert not is_polarizing(BitMatrix.from_rows(permuted_triangular(rng, ell).tolist()))
        tri = BitMatrix.from_rows(permuted_triangular(rng, 12).tolist())
        singular = BitMatrix(10, (1023, 1023) + tuple(1 << c for c in range(2, 10)))
        for m in (tri, singular):
            with pytest.raises(NotPolarizing):
                kernel_profile(m)
            with pytest.raises(NotPolarizing):
                split_erasure_polynomials(m)


class TestPartialDistances:
    def test_exhaustive_small(self):
        for ell in (2, 3):
            for m in all_invertible(ell):
                rows = [tuple(r) for r in m.as_lists()]
                want = tuple(
                    span_distance_oracle(rows, i) for i in range(ell)
                )
                assert partial_distances(m) == want

    def test_random_larger(self):
        rng = np.random.default_rng(17)
        for ell in (4, 5):
            for _ in range(50):
                m = random_invertible(rng, ell)
                rows = [tuple(r) for r in m.as_lists()]
                want = tuple(
                    span_distance_oracle(rows, i) for i in range(ell)
                )
                assert partial_distances(m) == want

    def test_known_kernels(self):
        assert partial_distances(BitMatrix.from_literal("10;11")) == (1, 2)
        assert partial_distances(
            BitMatrix.from_literal("100;110;101")
        ) == (1, 2, 2)


class TestDeterminedMasks:
    def kernels(self):
        yield BitMatrix.from_literal("10;11")
        yield BitMatrix.from_literal("100;110;101")
        rng = np.random.default_rng(23)
        for _ in range(6):
            yield random_invertible(rng, 4)

    def test_rank_oracle(self):
        for m in self.kernels():
            ell = m.ell
            a = np.array(m.as_lists())
            table = determined_masks(m)
            for K in range(1 << ell):
                cols = [c for c in range(ell) if (K >> c) & 1]
                for j in range(ell):
                    later = a[j + 1:, cols]
                    with_j = a[j:, cols]
                    want = np_gf2_rank(with_j) == np_gf2_rank(later) + 1
                    assert table[j, K] == want

    def test_monotone_in_known_set(self):
        # knowing more coordinates never loses determination
        for m in self.kernels():
            table = determined_masks(m)
            ell = m.ell
            for j in range(ell):
                for K in range(1 << ell):
                    if not table[j, K]:
                        continue
                    for c in range(ell):
                        assert table[j, K | (1 << c)]

    def test_min_weights(self):
        assert complement_degrees(BitMatrix.from_literal("10;11")) == (2, 1)
        for m in self.kernels():
            table = determined_masks(m)
            ell = m.ell
            want = tuple(
                min(
                    K.bit_count()
                    for K in range(1 << ell)
                    if table[j, K]
                )
                for j in range(ell)
            )
            assert complement_degrees(m) == want

    def test_read_only_and_built_once(self):
        m = BitMatrix.from_literal("100;110;101")
        table = determined_masks(m)
        assert table.shape == (3, 8) and table.dtype == bool
        assert not table.flags.writeable
        assert determined_masks(m) is table
        assert determined_masks(BitMatrix.from_literal("100;110;101")) is not table


class TestRandomKernelOracles:
    """The subset tables of random kernels with ell = 6..12 against direct
    rank counts and explicit spans."""

    def test_table_on_sampled_masks(self):
        rng = np.random.default_rng(37)
        for ell in range(6, 13):
            m = random_invertible(rng, ell)
            a = np.array(m.as_lists())
            table = determined_masks(m)
            full = (1 << ell) - 1
            for K in [0, full, *rng.integers(0, full, 30).tolist()]:
                cols = [c for c in range(ell) if (K >> c) & 1]
                for j in range(ell):
                    want = np_gf2_rank(a[j:, cols]) == np_gf2_rank(a[j + 1:, cols]) + 1
                    assert table[j, K] == want, (m, j, K)

    def test_partial_distances(self):
        rng = np.random.default_rng(41)
        for ell in (6, 7, 8):
            for _ in range(4):
                m = random_invertible(rng, ell)
                rows = [tuple(r) for r in m.as_lists()]
                want = tuple(span_distance_oracle(rows, i) for i in range(ell))
                assert partial_distances(m) == want

    def test_min_weights_by_scan(self):
        rng = np.random.default_rng(43)
        for ell in range(6, 13):
            m = random_invertible(rng, ell)
            want = tuple(
                next(
                    w
                    for w in range(ell + 1)
                    for cols in itertools.combinations(range(ell), w)
                    if determined_by_rank(m.rows, j, sum(1 << c for c in cols))
                )
                for j in range(ell)
            )
            assert complement_degrees(m) == want


class TestPackedSubsetTables:
    """The packed lattice passes against the elimination, strided-view and
    bincount references of ``tests/conftest.py``."""

    @staticmethod
    def singular(rng, ell):
        """A random kernel with one row the XOR of others (zero at ell = 1)."""
        rows = list(random_invertible(rng, ell).rows) if ell > 1 else [0]
        if ell > 1:
            i, k = rng.choice(ell, 2, replace=False).tolist()
            rows[i] = rows[k] ^ (rows[(k + 1) % ell] if (k + 1) % ell != i else 0)
        return BitMatrix(ell, tuple(rows))

    def kernels(self):
        rng = np.random.default_rng(53)
        for ell in range(1, 17):
            yield random_invertible(rng, ell)
            yield self.singular(rng, ell)
            if ell > 1:
                yield BitMatrix(ell, (0,) * ell)
        yield kron_power(3)
        yield kron_power(4)

    def test_match_references(self):
        singular = 0
        for m in self.kernels():
            want = ref_determined(m)
            table = determined_masks(m)
            assert np.array_equal(table, want), m
            assert minimal_determining_sets(m) == ref_minimal_sets(want), m
            assert undetermined_counts(m) == ref_undetermined_counts(want), m
            # the other side: determined masks by known weight, and its lowest
            known = np.bitwise_count(np.arange(1 << m.ell, dtype=MASK_DTYPE))
            assert determined_counts(m) == tuple(
                tuple(np.bincount(known[row], minlength=m.ell + 1).tolist()) for row in want), m
            assert complement_degrees(m) == tuple(
                int(known[row].min()) if row.any() else m.ell for row in want), m
            # the kept words: read-only, the table packed, never rebuilt
            words = m._subset_tables[0]
            assert words.dtype == np.uint64 and not words.flags.writeable
            assert words.shape == (m.ell, -(-(1 << m.ell) // 64))
            assert np.array_equal(_unpack_bits(words, 1 << m.ell), table)
            assert determined_masks(m) is table
            singular += gf2_rank(list(m.rows)) < m.ell
        assert singular == 31

    def test_padding_never_counted(self):
        # 2^ell < 64 bits leave padding in the one word of each row
        rng = np.random.default_rng(59)
        for ell in range(1, 6):
            for m in (random_invertible(rng, ell), self.singular(rng, ell)):
                table = determined_masks(m)
                assert table.shape == (ell, 1 << ell)
                counts = undetermined_counts(m)
                assert [sum(r) for r in counts] == (~table).sum(axis=1).tolist()
            # a branch whose row is in the later span is undetermined everywhere
            counts = undetermined_counts(BitMatrix(ell, (0,) * ell))
            assert counts == ((tuple(math.comb(ell, k) for k in range(ell + 1)),) * ell)
            words = _pack_bits(np.ones((1, 1 << ell), dtype=bool))
            for c in range(ell):
                _lattice_or(words, words, c)
            assert int(words[0, 0]) == (1 << (1 << ell)) - 1

    def test_lattice_or_definition(self):
        # every in-word coordinate and the word slabs at ell = 9
        rng = np.random.default_rng(61)
        for ell in (1, 3, 6, 9):
            src = rng.random((2, 1 << ell)) < 0.3
            dst = rng.random((2, 1 << ell)) < 0.3
            for c in range(ell):
                words = _pack_bits(dst)
                _lattice_or(words, _pack_bits(src), c)
                want = dst.copy()
                hold = (np.arange(1 << ell) >> c & 1).astype(bool)
                want[:, hold] |= src[:, ~hold]
                assert np.array_equal(_unpack_bits(words, 1 << ell), want), (ell, c)

    def test_min_weights_read_the_counts(self):
        rng = np.random.default_rng(67)
        profiles = [random_polarizing(rng, ell) for ell in range(2, 13)]
        for p in profiles + [kernel_profile(kron_power(4))]:
            m = p.kernel
            weights = complement_degrees(m)
            assert weights == split_erasure_polynomials(m).comp_leading_degree
            assert weights == p.comp_branch_degrees


class TestIndependence:
    """``gf2_independent`` against the conftest elimination ``gf2_rank``."""

    def test_matches_rank(self):
        rng = np.random.default_rng(71)
        assert gf2_independent([]) and gf2_independent(iter([]))
        for width in (1, 3, 8, 16, 64, 200):
            for count in (1, 2, width // 2 + 1, width, width + 1):
                rows = [int.from_bytes(rng.bytes(-(-width // 8)), "little") % (1 << width)
                        for _ in range(count)]
                cases = [rows, rows + [0], [0] + rows, rows + [rows[0]],
                         rows[:1] + rows, rows + [rows[0] ^ rows[-1]]]
                for case in cases:
                    want = gf2_rank(case) == len(case)
                    assert gf2_independent(case) == want, (width, case)
                    assert gf2_independent(iter(case)) == want

    def test_full_rank_kernels(self):
        # the rows of invertible kernels, in either order, and one more
        rng = np.random.default_rng(72)
        for ell in range(1, 17):
            rows = list(random_invertible(rng, ell).rows)
            assert gf2_independent(rows) and gf2_independent(rows[::-1])
            assert not gf2_independent(rows + [rows[0] ^ rows[-1]])


class TestSixteen:
    """Exact identities of the ell = 16 tables."""

    def test_capacity_conservation(self):
        # the branches left undetermined by an erasure pattern number its
        # weight, so summed over branches the weight-k count is k C(16, k)
        for m in (kron_power(4), random_invertible(np.random.default_rng(47), 16)):
            counts = split_erasure_polynomials(m).counts
            for k in range(17):
                assert sum(row[k] for row in counts) == k * math.comb(16, k)

    def test_g16_partial_distances(self):
        assert partial_distances(kron_power(4)) == tuple(
            2 ** i.bit_count() for i in range(16)
        )

    def test_g16_profile(self):
        p = kernel_profile(kron_power(4))
        assert p.comp_map_consistent
        assert sorted(p.comp_branch_degrees) == sorted(p.h_partial_distances)
        assert p.comp_branch_degrees == p.h_partial_distances[::-1]


class TestKernelProfile:
    def test_arikan_values(self, arikan):
        assert arikan.partial_distances == (1, 2)
        assert arikan.row_weights == (1, 2)
        assert math.isclose(arikan.exponent, 0.5, abs_tol=1e-15)
        assert math.isclose(arikan.second_exponent, 0.25, abs_tol=1e-15)
        assert math.isclose(arikan.weight_exponent, 0.5, abs_tol=1e-15)
        assert math.isclose(arikan.weight_second_exponent, 0.25, abs_tol=1e-15)
        assert math.isclose(arikan.h_exponent, 0.5, abs_tol=1e-15)
        assert math.isclose(arikan.h_second_exponent, 0.25, abs_tol=1e-15)
        # H's distances unreversed would give each branch the other's degree
        assert arikan.h_partial_distances == (1, 2)
        assert arikan.comp_branch_degrees == (2, 1)
        assert arikan.comp_branch_indices == (0, 1)
        assert arikan.comp_map_consistent
        assert arikan.c3_constant == 4.0
        assert arikan.ell == 2

    def test_l3_values(self, l3prof):
        assert l3prof.partial_distances == (1, 2, 2)
        log32 = math.log2(2) / math.log2(3)
        assert math.isclose(l3prof.exponent, 2 * log32 / 3, rel_tol=1e-14)
        assert l3prof.c3_constant == 8.0
        assert l3prof.comp_map_consistent
        assert sorted(l3prof.comp_branch_degrees) == sorted(
            l3prof.h_partial_distances
        )
        assert l3prof.comp_branch_degrees == l3prof.h_partial_distances[::-1]

    def test_derived_h_is_invertible_and_profiled(self, arikan, l3prof):
        for p in (arikan, l3prof):
            h = p.derived_h
            assert gf2_rank(list(h.rows)) == p.ell
            assert p.h_partial_distances == partial_distances(h)

    def test_exponent_moments_match_distances(self, l3prof):
        logs = [
            math.log2(d) / math.log2(3) for d in l3prof.partial_distances
        ]
        mean = sum(logs) / 3
        var = sum((x - mean) ** 2 for x in logs) / 3
        assert math.isclose(l3prof.exponent, mean, rel_tol=1e-15)
        assert math.isclose(l3prof.second_exponent, var, rel_tol=1e-14)

    def test_not_polarizing_raises(self):
        with pytest.raises(NotPolarizing):
            kernel_profile(BitMatrix.from_literal("10;01"))

    def test_json_report(self, arikan):
        doc = json.loads(profile_to_json(arikan))
        assert doc["kernel"] == "10;11"
        assert doc["partial_distances"] == [1, 2]
        assert doc["exponent"] == 0.5
        assert doc["comp_map_consistent"] is True


class TestDuality:
    """H's erasure counts are G's complement counts in reverse branch order
    (the proof is next to ``kernel_profile``), so the complement degrees are
    H's partial distances reversed."""

    @staticmethod
    def kernels():
        for ell in (2, 3):
            yield from (m for m in all_invertible(ell) if is_polarizing(m))
        rng = np.random.default_rng(79)
        for ell in range(4, 17):
            for _ in range(3 if ell <= 10 else 1):
                yield random_polarizing(rng, ell).kernel
        yield kron_power(3)
        yield kron_power(4)
        golden = Path(__file__).parent / "golden" / "kernel_analyze_rand16.json"
        yield BitMatrix.from_literal(json.loads(golden.read_text())["kernel"])

    def test_counts_identity(self):
        seen = 0
        for m in self.kernels():
            h = kernel_profile(m).derived_h
            assert undetermined_counts(h) == determined_counts(m)[::-1], m
            # H's own derived matrix is G again, so the identity runs both ways
            assert kernel_profile(h).derived_h == m
            assert determined_counts(h) == undetermined_counts(m)[::-1], m
            seen += 1
        # every polarizing ell = 2, 3 kernel, 27 random ones, G8, G16, rand16
        assert seen == 2 + 120 + 27 + 3

    def test_comp_degrees_against_reference(self):
        # the elimination reference reads neither H nor the lattice
        for m in self.kernels():
            p = kernel_profile(m)
            known = np.bitwise_count(np.arange(1 << m.ell, dtype=MASK_DTYPE))
            want = tuple(int(known[row].min()) for row in ref_determined(m))
            assert p.comp_branch_degrees == want, m
            assert p.comp_branch_degrees == p.h_partial_distances[::-1]
            assert split_erasure_polynomials(m).comp_leading_degree == want

    def test_profile_builds_no_subset_table(self):
        for m in (BitMatrix.from_literal("100;110;101"), kron_power(4),
                  random_invertible(np.random.default_rng(83), 16)):
            p = kernel_profile(m)
            assert "_subset_tables" not in vars(m)
            assert "_subset_tables" not in vars(p.derived_h)
            # the lattice is still there for the rules that need it
            assert determined_counts(m) and "_subset_tables" in vars(m)


class TestEquivalence:
    """Column permutations and adding a later row to an earlier one keep
    every erasure count, so every channel-side profile field."""

    @staticmethod
    def profiles():
        rng = np.random.default_rng(89)
        for ell in range(3, 7):
            for _ in range(4):
                yield rng, random_polarizing(rng, ell)

    def test_counts_and_profile_invariant(self):
        changed = 0
        for rng, p in self.profiles():
            m = p.kernel
            for permute, add_rows in ((True, False), (False, True), (True, True)):
                e = equivalent_kernel(rng, m, permute, add_rows)
                assert e.rows != m.rows
                q = kernel_profile(e)
                assert undetermined_counts(e) == undetermined_counts(m), (m, e)
                assert determined_counts(e) == determined_counts(m), (m, e)
                assert q.partial_distances == p.partial_distances
                assert q.exponent == p.exponent
                assert q.second_exponent == p.second_exponent
                assert q.comp_branch_degrees == p.comp_branch_degrees
                assert q.h_partial_distances == p.h_partial_distances
                if not add_rows:
                    assert q.row_weights == p.row_weights
            # adding an earlier row to a later one is no such move
            rows = list(m.rows)
            rows[-1] ^= rows[0]
            other = BitMatrix(p.ell, tuple(rows))
            changed += undetermined_counts(other) != undetermined_counts(m)
        assert changed > 0
