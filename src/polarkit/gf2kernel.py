"""Square GF(2) kernels: inversion, polarization test, distance profile
and the erasure rule of one kernel node.

Rows are stored as machine-word bitmasks (bit c = column c), so Hamming
weights are popcounts and row combinations are single XORs.  Kernels have
ell <= 16, so a row span is one numpy array of at most 65536 uint16 masks,
built by one routine, XOR doubling over a matrix's rows: the codewords uG
of the kernel, and the parities G b (bit t: row t against b) as those of
its transpose.  This module alone builds the kernel tables; every other
module reads them.

Every erasure rule reads the parities, whose pairs (G b, b) are the
dual codewords of the local code {(u, uG)}.  As parity(uG & b) sums the u_t
that G b marks, u_j is determined from the known outputs K, with the
earlier inputs P unknown, iff some b inside K has G b equal to 1 at row j
and 0 at every later row and every row of P.  With P empty these b are the
determiners of branch j.

A table over all 2^ell coordinate subsets is one bit per subset,
bit-packed 64 to a uint64 word.  Such a table is closed over the subset
lattice in ell whole-array passes, one per coordinate (``_lattice_or``):
a shift and mask inside every word for the six low coordinates, an OR of
word slabs for the others.  The closed determiners, the determination
lattice, are kept on the kernel as read-only packed words
(``BitMatrix._subset_tables``), and every subset rule is read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DimensionTooLarge, NotPolarizing, SingularMatrix
from .serialize import dumps_17g

MAX_ELL = 16
# holds every row and coordinate mask of a kernel with ell <= MAX_ELL
MASK_DTYPE = np.uint16


@dataclass(frozen=True)
class BitMatrix:
    """Square binary matrix with rows as integer bitmasks."""

    ell: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.ell < 1 or self.ell > MAX_ELL:
            raise DimensionTooLarge(f"kernel size {self.ell} outside 1..{MAX_ELL}")
        if len(self.rows) != self.ell:
            raise ValueError("row count differs from declared size")
        full = (1 << self.ell) - 1
        for r in self.rows:
            if r < 0 or r > full:
                raise ValueError("row bitmask has bits outside the matrix width")

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        """Build from an iterable of 0/1 row lists."""
        rows = [list(r) for r in rows]
        ell = len(rows)
        masks = []
        for r in rows:
            if len(r) != ell:
                raise ValueError("matrix must be square")
            m = 0
            for c, bit in enumerate(r):
                if bit not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                m |= bit << c
            masks.append(m)
        return cls(ell, tuple(masks))

    @classmethod
    def from_literal(cls, text: str) -> "BitMatrix":
        """Parse the CLI literal format: '0'/'1' rows joined by semicolons."""
        parts = [p.strip() for p in text.strip().split(";") if p.strip()]
        if not parts:
            raise ValueError("empty kernel literal")
        rows = []
        for p in parts:
            if set(p) - {"0", "1"}:
                raise ValueError(f"bad kernel row {p!r}")
            rows.append([int(ch) for ch in p])
        return cls.from_rows(rows)

    def to_literal(self) -> str:
        return ";".join(
            "".join(str((r >> c) & 1) for c in range(self.ell)) for r in self.rows
        )

    def as_lists(self) -> list[list[int]]:
        return [[(r >> c) & 1 for c in range(self.ell)] for r in self.rows]

    def row_weights(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def transpose(self) -> "BitMatrix":
        cols = []
        for c in range(self.ell):
            m = 0
            for r in range(self.ell):
                m |= ((self.rows[r] >> c) & 1) << r
            cols.append(m)
        return BitMatrix(self.ell, tuple(cols))

    def __repr__(self):
        return f"BitMatrix({self.to_literal()!r})"

    @cached_property
    def _codewords(self) -> np.ndarray:
        """Entry u is the codeword uG, built by XOR doubling over the rows:
        the span of rows 0..i is the span of rows 0..i-1 followed by its
        coset of row i."""
        cw = np.zeros(1, dtype=MASK_DTYPE)
        for row in self.rows:
            cw = np.concatenate((cw, cw ^ row))
        cw.setflags(write=False)
        return cw

    @cached_property
    def _parities(self) -> np.ndarray:
        """Entry b is G b for the output mask b (bit t: row t against b),
        the same doubling over the transpose's rows."""
        return self.transpose()._codewords

    @cached_property
    def _determiners(self) -> tuple:
        """Per branch j, the output masks b, ascending, whose parities G b
        are 1 at row j and 0 at every later row, and those parities."""
        gb = self._parities
        masks = (np.flatnonzero(gb >> j == 1) for j in range(self.ell))
        return tuple((b, gb[b]) for b in masks)

    @cached_property
    def _subset_tables(self) -> tuple:
        """The determination lattice, each branch's determiners closed
        upward by ell lattice passes, as read-only (ell, ceil(2^ell/64))
        uint64 words; the ``determined_masks`` table they unpack to; their
        set bits by known weight, the ``determined_counts``; and from the
        other side the ``undetermined_counts``, C(ell, k) less those of
        weight ell - k."""
        ell = self.ell
        gb = self._parities
        # row by row: one (ell, 2^ell) uint16 shift raises a process's peak RSS
        words = _pack_bits(np.array([gb >> j == 1 for j in range(ell)]))
        for c in range(ell):
            _lattice_or(words, words, c)
        words.setflags(write=False)
        table = _unpack_bits(words, 1 << ell)
        table.setflags(write=False)
        det = _weight_counts(words, ell)
        undet = tuple(tuple(math.comb(ell, k) - row[ell - k] for k in range(ell + 1))
                      for row in det)
        return words, table, det, undet


# for the coordinates c < 6, which index bits inside a word: the shift 2^c
# and the mask of the bits p that hold c; bit p of _WEIGHT_CLASSES[t] is set
# iff p has t ones
_IN_WORD = tuple(
    (np.uint64(1 << c), np.uint64(sum(1 << p for p in range(64) if p >> c & 1)))
    for c in range(6)
)
_WEIGHT_CLASSES = np.array(
    [sum(1 << p for p in range(64) if p.bit_count() == t) for t in range(7)], dtype=np.uint64
)


def _lattice_or(dst: np.ndarray, src: np.ndarray, c: int) -> None:
    """dst[..., K] |= src[..., K - 2^c] for every subset K holding bit c, on
    packed subset tables: bit p of word w holds subset 64 w + p.

    Bit c < 6 indexes bits inside a word: a shift by 2^c and a mask.  Bit
    c >= 6 indexes words: the odd slabs of 2^(c-6) words take the even
    slabs before them.  Padding bits past 2^ell < 64 hold subsets with a bit
    at or above ell, and so do their sources, so zero padding stays zero.
    """
    if c < 6:
        shift, mask = _IN_WORD[c]
        dst |= (src << shift) & mask
    else:
        shape = src.shape[:-1] + (-1, 2, 1 << (c - 6))
        dst.reshape(shape)[..., 1, :] |= src.reshape(shape)[..., 0, :]


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bool (..., m) along the last axis to (..., ceil(m/64)) uint64,
    bit c of word w holding entry 64 w + c."""
    m = bits.shape[-1]
    nbytes = 8 * ((m + 63) // 64)
    out = np.zeros(bits.shape[:-1] + (nbytes,), dtype=np.uint8)
    out[..., : (m + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8").astype(np.uint64, copy=False)


def _unpack_bits(words: np.ndarray, m: int) -> np.ndarray:
    """Inverse of ``_pack_bits`` for a 2-D array: (r, words) to bool (r, m)."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=m, bitorder="little").view(bool)


def _weight_counts(words: np.ndarray, ell: int) -> tuple[tuple[int, ...], ...]:
    """Per row of a packed subset table, its set bits by subset weight
    0..ell.

    Each word is first split into its seven in-word weight classes.  Then
    the word axis is folded in halves, top word bit first: the upper half's
    words hold that bit, so their counts land one weight higher.
    """
    counts = np.bitwise_count(words[:, None, :] & _WEIGHT_CLASSES[:, None])
    while counts.shape[2] > 1:
        half = counts.shape[2] // 2
        folded = np.zeros((len(words), counts.shape[1] + 1, half), dtype=np.int32)
        folded[:, :-1] = counts[..., :half]
        folded[:, 1:] += counts[..., half:]
        counts = folded
    # for ell < 6, the classes above ell hold only zero padding
    return tuple(tuple(r) for r in counts[:, : ell + 1, 0].tolist())


def gf2_independent(rows) -> bool:
    """True iff the rows, as Python ints, are linearly independent over
    GF(2): each row is reduced by the earlier ones, keyed by their leading
    bit, and the test fails as soon as one reduces to zero."""
    pivots = {}
    for v in rows:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if not v:
            return False
        pivots[v.bit_length()] = v
    return True


def gf2_invert(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2); raises SingularMatrix if none exists."""
    ell = m.ell
    # Augmented rows [M | I], eliminated to [I | M^-1].
    aug = [m.rows[i] | (1 << (ell + i)) for i in range(ell)]
    row = 0
    for col in range(ell):
        pivot = None
        for r in range(row, ell):
            if (aug[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("matrix has no inverse over GF(2)")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        for r in range(ell):
            if r != row and ((aug[r] >> col) & 1):
                aug[r] ^= aug[row]
        row += 1
    mask = (1 << ell) - 1
    return BitMatrix(ell, tuple((aug[i] >> ell) & mask for i in range(ell)))


def is_polarizing(m: BitMatrix) -> bool:
    """True iff the kernel is invertible and no column permutation of it is
    upper triangular.

    Column permutations keep the rows in place, so a triangular form is forced
    from the bottom up: each row, last first, must have exactly one 1 outside
    the columns already claimed by the rows below it, and that column is then
    claimed (Korada-Sasoglu-Urbanke, arXiv:0901.0536).  The kernel polarizes
    iff some row breaks this.
    """
    if not gf2_independent(m.rows):
        return False
    used = 0
    for row in reversed(m.rows):
        rest = row & ~used
        if rest.bit_count() != 1:
            return True
        used |= rest
    return False


def partial_distances(m: BitMatrix) -> tuple[int, ...]:
    """D_i = Hamming distance from row i to the span of rows i+1..ell-1.

    The last row's span is {0}, so D_{ell-1} is its weight; D_i is the least
    weight in the coset row_i + span(rows i+1..): the codewords uG
    (``BitMatrix._codewords``) whose lowest input bit is i.
    """
    if not gf2_independent(m.rows):
        raise SingularMatrix("partial distances need an invertible kernel")
    weights = np.bitwise_count(m._codewords)
    return tuple(int(weights[1 << i :: 2 << i].min()) for i in range(m.ell))


def determined_masks(m: BitMatrix) -> np.ndarray:
    """Read-only (ell, 2^ell) bool table: entry [j, K] is set iff row j
    restricted to the known-coordinate mask K is linearly independent of the
    later rows restricted to K, i.e. iff the branch-j input is determined when
    exactly the coordinates in K are known and so is every earlier input:
    iff some determiner of branch j lies inside K.

    Built once per ``BitMatrix`` instance with its other subset tables and
    kept on it; their readers call this first, so the build is timed here.
    """
    return m._subset_tables[1]


def determined_counts(m: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Per branch j, entry k counts the known masks of weight k that
    determine the branch-j input: the pattern counts of its complement
    polynomial q_j."""
    determined_masks(m)
    return m._subset_tables[2]


def undetermined_counts(m: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Per branch j, entry k counts the weight-k erasure patterns that leave
    the branch-j input undetermined: the pattern counts of its erasure
    polynomial."""
    determined_masks(m)
    return m._subset_tables[3]


def minimal_determining_sets(m: BitMatrix) -> tuple:
    """Per branch j, the minimal known-output sets that determine it, as a
    frozenset of frozensets of output coordinates.

    Knowing more outputs never undetermines a branch, so branch j is
    determined iff every coordinate of one of its minimal sets is known.  A
    determined set is minimal iff dropping any one coordinate leaves it
    undetermined: one lattice pass per coordinate on the kept packed words
    marks the sets that stay determined without it.
    """
    determined_masks(m)
    words = m._subset_tables[0]
    ell = m.ell
    shrinks = np.zeros(words.shape, dtype=np.uint64)
    for c in range(ell):
        _lattice_or(shrinks, words, c)
    minimal = _unpack_bits(words & ~shrinks, 1 << ell)
    return tuple(
        frozenset(
            frozenset(c for c in range(ell) if k >> c & 1)
            for k in np.flatnonzero(row).tolist()
        )
        for row in minimal
    )


def _mean_pop_var(values) -> tuple[float, float]:
    k = len(values)
    mean = math.fsum(values) / k
    var = math.fsum((v - mean) ** 2 for v in values) / k
    return mean, var


@dataclass(frozen=True)
class KernelProfile:
    """Distance/exponent summary of a polarizing kernel.

    Exponents are in base-ell logs.  ``second_exponent`` is the population
    variance (divisor ell) of log_ell D_i; the weight and derived-matrix
    variants follow the same convention.

    ``derived_h`` is the inverse of the matrix whose column k is row
    ell-1-k of the kernel, transposed; ``h_monotone`` is the literal
    D_i(H) <= D_{i-1}(H) check on its rows.  ``comp_branch_degrees`` are the
    complement-side exponents per branch: entry j, the least number of known
    coordinates that determine the branch-j input, is D_(ell-1-j)(H) by the
    duality proved above ``kernel_profile``.  So ``comp_map_consistent``,
    that these degrees are the D_i(H), holds for every profile
    ``kernel_profile`` builds; only a hand-built profile can clear it.
    ``comp_branch_indices`` assigns each branch its constant index by
    descending-degree rank.
    """

    kernel: BitMatrix
    partial_distances: tuple[int, ...]
    exponent: float
    second_exponent: float
    row_weights: tuple[int, ...]
    weight_exponent: float
    weight_second_exponent: float
    derived_h: BitMatrix
    h_partial_distances: tuple[int, ...]
    h_exponent: float
    h_second_exponent: float
    h_monotone: bool
    c3_constant: float
    comp_branch_degrees: tuple[int, ...]
    comp_branch_indices: tuple[int, ...]
    comp_map_consistent: bool

    @property
    def ell(self) -> int:
        return self.kernel.ell


# Duality of G and its derived matrix H = J (G^-1)^T, J the row reversal.
# For any b, the input v = b G^T J gives vH = b: H's local code {(v, vH)}
# is {(b G^T J, b)}, the dual {(G b, b)} of G's local code {(u, uG)} with
# the inputs reversed, H-input i being G-input j = ell-1-i.  Let r be the
# rank function of G's local code on its 2 ell coordinates E (the dimension
# of the code restricted to a set); a coordinate e is determined by the
# known coordinates X iff r(X + e) = r(X).  The dual code's rank function
# is r*(X) = |X| - r(E) + r(E - X) (matroid duality), so e is determined
# by X in the dual iff r(E - X - e) + 1 = r(E - X): iff e is NOT
# determined by E - X - e in G's code.  With the outputs S erased,
# H-branch i (e = G-input j) knows X: the outputs outside S and H's
# earlier inputs, which are G's inputs after j.  E - X - e is then S and
# G's inputs before j.  Hence
# H-branch i is undetermined under the erased set S iff G-branch j is
# determined with exactly S known, and counted by |S|:
# undetermined_counts(H)[i] = determined_counts(G)[ell-1-i], i.e.
# p^H_i = q^G_(ell-1-i).  H-branch i is undetermined under S iff S holds
# the support of some vH whose first nonzero input is v_i, so the lowest
# weight on H's side is D_i(H), and the least known weight that determines
# G-branch j is D_(ell-1-j)(H): the complement degrees are H's partial
# distances reversed.


def kernel_profile(m: BitMatrix) -> KernelProfile:
    """Full profile of a polarizing kernel; raises NotPolarizing otherwise."""
    if not is_polarizing(m):
        raise NotPolarizing(f"kernel {m.to_literal()!r} does not polarize")

    ell = m.ell
    log_ell = math.log2(ell)
    dists = partial_distances(m)
    exp_g, var_g = _mean_pop_var([math.log2(d) / log_ell for d in dists])
    weights = m.row_weights()
    exp_w, var_w = _mean_pop_var([math.log2(w) / log_ell for w in weights])

    # Column k of the defining matrix is row ell-1-k of the kernel, transposed.
    h = gf2_invert(BitMatrix(ell, m.rows[::-1]).transpose())
    h_dists = partial_distances(h)
    exp_h, var_h = _mean_pop_var([math.log2(d) / log_ell for d in h_dists])
    h_mono = all(h_dists[i] <= h_dists[i - 1] for i in range(1, ell))

    comp_deg = h_dists[::-1]
    order = sorted(range(ell), key=lambda j: (-comp_deg[j], j))
    comp_idx = [0] * ell
    for rank, j in enumerate(order):
        comp_idx[j] = rank

    return KernelProfile(
        kernel=m,
        partial_distances=dists,
        exponent=exp_g,
        second_exponent=var_g,
        row_weights=weights,
        weight_exponent=exp_w,
        weight_second_exponent=var_w,
        derived_h=h,
        h_partial_distances=h_dists,
        h_exponent=exp_h,
        h_second_exponent=var_h,
        h_monotone=h_mono,
        c3_constant=float(2**ell),
        comp_branch_degrees=comp_deg,
        comp_branch_indices=tuple(comp_idx),
        comp_map_consistent=True,
    )


def profile_to_json(p: KernelProfile) -> str:
    """Profile as JSON with reals at 17 significant digits."""
    obj = {"kernel": p.kernel.to_literal(), "ell": p.ell}
    obj.update((f.name, getattr(p, f.name)) for f in fields(p)[1:])
    obj["derived_h"] = p.derived_h.to_literal()
    return dumps_17g(obj, indent=2)
