"""Square GF(2) kernels: inversion, polarization test, distance profile
and the erasure rule of one kernel node.

Rows are stored as machine-word bitmasks (bit c = column c), so Hamming
weights are popcounts and row combinations are single XORs.  Kernels have
ell <= 16, so a row span is one numpy array of at most 65536 uint16 masks.

Every erasure rule reads one table per kernel: the parities G b of all
2^ell output masks b (bit t: row t against b), whose pairs (G b, b) are the
dual codewords of the local code {(u, uG)}.  As parity(uG & b) sums the u_t
that G b marks, u_j is determined from the known outputs K, with the
earlier inputs P unknown, iff some b inside K has G b equal to 1 at row j
and 0 at every later row and every row of P.  With P empty these b are the
determiners of branch j.

A table over all 2^ell coordinate subsets is one bit per subset,
bit-packed 64 to a uint64 word.  Such a table is closed over the subset
lattice in ell whole-array passes, one per coordinate (``_lattice_or``):
a shift and mask inside every word for the six low coordinates, an OR of
word slabs for the others.
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

    def row_weight(self, i: int) -> int:
        return self.rows[i].bit_count()

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
    def _parities(self) -> np.ndarray:
        """Entry b is G b for the output mask b (bit t: row t against b),
        built by doubling over the columns."""
        gb = np.zeros(1, dtype=MASK_DTYPE)
        for c in range(self.ell):
            col = sum((r >> c & 1) << t for t, r in enumerate(self.rows))
            gb = np.concatenate((gb, gb ^ col))
        gb.setflags(write=False)
        return gb

    @cached_property
    def _determiners(self) -> tuple:
        """Per branch j, the output masks b, ascending, whose parities G b
        are 1 at row j and 0 at every later row, and those parities."""
        gb = self._parities
        masks = (np.flatnonzero(gb >> j == 1) for j in range(self.ell))
        return tuple((b, gb[b]) for b in masks)

    @cached_property
    def _subset_tables(self) -> tuple:
        """The ``determined_masks`` table, each branch's determiners closed
        upward by ell lattice passes, and the ``undetermined_counts``:
        C(ell, k) less the closure's known masks of weight ell - k."""
        ell = self.ell
        gb = self._parities
        # row by row: one (ell, 2^ell) uint16 shift raises a process's peak RSS
        det = _pack_bits(np.array([gb >> j == 1 for j in range(ell)]))
        for c in range(ell):
            _lattice_or(det, det, c)
        table = _unpack_bits(det, 1 << ell)
        table.setflags(write=False)
        counts = tuple(
            tuple(math.comb(ell, k) - row[ell - k] for k in range(ell + 1))
            for row in _weight_counts(det, ell)
        )
        return table, counts


@dataclass(frozen=True)
class BecChannel:
    """Binary erasure channel with erasure probability epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("erasure probability must lie strictly inside (0,1)")

    @property
    def capacity(self) -> float:
        return 1.0 - self.epsilon

    @property
    def bhattacharyya(self) -> float:
        return self.epsilon


def _cosets(rows):
    """Per row i, last first: (i, the masks of row_i + span(rows i+1..)).

    The cosets are built from the bottom row up by doubling: the span of
    rows i.. is the span of rows i+1.. followed by the coset of row i.  All
    of them together hold 2^ell - 1 masks.
    """
    span = np.zeros(1, dtype=MASK_DTYPE)
    for i in range(len(rows) - 1, -1, -1):
        coset = span ^ rows[i]
        yield i, coset
        span = np.concatenate((span, coset))


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


def _rank(rows) -> int:
    basis = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                rank += 1
                break
    return rank


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
    if _rank(m.rows) < m.ell:
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
    weight in the coset row_i + span(rows i+1..) (``_cosets``).
    """
    if _rank(m.rows) < m.ell:
        raise SingularMatrix("partial distances need an invertible kernel")
    out = [0] * m.ell
    for i, coset in _cosets(m.rows):
        out[i] = int(np.bitwise_count(coset).min())
    return tuple(out)


def determined_masks(m: BitMatrix) -> np.ndarray:
    """Read-only (ell, 2^ell) bool table: entry [j, K] is set iff row j
    restricted to the known-coordinate mask K is linearly independent of the
    later rows restricted to K, i.e. iff the branch-j input is determined when
    exactly the coordinates in K are known and so is every earlier input:
    iff some determiner of branch j lies inside K.

    Built once per ``BitMatrix`` instance, with ``undetermined_counts``, and
    kept on it.
    """
    return m._subset_tables[0]


def undetermined_counts(m: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """Per branch j, entry k counts the weight-k erasure patterns that leave
    the branch-j input undetermined: the pattern counts of its erasure
    polynomial."""
    determined_masks(m)  # the build runs, and is timed, under determined_masks
    return m._subset_tables[1]


def min_determining_weights(m: BitMatrix) -> tuple[int, ...]:
    """Per branch, the minimum number of known coordinates that determine it
    (ell when none do): the least k at which some weight-(ell - k) erasure
    pattern leaves it determined."""
    ell = m.ell
    return tuple(
        next((k for k in range(ell + 1) if row[ell - k] < math.comb(ell, k)), ell)
        for row in undetermined_counts(m)
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
    empirically resolved complement-side exponents per branch (the minimum
    number of known coordinates determining the branch input), matched against
    the multiset of D_i(H) in ``comp_map_consistent``; ``comp_branch_indices``
    assigns each branch its constant index by descending-degree rank.
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

    comp_deg = min_determining_weights(m)
    order = sorted(range(ell), key=lambda j: (-comp_deg[j], j))
    comp_idx = [0] * ell
    for rank, j in enumerate(order):
        comp_idx[j] = rank
    consistent = sorted(comp_deg) == sorted(h_dists)

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
        comp_map_consistent=consistent,
    )


def profile_to_json(p: KernelProfile) -> str:
    """Profile as JSON with reals at 17 significant digits."""
    obj = {"kernel": p.kernel.to_literal(), "ell": p.ell}
    obj.update((f.name, getattr(p, f.name)) for f in fields(p)[1:])
    obj["derived_h"] = p.derived_h.to_literal()
    return dumps_17g(obj, indent=2)
