"""Square GF(2) kernels: inversion, polarization test, distance profile.

Rows are stored as machine-word bitmasks (bit c = column c), so Hamming
weights are popcounts and row combinations are single XORs.  Kernels have
ell <= 16, so the quantities defined over all 2^ell coordinate subsets (the
determination table, row spans) are whole-array numpy passes over at most
65536 uint16 masks.
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
    def _determined(self) -> np.ndarray:
        """The table behind ``determined_masks``, from the row-by-row
        elimination of every known-coordinate mask K at once.

        ``basis[h, K]`` is the reduced basis vector of K with leading bit h
        (0 when there is none).  Going from the last row up, ``rows[j] & K``
        is reduced against it from the top bit down; it is independent iff a
        nonzero remainder is left, which then joins the basis at its own
        leading bit.  Only bits of the later rows can lead a basis vector, so
        only those are reduced.
        """
        masks = np.arange(1 << self.ell, dtype=MASK_DTYPE)
        # row ell takes the zero remainders (frexp(0) has exponent 0) and is never read
        basis = np.zeros((self.ell + 1, masks.size), dtype=MASK_DTYPE)
        det = np.empty((self.ell, masks.size), dtype=bool)
        later = 0
        for j in range(self.ell - 1, -1, -1):
            w = masks & self.rows[j]
            for h in range(later.bit_length() - 1, -1, -1):
                if (later >> h) & 1:
                    w ^= basis[h] * ((w >> h) & 1)
            np.not_equal(w, 0, out=det[j])
            basis[np.frexp(w)[1] - 1, masks] = w
            later |= self.rows[j]
        det.setflags(write=False)
        return det


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

    The last row's span is {0}, so D_{ell-1} is its weight.  Spans are built
    from the bottom row up by doubling: the span of rows i.. is the span of
    rows i+1.. (the one D_i reads) followed by that span XOR row i.
    """
    if _rank(m.rows) < m.ell:
        raise SingularMatrix("partial distances need an invertible kernel")
    out = [0] * m.ell
    span = np.zeros(1, dtype=MASK_DTYPE)
    for i in range(m.ell - 1, -1, -1):
        shifted = span ^ m.rows[i]
        out[i] = int(np.bitwise_count(shifted).min())
        span = np.concatenate((span, shifted))
    return tuple(out)


def determined_masks(m: BitMatrix) -> np.ndarray:
    """Read-only (ell, 2^ell) bool table: entry [j, K] is set iff row j
    restricted to the known-coordinate mask K is linearly independent of the
    later rows restricted to K, i.e. iff the branch-j input is determined when
    exactly the coordinates in K are known.

    Built once per ``BitMatrix`` instance and kept on it.
    """
    return m._determined


def min_determining_weights(m: BitMatrix) -> tuple[int, ...]:
    """Per branch, the minimum number of known coordinates that determine it."""
    weights = np.bitwise_count(np.arange(1 << m.ell, dtype=MASK_DTYPE))
    return tuple(np.where(determined_masks(m), weights, m.ell).min(axis=1).tolist())


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
