"""Exact BEC polarization for arbitrary polarizing kernels.

One kernel step splits a BEC(z) into ell synthetic channels, each again a BEC.
Branch j stays erased under an erasure pattern E exactly when row j of the
kernel, restricted to the unerased coordinates, falls in the span of the later
rows restricted there; counting patterns by weight gives the branch's erasure
polynomial

    p_j(z) = sum_k a[j][k] z^k (1-z)^(ell-k).

Everything downstream (exact level enumeration, Monte Carlo paths, interval
propagation) reduces to iterating these polynomials in the extended-precision
representation of :mod:`polarkit.extval`.  Its two log modes are the two
sides of one rule, indexed by side: side 0 steps NEGLOG payloads -log2 z
with p_j, side 1 steps COMPLOG payloads -log2(1 - z) with the complement
polynomials q_j(d) = 1 - p_j(1 - d), and mode = NEGLOG + side.  Every
per-side table and step is written once and takes the side.

One grouped stepper, ``_step``, advances every multi-element array, exact
levels and sampled paths alike: it sorts the elements once by (branch,
class) and sends each group through its class's update as one slice.  The
five classes are the three mode bands, and the NEGLOG and COMPLOG payloads
at or above ``SATURATED`` = 128.  There
z (or 1 - z) is at most 2^-128, the bracket p_j(z) / z^d evaluates to its
lead count a_d exactly in float64, and the step is the affine update
lam' = d * lam - log2(a_d), bit for bit what the full polynomial gives (the
argument is next to ``SATURATED``).  Deep levels are mostly saturated: about
65% of the element-steps of 50-level Arikan paths at eps 0.5 are.

``sample_paths`` shares an exact prefix tree among its paths: ``count``
paths hold at most ell^k distinct states at depth k, so the largest such
level with ell^k <= count is enumerated once and each path gathers its
entry there by the tree index of its first k digits.  Only the levels
below step every path; since each class update is element-wise, the result
is bit-identical to stepping every path from the root.

Branch labels follow the channel-splitting order: branch 0 is the first input
bit of the kernel.  For the 2x2 kernel 10;11 this makes branch 0 the 2z - z^2
branch and branch 1 the squaring branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import rng
from .errors import BudgetExceeded, DomainError, NotPolarizing, RequiresExactCdf, integral
from .extval import COMPLOG, LINEAR, NEGLOG, SWITCH_BITS, ExtendedUnitValue
from .gf2kernel import (
    BitMatrix,
    determined_counts,
    is_polarizing,
    min_determining_weights,
    undetermined_counts,
)
from .serialize import dumps_17g, fmt_real_lines

_LN2 = math.log(2.0)
DEFAULT_BUDGET = 2**22
_CSV_BLOCK = 4096  # sorted values per block of LevelCdf.to_csv


@dataclass(frozen=True)
class ErasurePolynomialSet:
    """Pattern-count form of the ell branch erasure polynomials of a kernel.

    ``counts[j][k]`` is the number of weight-k erasure patterns that leave
    branch j undetermined; ``comp_counts`` are the analogous counts of the
    complement polynomials q_j(d) = 1 - p_j(1-d), whose leading degrees are
    matched against the derived matrix's partial distances (see
    ``KernelProfile.comp_branch_degrees``).
    """

    kernel: BitMatrix
    counts: tuple[tuple[int, ...], ...]
    leading_degree: tuple[int, ...]
    comp_counts: tuple[tuple[int, ...], ...]
    comp_leading_degree: tuple[int, ...]

    @property
    def ell(self) -> int:
        return self.kernel.ell

    def _branch(self, j) -> int:
        """Branch j as an int; raises DomainError unless it names a branch."""
        if not (integral(j) and 0 <= j < self.ell):
            raise DomainError(f"branch {j!r} outside 0..{self.ell - 1}")
        return int(j)

    def _eval(self, side: int, j, x: float) -> float:
        """p_j(x) on side 0 or q_j(x) on side 1, in float arithmetic."""
        row = (self.counts, self.comp_counts)[side][self._branch(j)]
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"{('erasure probability', 'argument')[side]} outside [0,1]")
        ell = self.ell
        c = 1.0 - x
        return math.fsum(a * x**k * c ** (ell - k) for k, a in enumerate(row) if a)

    def erasure_prob(self, j: int, eps: float) -> float:
        """p_j(eps) evaluated in float arithmetic; eps may be 0 or 1."""
        return self._eval(0, j, eps)

    def complement_prob(self, j: int, delta: float) -> float:
        """q_j(delta) = 1 - p_j(1 - delta), evaluated from its own counts."""
        return self._eval(1, j, delta)

    def to_json(self) -> str:
        obj = {"kernel": self.kernel.to_literal(), "ell": self.ell}
        obj.update((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        return dumps_17g(obj, indent=2)


def split_erasure_polynomials(m: BitMatrix) -> ErasurePolynomialSet:
    """Exact one-step splitting of a BEC under the kernel.

    Branch j's weight-k count is the number of weight-k erasure patterns
    that leave it undetermined (``undetermined_counts``); its complement
    polynomial's weight-k count is the number of weight-k known masks that
    determine it (``determined_counts``).
    """
    if not is_polarizing(m):
        raise NotPolarizing(f"kernel {m.to_literal()!r} does not polarize")

    counts = undetermined_counts(m)
    lead = [min(k for k, a in enumerate(row) if a) for row in counts]
    return ErasurePolynomialSet(
        kernel=m,
        counts=counts,
        leading_degree=tuple(lead),
        comp_counts=determined_counts(m),
        comp_leading_degree=min_determining_weights(m),
    )


# ---------------------------------------------------------------------------
# Vectorized evolution over (mode, payload) arrays.
# ---------------------------------------------------------------------------

# Log-domain payloads at or above SATURATED take one affine step per branch.
# A NEGLOG payload lam >= 128 means z = 2^-lam <= 2^-128 (a COMPLOG payload
# mu likewise bounds 1 - z), so 1.0 - z is exactly 1.0 and the bracket
# sum_k a_k z^(k-d) (1-z)^(ell-k) starts with exactly a_d >= 1, the lead
# count.  Every later term is at most C(16, 8) * 2^-128 < 2^-114, below half
# an ulp of a_d, so each addition rounds back to a_d: the step
# d * lam - log2(bracket) is d * lam - log2(a_d) bit for bit, for every
# ell <= MAX_ELL = 16.  It also never re-normalizes, since its result is at
# least 128 - log2(12870) > SWITCH_BITS.
SATURATED = 128.0


def _canonical_terms(row, ell):
    """Term triples (coeff, x_exp, y_exp) for sum_k a_k x^k y^(ell-k).

    A polynomial that is a pure power x^D in disguise (counts equal to the
    expansion of x^D ((1-x)+x)^(ell-D), which happens e.g. for the last kernel
    row whenever its weight is below ell) collapses to the single term
    1.0 * x^D: the maps z -> z^D written both ways are equal in exact
    arithmetic but not bit for bit in floats, and bound propagation compares
    against x^D computed as a plain power.
    """
    lead = min(k for k, a in enumerate(row) if a)
    if all(
        row[lead + i] == math.comb(ell - lead, i) for i in range(ell - lead + 1)
    ):
        return [(1.0, lead, 0)], lead
    return [(float(a), k, ell - k) for k, a in enumerate(row) if a], lead


def _eval_terms(terms, x, y):
    """sum coeff * x^kx * y^ky over the term triples, left to right.

    Factors that are exact identities are skipped (a 1.0 coefficient, a
    zeroth power) and a first power is the base itself, so every product
    and sum is the one the full triples give, bit for bit; a term with no
    factor left is 1.0.
    """
    acc = None
    for a, kx, ky in terms:
        t = None if a == 1.0 else a
        for base, k in ((x, kx), (y, ky)):
            if k:
                f = base if k == 1 else base**k
                t = f if t is None else t * f
        t = 1.0 if t is None else t
        acc = t if acc is None else acc + t
    return acc


def _side_tables(row, ell):
    """(terms, lead, bracket, c) of one polynomial row.

    ``bracket`` is the terms with x^lead factored out, for the log-domain
    step, or None when that leaves exactly 1.0 (a pure power).  ``c`` is
    log2 of the bracket at (0, 1), the lead count, taken with the same
    ``np.log2`` as the general step: the saturated step subtracts it.
    """
    terms, lead = _canonical_terms(row, ell)
    bracket = [(a, kx - lead, ky) for a, kx, ky in terms]
    c = np.log2(_eval_terms(bracket, np.zeros(1), np.ones(1))).item()
    return terms, lead, (None if bracket == [(1.0, 0, 0)] else bracket), c


class _EvolveTables:
    """Per-branch term lists, brackets and saturated-step constants.

    Each field is a pair indexed by side: side 0 holds the erasure
    polynomials p_j, which step NEGLOG payloads, and side 1 the complement
    polynomials q_j, which step COMPLOG payloads (mode = NEGLOG + side).
    """

    def __init__(self, polys: ErasurePolynomialSet):
        ell = polys.ell
        self.terms, self.lead, self.bracket, self.c = zip(*(
            zip(*(_side_tables(row, ell) for row in rows))
            for rows in (polys.counts, polys.comp_counts)
        ))


@functools.lru_cache(maxsize=8)
def _tables(polys: ErasurePolynomialSet) -> _EvolveTables:
    """The _EvolveTables of ``polys``, built once per polynomial set.

    For ``evolve_exact``, which steps one path per call.  The level loops
    build their own: kept alive in the cache, an ell = 16 kernel's tables
    raised the peak RSS of the large levels that follow by about 1 MiB.
    """
    return _EvolveTables(polys)


def _step_linear(z, j, t: _EvolveTables):
    """Branch j on LINEAR payloads z; returns canonical (mode, payload).

    Only the elements whose p (or else q) falls below 2^-SWITCH_BITS leave
    the band, so only they take a log2; the rest keep p.  Like the
    saturated step, the result may reuse the storage of ``z``: p is ``z``
    itself for a single first-power branch.
    """
    thresh = 2.0**-SWITCH_BITS
    zc = 1.0 - z
    p = _eval_terms(t.terms[0][j], z, zc)
    q = _eval_terms(t.terms[1][j], zc, z)
    mode = np.full(len(p), LINEAR, dtype=np.int8)
    neg = p < thresh
    comp = q < thresh
    with np.errstate(divide="ignore"):
        if neg.any():
            comp &= ~neg
            mode[neg] = NEGLOG
            p[neg] = -np.log2(p[neg])
        if comp.any():
            mode[comp] = COMPLOG
            p[comp] = -np.log2(q[comp])
    return mode, p


def _step_log(x, j, t: _EvolveTables, side: int):
    """Branch j on the log payloads x of one side: lam = -log2 z on side 0
    (NEGLOG), mu = -log2(1 - z) on side 1 (COMPLOG); returns canonical
    (mode, payload)."""
    x2 = t.lead[side][j] * x
    bracket = t.bracket[side][j]
    if bracket is not None:  # else the bracket is exactly 1.0
        y = np.exp2(-x)
        x2 -= np.log2(_eval_terms(bracket, y, 1.0 - y))
    small = x2 <= SWITCH_BITS  # re-normalize toward LINEAR
    if small.any():
        d = np.exp2(-x2[small])
        x2[small] = 1.0 - d if side else d
    return np.where(small, LINEAR, NEGLOG + side), x2


def _step_saturated(x, j, t: _EvolveTables, side: int):
    """Branch j on the log payloads x >= SATURATED of one side, in place
    (see SATURATED)."""
    x *= t.lead[side][j]
    x -= t.c[side][j]
    return NEGLOG + side, x


# the only branch math: each class's update, indexed by class (see _classes)
_CLASS_STEPS = (
    _step_linear,
    functools.partial(_step_log, side=0),
    functools.partial(_step_log, side=1),
    functools.partial(_step_saturated, side=0),
    functools.partial(_step_saturated, side=1),
)


def _classes(mode, payload):
    """Each element's class as int8: its mode, plus 2 when the payload is at
    least SATURATED (LINEAR payloads are at most 1, so only log-domain
    payloads ever are)."""
    return mode + 2 * (payload >= SATURATED).view(np.int8)


def _step(modes, payloads, digits, t: _EvolveTables):
    """Apply branch ``digits[i]`` to element i of a (mode, payload) array
    pair, in place; inputs need not be in canonical mode bands, outputs are.

    One stable sort by ``digit * 5 + class`` makes every non-empty
    (branch j, class) group one contiguous slice of a gathered payload copy,
    which goes through that class's update once; one scatter by the
    permutation puts the results back.  Every update is element-wise, so
    each element comes out bit-identical to stepping it alone, whatever the
    grouping.
    """
    classes = len(_CLASS_STEPS)
    # below classes * MAX_ELL = 80, so int8 keys and numpy's radix sort
    key = np.multiply(digits, classes, dtype=np.int8, casting="unsafe")
    key += _classes(modes, payloads)
    perm = np.argsort(key, kind="stable")
    sorted_m = np.empty_like(modes)
    sorted_p = payloads[perm]
    start = 0
    for k, end in enumerate(np.cumsum(np.bincount(key)).tolist()):
        if end > start:
            j, c = divmod(k, classes)
            sorted_m[start:end], sorted_p[start:end] = _CLASS_STEPS[c](
                sorted_p[start:end], j, t
            )
        start = end
    modes[perm] = sorted_m
    payloads[perm] = sorted_p


def _neglog_array(mode, payload):
    """-log2(z) per element, accurate in every mode."""
    out = np.empty_like(payload)
    lin = mode == LINEAR
    neg = mode == NEGLOG
    comp = mode == COMPLOG
    if lin.any():
        out[lin] = -np.log2(payload[lin])
    if neg.any():
        out[neg] = payload[neg]
    if comp.any():
        out[comp] = -np.log1p(-np.exp2(-payload[comp])) / _LN2
    return out


def _check_depth(ell: int, n: int):
    if n < 0:
        raise DomainError("level must be nonnegative")
    if n * math.log2(ell) > 900.0:
        raise DomainError(
            "requested depth would push -log2 Z beyond the valid float range"
        )


def evolve_exact(z0, digits, polys: ErasurePolynomialSet) -> ExtendedUnitValue:
    """Exact Z after applying the branch sequence ``digits`` (first digit first).

    ``z0`` may be a float in (0,1) or an ExtendedUnitValue of a value there
    (or the saturated top); each digit must be an integer (an integral
    float is accepted) in 0..ell-1.
    """
    if not isinstance(z0, ExtendedUnitValue):
        z0 = ExtendedUnitValue.from_float(z0)
    # the step classes take every payload >= SATURATED for a log-domain one
    if z0.mode == LINEAR:
        valid = 0.0 < z0.payload < 1.0
    else:
        valid = z0.mode in (NEGLOG, COMPLOG) and z0.payload > 0.0
    if not valid:
        raise DomainError(f"start state {(z0.mode, z0.payload)} is not a value in (0,1)")
    digits = list(digits)
    _check_depth(polys.ell, len(digits))
    for b in digits:
        # checked before the int cast, which would truncate 1.7 to 1
        if not (integral(b) and 0 <= b < polys.ell):
            raise DomainError(f"digit {b!r} is not an integer in 0..{polys.ell - 1}")
    t = _tables(polys)
    mode = np.array([z0.mode], dtype=np.int8)
    payload = np.array([z0.payload], dtype=np.float64)
    for b in digits:
        # one element needs no grouping: straight through its class's update,
        # the class (see _classes) read off Python scalars
        c = int(mode[0]) + 2 * (float(payload[0]) >= SATURATED)
        mode[:], payload = _CLASS_STEPS[c](payload, int(b), t)
    return ExtendedUnitValue(int(mode[0]), float(payload[0]))


# ---------------------------------------------------------------------------
# Exact level enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelCdf:
    """All ell^n level-n erasure probabilities of a polarized BEC.

    Index i (1-based) corresponds to the branch digits (b_1..b_n) of i-1 with
    b_1 most significant; ``neglogs_by_index`` keeps that order and
    ``sorted_neglogs`` is its ascending copy.  ``source`` is "exact" for a full
    enumeration and "montecarlo" for an empirical level built from sampled
    paths.
    """

    n: int
    ell: int
    eps: float
    source: str
    neglogs_by_index: np.ndarray
    sorted_neglogs: np.ndarray
    sample_seed: int | None = None
    _modes: np.ndarray | None = field(default=None, repr=False)
    _payloads: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.neglogs_by_index)

    @property
    def is_exact(self) -> bool:
        return self.source == "exact"

    def cdf_at(self, z) -> Fraction:
        """F(n, z) = (number of indices with Z_i <= z) / count, exact rational."""
        if isinstance(z, ExtendedUnitValue):
            lam = z.neglog2
        else:
            z = float(z)
            if not 0.0 <= z <= 1.0:
                raise DomainError("cdf argument outside [0,1]")
            if z == 0.0:
                return Fraction(0, 1)
            lam = -math.log2(z)
        return self.cdf_at_neglog(lam)

    def cdf_at_neglog(self, lam: float) -> Fraction:
        """F at z = 2^-lam: fraction of indices with -log2 Z_i >= lam."""
        k = int(np.searchsorted(self.sorted_neglogs, lam, side="left"))
        return Fraction(self.size - k, self.size)

    def value_at(self, index: int) -> ExtendedUnitValue:
        """Exact Z of channel ``index`` (1-based); exact enumerations only."""
        if not self.is_exact or self._modes is None:
            raise RequiresExactCdf("per-index values need an exact enumeration")
        if not (integral(index) and 1 <= index <= self.size):
            raise DomainError(f"index {index!r} outside 1..{self.size}")
        i = int(index) - 1
        return ExtendedUnitValue(int(self._modes[i]), float(self._payloads[i]))

    def mean_z(self) -> float:
        """Mean of Z over the level (the martingale conserves this at eps)."""
        return float(np.mean(np.exp2(-self.neglogs_by_index)))

    def z_order(self) -> np.ndarray:
        """0-based positions sorted by ascending Z, ties by smaller index.

        Uses the full (mode, payload) order, not the float lambda, so deeply
        polarized values that share an underflowed lambda still rank
        correctly.  Sorted once; every call returns the same read-only array.
        """
        return self._z_order

    @functools.cached_property
    def _z_order(self) -> np.ndarray:
        if self._modes is None:
            raise RequiresExactCdf("ordering needs per-index values")
        # ascending z: NEGLOG (payload descending) < LINEAR < COMPLOG
        key0 = np.array([1, 0, 2], dtype=np.int8)[self._modes]
        key1 = np.where(self._modes == NEGLOG, -self._payloads, self._payloads)
        order = np.lexsort((np.arange(self.size), key1, key0))
        order.flags.writeable = False
        return order

    @functools.cached_property
    def z_rank(self) -> np.ndarray:
        """Inverse of ``z_order()``: entry i is index i's 0-based Z rank (read-only)."""
        rank = np.empty(self.size, dtype=np.int64)
        rank[self._z_order] = np.arange(self.size)
        rank.flags.writeable = False
        return rank

    def to_csv(self) -> str:
        """The sorted lambda column.

        The column goes in blocks of ``_CSV_BLOCK`` values, so every
        transient is bounded by the block.  Each block's distinct values
        are formatted in one ``fmt_real_lines`` call, and each run of equal
        values repeats its line; a run cut by a block edge is just
        formatted once per block.
        """
        parts = ["lambda\n"]
        for lo in range(0, self.size, _CSV_BLOCK):
            lams = self.sorted_neglogs[lo:lo + _CSV_BLOCK]
            bits = lams.view(np.uint64)  # equal bits print alike; 0.0 != -0.0
            first = np.ones(len(lams), dtype=bool)
            first[1:] = bits[1:] != bits[:-1]
            starts = np.flatnonzero(first)
            text = fmt_real_lines(lams[starts].tolist())
            if len(starts) < len(lams):
                runs = np.diff(starts, append=len(lams)).tolist()
                text = "".join(map(str.__mul__, text.splitlines(keepends=True), runs))
            parts.append(text)
        return "".join(parts)


def _levels(g: BitMatrix, eps: float, n: int, budget: int, t=None):
    """Yield ``enumerate_levels``' levels one at a time, holding no level
    beyond the one being expanded; ``t`` is the kernel's _EvolveTables
    when the caller has them already."""
    if not 0.0 < eps < 1.0:
        raise DomainError("erasure probability must lie strictly inside (0,1)")
    _check_depth(g.ell, n)
    if g.ell**n > budget:
        raise BudgetExceeded(f"{g.ell}^{n} exceeds the enumeration budget {budget}")
    if t is None:
        t = _EvolveTables(split_erasure_polynomials(g))
    root = ExtendedUnitValue.from_float(eps)
    modes = np.array([root.mode], dtype=np.int8)
    payloads = np.array([root.payload], dtype=np.float64)
    yield modes, payloads
    branches = np.arange(g.ell, dtype=np.int8)
    for _ in range(n):
        # child j of entry v at v * ell + j: each parent repeated ell times
        digits = np.tile(branches, len(modes))
        modes, payloads = np.repeat(modes, g.ell), np.repeat(payloads, g.ell)
        _step(modes, payloads, digits, t)
        yield modes, payloads


def enumerate_levels(
    g: BitMatrix, eps: float, n: int, budget: int = DEFAULT_BUDGET
):
    """(mode, payload) arrays for every level 0..n, in tree order.

    Level d holds ell^d entries; entry v's children sit at v*ell + j in level
    d+1.  Raises BudgetExceeded when ell^n exceeds the node budget.
    """
    return list(_levels(g, eps, n, budget))


def enumerate_level(
    g: BitMatrix, eps: float, n: int, budget: int = DEFAULT_BUDGET
) -> LevelCdf:
    """Exact LevelCdf at depth n by full tree enumeration, two levels at a time."""
    for modes, payloads in _levels(g, eps, n, budget):
        pass
    lams = _neglog_array(modes, payloads)
    return LevelCdf(
        n=n,
        ell=g.ell,
        eps=eps,
        source="exact",
        neglogs_by_index=lams,
        sorted_neglogs=np.sort(lams),
        _modes=modes,
        _payloads=payloads,
    )


# ---------------------------------------------------------------------------
# Monte Carlo paths.
# ---------------------------------------------------------------------------


def sample_paths(
    g: BitMatrix, eps: float, n: int, count: int, seed: int
) -> np.ndarray:
    """Final Z of ``count`` i.i.d. uniform digit paths of length n, exactly evolved.

    Returns a length-``count`` structured array with fields ``mode`` (int8)
    and ``payload`` (float64): entry p is the ExtendedUnitValue state of path
    p.  Deterministic in (seed, parameters): path p draws its digits from the
    derived splitmix64 stream p, so its digits are row p of
    ``rng.path_digit_matrix(seed, count, n, ell)``.  Each level's digit
    column is drawn inside the level loop; no (count, n) array is built.

    The first k levels come from a shared exact prefix tree: k is the
    largest depth with k <= n and ell^k <= count, so the count paths hold
    at most ell^k distinct states there.  Level k is enumerated once (see
    ``_levels``), each path folds its first k digits into its tree index
    (b_1 most significant, the ``LevelCdf`` order) and gathers that
    entry's state; each later level is one ``_step`` call with the drawn
    digits.  Every update is element-wise, so a tree entry is bit-identical
    to stepping one path alone along its digits, and so is the output.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("erasure probability must lie strictly inside (0,1)")
    if count < 0:
        raise DomainError("path count must be nonnegative")
    _check_depth(g.ell, n)
    k = 0
    while k < n and g.ell ** (k + 1) <= count:
        k += 1
    t = _EvolveTables(split_erasure_polynomials(g))
    for modes, payloads in _levels(g, eps, k, g.ell**k, t):
        pass
    subs = rng.subseeds(seed, count)
    idx = np.zeros(count, dtype=np.int64)
    for d in range(k):
        idx *= g.ell
        idx += rng.path_digits(subs, d, g.ell)
    modes, payloads = modes[idx], payloads[idx]
    del idx
    for d in range(k, n):
        _step(modes, payloads, rng.path_digits(subs, d, g.ell), t)
    out = np.empty(count, dtype=[("mode", np.int8), ("payload", np.float64)])
    out["mode"], out["payload"] = modes, payloads
    return out


def level_from_samples(
    samples: np.ndarray, g: BitMatrix, eps: float, n: int, seed: int
) -> LevelCdf:
    """Empirical LevelCdf (source 'montecarlo') from ``sample_paths``' array.

    lambda = -log2 Z comes from ``_neglog_array``, the convention of the exact
    levels.  An empty sample array has no distribution and is rejected.
    """
    if len(samples) == 0:
        raise DomainError("an empirical level needs at least one sampled path")
    lams = _neglog_array(samples["mode"], samples["payload"])
    return LevelCdf(
        n=n,
        ell=g.ell,
        eps=eps,
        source="montecarlo",
        neglogs_by_index=lams,
        sorted_neglogs=np.sort(lams),
        sample_seed=seed,
    )
