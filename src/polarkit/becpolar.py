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

Each element belongs to one of five classes: the three mode bands, and the
NEGLOG and COMPLOG payloads at or above ``SATURATED`` = 128.  There z (or
1 - z) is at most 2^-128, the bracket p_j(z) / z^d evaluates to its lead
count a_d exactly in float64, and the step is the affine update
lam' = d * lam - log2(a_d), bit for bit what the full polynomial gives (the
argument is next to ``SATURATED``).  Each class has one element-wise update
per branch, and three loops drive them:

- ``_expand`` builds an exact tree level: it sorts the parents once by
  class, prepares each class's shared bases (z, 1 - z, 2^-lam and their
  powers) once, and runs every branch's update on that same slice.
  ``LevelWalk`` drives it down the tree and builds every exact LevelCdf,
  so a depth sweep in ascending order expands each level once.
- ``_step`` advances elements along drawn digits: it sorts them once by
  (branch, class) and sends each group through its class's update.
- ``sample_paths`` shares an exact prefix tree among its paths: ``count``
  paths hold at most ell^k distinct states at depth k, so the largest such
  level with ell^k <= count is enumerated once and each path gathers its
  entry there by the tree index of its first k digits.  Below it, a path
  whose payload is so far above ``SATURATED`` that it stays saturated to
  the last level joins an absorbed tail, which takes the affine update
  straight from a (side, branch) table; only the rest go through ``_step``.
  Most deep element-steps are saturated (91% for 50-level Arikan paths and
  77% for 30-level L3 paths at eps 0.5), so few are left for the sort.

Every update is element-wise, so each loop's output is bit-identical to
stepping every element alone from the root.

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
from .gf2kernel import BitMatrix, determined_counts, is_polarizing, undetermined_counts
from .serialize import dumps_17g, fmt_real_lines

_LN2 = math.log(2.0)
DEFAULT_BUDGET = 2**22
_CSV_BLOCK = 4096  # sorted values per block of LevelCdf.to_csv


@dataclass(frozen=True)
class ErasurePolynomialSet:
    """Pattern-count form of the ell branch erasure polynomials of a kernel.

    ``counts[j][k]`` is the number of weight-k erasure patterns that leave
    branch j undetermined; ``comp_counts`` are the analogous counts of the
    complement polynomials q_j(d) = 1 - p_j(1-d).  These are the erasure
    counts of the derived matrix H in reverse branch order (the duality
    proved above ``gf2kernel.kernel_profile``), so the leading degrees are
    the partial distances of the kernel and of H reversed.
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

    counts, comp = undetermined_counts(m), determined_counts(m)
    # all outputs erased leave a branch undetermined, all known determine it
    lead, comp_lead = (tuple(min(k for k, a in enumerate(row) if a) for row in rows)
                       for rows in (counts, comp))
    return ErasurePolynomialSet(kernel=m, counts=counts, leading_degree=lead,
                                comp_counts=comp, comp_leading_degree=comp_lead)


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
#
# Absorbed paths.  A saturated step maps x to fl(fl(d * x) - c), with lead
# degree d >= 1 and c = log2(a_d) at most C, the largest c on either side.
# Rounding is monotone and fl(d * x) >= x, so the result is at least
# fl(x - C).  Let drop = C + 2^-20 and T_r = SATURATED + r * drop; every T_r
# is below 2^14 - 14, since r <= 900 (n * log2(ell) <= 900) and C < 14.  If
# x >= T_r - 2^-37 with r >= 1, then fl(x - C) >= T_(r-1) - 2^-37: either
# x >= 2^14 and fl(x - C) >= 2^14 - 14 is above every threshold, or the
# rounding costs at most 2^-38 and x - C >= T_(r-1) + 2^-20 - 2^-37.  The
# float threshold that sample_paths compares with (float drop included) is
# within 2^-37 of T_r, so by induction a payload at or above it with r
# levels left is at least T_r' - 2^-37 > SATURATED before each remaining
# step, r' >= 1 levels left: its class is saturated at every one, its mode
# never changes, and each step is the affine update x * lead - c of the
# (side, branch) table.  sample_paths moves such paths out of the grouped
# _step for good.
SATURATED = 128.0


def _absorb_threshold(t, r: int) -> float:
    """Payloads at or above this with r levels left stay saturated to the end
    (see SATURATED)."""
    return SATURATED + r * t.drop


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


class _Group(dict):
    """A slice x of one class's payloads with its bases, each taken once
    however many branch updates read them.  Key (0, k) is u**k and (1, k)
    is v**k for k >= 1, where u = x in the LINEAR class and 2^-x in the log
    classes and v = 1 - u; the first powers are u and v themselves."""

    def __init__(self, x, log: bool):
        self.x = x
        if not log:  # the LINEAR update reads both bases
            self[0, 1], self[1, 1] = x, 1.0 - x

    def __missing__(self, key):
        base, k = key
        if k > 1:
            power = self[base, 1] ** k
        elif base:
            power = 1.0 - self[0, 1]
        else:
            power = np.exp2(-self.x)
        self[key] = power
        return power

    def shares(self, a) -> bool:
        """Whether ``a`` is one of the bases, which other updates may read."""
        return any(a is b for b in self.values())


def _eval_terms(terms, g: _Group, x: int = 0):
    """sum coeff * x^kx * y^ky over the term triples, left to right, with
    x the base ``x`` of the group (0 for u, 1 for v) and y the other.

    Factors that are exact identities are skipped (a 1.0 coefficient, a
    zeroth power) and a first power is the base itself, so every product
    and sum is the one the full triples give, bit for bit; a term with no
    factor left is 1.0.  A single bare power is the group's own array.
    """
    acc = None
    for a, kx, ky in terms:
        t = None if a == 1.0 else a
        for key in ((x, kx), (1 - x, ky)):
            if key[1]:
                f = g[key]
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
    c = np.log2(_eval_terms(bracket, _Group(np.zeros(1), False))).item()
    return terms, lead, (None if bracket == [(1.0, 0, 0)] else bracket), c


class _EvolveTables:
    """Per-branch term lists, brackets and saturated-step constants.

    Each field is indexed by side first: side 0 holds the erasure
    polynomials p_j, which step NEGLOG payloads, and side 1 the complement
    polynomials q_j, which step COMPLOG payloads (mode = NEGLOG + side).
    ``lead`` and ``c`` are (2, ell) float64 arrays, the saturated step
    x * lead - c of every (side, branch); ``drop`` bounds how far one such
    step lowers a payload (see SATURATED).
    """

    def __init__(self, polys: ErasurePolynomialSet):
        self.ell = ell = polys.ell
        self.terms, lead, self.bracket, c = zip(*(
            zip(*(_side_tables(row, ell) for row in rows))
            for rows in (polys.counts, polys.comp_counts)
        ))
        self.lead = np.array(lead, dtype=np.float64)
        self.c = np.array(c, dtype=np.float64)
        self.drop = float(self.c.max()) + 2.0**-20  # see SATURATED


@functools.lru_cache(maxsize=8)
def _tables(polys: ErasurePolynomialSet) -> _EvolveTables:
    """The _EvolveTables of ``polys``, built once per polynomial set.

    For ``evolve_exact``, which steps one path per call.  The level loops
    build their own: kept alive in the cache, an ell = 16 kernel's tables
    raised the peak RSS of the large levels that follow by about 1 MiB.
    """
    return _EvolveTables(polys)


def _step_linear(g: _Group, j, t: _EvolveTables):
    """Branch j on LINEAR payloads z; returns canonical (mode, payload).

    Only the elements whose p (or else q) falls below 2^-SWITCH_BITS leave
    the band, so only they take a log2; the rest keep p, which is copied
    first only when it is one of the group's bases (a bare power of z).
    """
    thresh = 2.0**-SWITCH_BITS
    p = _eval_terms(t.terms[0][j], g)
    q = _eval_terms(t.terms[1][j], g, 1)
    neg = p < thresh
    comp = q < thresh
    has_neg, has_comp = neg.any(), comp.any()
    if not (has_neg or has_comp):
        return LINEAR, p
    if g.shares(p):
        p = p.copy()
    mode = np.full(len(p), LINEAR, dtype=np.int8)
    with np.errstate(divide="ignore"):
        if has_neg:
            comp &= ~neg
            mode[neg] = NEGLOG
            p[neg] = -np.log2(p[neg])
        if has_comp:
            mode[comp] = COMPLOG
            p[comp] = -np.log2(q[comp])
    return mode, p


def _step_log(g: _Group, j, t: _EvolveTables, side: int):
    """Branch j on the log payloads x of one side: lam = -log2 z on side 0
    (NEGLOG), mu = -log2(1 - z) on side 1 (COMPLOG); returns canonical
    (mode, payload)."""
    x2 = t.lead[side, j] * g.x
    bracket = t.bracket[side][j]
    if bracket is not None:  # else the bracket is exactly 1.0
        x2 -= np.log2(_eval_terms(bracket, g))
    small = x2 <= SWITCH_BITS  # re-normalize toward LINEAR
    if not small.any():
        return NEGLOG + side, x2
    d = np.exp2(-x2[small])
    x2[small] = 1.0 - d if side else d
    return np.where(small, LINEAR, NEGLOG + side), x2


def _step_saturated(g: _Group, j, t: _EvolveTables, side: int):
    """Branch j on the log payloads x >= SATURATED of one side: the affine
    step x * lead - c of the (side, branch) table (see SATURATED)."""
    x2 = g.x * t.lead[side, j]
    x2 -= t.c[side, j]
    return NEGLOG + side, x2


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


def _groups(key, sorted_p, classes: int):
    """(k, slice, group) for every non-empty key k, in key order: the slice
    of ``sorted_p`` (the payloads sorted by key) that holds key k, and its
    payloads as a group of class k % classes."""
    start = 0
    for k, end in enumerate(np.cumsum(np.bincount(key)).tolist()):
        if end > start:
            yield k, slice(start, end), _Group(sorted_p[start:end], k % classes > 0)
        start = end


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
    for k, s, g in _groups(key, sorted_p, classes):
        j, c = divmod(k, classes)
        sorted_m[s], sorted_p[s] = _CLASS_STEPS[c](g, j, t)
    modes[perm] = sorted_m
    payloads[perm] = sorted_p


def _expand(modes, payloads, t: _EvolveTables):
    """The next tree level: child j of entry v at v * ell + j.

    One stable sort by class makes each class's parents one slice; its
    bases are prepared once and every branch's update runs on that same
    slice, its results scattered to the children.  The updates are the
    ones ``_step`` runs, element-wise, so each child is bit-identical to
    stepping its parent alone.
    """
    ell = t.ell
    key = _classes(modes, payloads)
    perm = np.argsort(key, kind="stable")
    child_m = np.empty((len(modes), ell), dtype=np.int8)
    child_p = np.empty((len(modes), ell), dtype=np.float64)
    for c, s, g in _groups(key, payloads[perm], len(_CLASS_STEPS)):
        parents = perm[s]
        for j in range(ell):
            child_m[parents, j], child_p[parents, j] = _CLASS_STEPS[c](g, j, t)
    return child_m.reshape(-1), child_p.reshape(-1)


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


def _check_depth(ell: int, n) -> int:
    """The depth n as an int; raises DomainError unless it is a nonnegative
    integer (an integral float is accepted) within the float range."""
    if not (integral(n) and n >= 0):
        raise DomainError(f"level {n!r} is not a nonnegative integer")
    if n * math.log2(ell) > 900.0:
        raise DomainError(
            "requested depth would push -log2 Z beyond the valid float range"
        )
    return int(n)


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
        mode[:], payload = _CLASS_STEPS[c](_Group(payload, c > 0), int(b), t)
    return ExtendedUnitValue(int(mode[0]), float(payload[0]))


# ---------------------------------------------------------------------------
# Exact level enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelCdf:
    """All ell^n level-n erasure probabilities of a polarized BEC.

    Index i (1-based) corresponds to the branch digits (b_1..b_n) of i-1 with
    b_1 most significant.  A level is its (mode, payload) arrays in that
    order; ``neglogs_by_index`` (lambda = -log2 Z per index) and its
    ascending copy ``sorted_neglogs`` are derived from them on first read
    and kept.  ``source`` is "exact" for a full enumeration and
    "montecarlo" for an empirical level built from sampled paths.
    """

    n: int
    ell: int
    eps: float
    source: str
    _modes: np.ndarray = field(repr=False)
    _payloads: np.ndarray = field(repr=False)
    sample_seed: int | None = None

    @property
    def size(self) -> int:
        return len(self._modes)

    @property
    def is_exact(self) -> bool:
        return self.source == "exact"

    @functools.cached_property
    def neglogs_by_index(self) -> np.ndarray:
        return _neglog_array(self._modes, self._payloads)

    @functools.cached_property
    def sorted_neglogs(self) -> np.ndarray:
        return np.sort(self.neglogs_by_index)

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
        if not self.is_exact:
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
        if not self.is_exact:
            raise RequiresExactCdf("ordering needs an exact enumeration")
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
        """The sorted lambda column, in blocks of ``_CSV_BLOCK`` values so
        every transient of ``fmt_real_lines`` is bounded by the block."""
        col = self.sorted_neglogs
        return "lambda\n" + "".join(
            fmt_real_lines(col[lo:lo + _CSV_BLOCK]) for lo in range(0, self.size, _CSV_BLOCK)
        )


class LevelWalk:
    """One walk down the exact level tree of BEC(eps) under the kernel g.

    ``cdf(n)`` returns the exact level-n LevelCdf.  It runs the depth, eps
    and budget checks of ``check(n)`` when it is asked, so a sweep raises
    the first error one ``enumerate_level`` call per depth would.  A depth
    at or past the level the walk stands on continues from there; one
    behind it restarts from the root.  So an ascending sweep expands each
    level once, and every request order gives the levels that one
    ``enumerate_level`` call per depth gives, bit for bit.  The walk holds
    only the level it stands on, which the LevelCdf returned there already
    references.  ``t`` is the kernel's _EvolveTables when the caller has
    them already.
    """

    def __init__(self, g: BitMatrix, eps: float, budget: int = DEFAULT_BUDGET,
                 t: _EvolveTables | None = None):
        self.g, self.eps, self.budget = g, eps, budget
        self._t = t
        self.depth = None  # the level the walk stands on; None before the first
        self._level = None

    def check(self, n) -> int:
        """n as an int; raises DomainError for a bad depth or eps and
        BudgetExceeded when ell^n exceeds the budget."""
        n = _check_depth(self.g.ell, n)
        if not 0.0 < self.eps < 1.0:
            raise DomainError("erasure probability must lie strictly inside (0,1)")
        if self.g.ell**n > self.budget:
            raise BudgetExceeded(
                f"{self.g.ell}^{n} exceeds the enumeration budget {self.budget}")
        return n

    def _advance(self, n: int):
        """(mode, payload) arrays of level n, in tree order; n is checked."""
        if self._t is None:
            self._t = _EvolveTables(split_erasure_polynomials(self.g))
        if self.depth is None or n < self.depth:
            root = ExtendedUnitValue.from_float(self.eps)
            self.depth = 0
            self._level = (np.array([root.mode], dtype=np.int8),
                           np.array([root.payload], dtype=np.float64))
        while self.depth < n:
            self._level = _expand(*self._level, self._t)
            self.depth += 1
        return self._level

    def cdf(self, n) -> LevelCdf:
        """The exact level-n LevelCdf."""
        n = self.check(n)
        modes, payloads = self._advance(n)
        return LevelCdf(n=n, ell=self.g.ell, eps=self.eps, source="exact",
                        _modes=modes, _payloads=payloads)


def enumerate_levels(
    g: BitMatrix, eps: float, n: int, budget: int = DEFAULT_BUDGET
):
    """(mode, payload) arrays for every level 0..n, in tree order.

    Level d holds ell^d entries; entry v's children sit at v*ell + j in level
    d+1.  Raises BudgetExceeded when ell^n exceeds the node budget.
    """
    walk = LevelWalk(g, eps, budget)
    return [walk._advance(d) for d in range(walk.check(n) + 1)]


def enumerate_level(
    g: BitMatrix, eps: float, n: int, budget: int = DEFAULT_BUDGET
) -> LevelCdf:
    """Exact LevelCdf at depth n by full tree enumeration, one level at a
    time: a one-depth LevelWalk."""
    return LevelWalk(g, eps, budget).cdf(n)


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
    ``LevelWalk``), each path folds its first k digits into its tree index
    (b_1 most significant, the ``LevelCdf`` order) and gathers that
    entry's state.  Before each later level, with r levels left, the paths
    whose payload is at least ``SATURATED + r * drop`` join the absorbed
    tail at the end of the arrays, for good (see ``SATURATED``): their
    class is saturated at every remaining step, so the tail takes
    x * lead - c from the (side, branch) table, and only the other paths
    go through ``_step`` with the drawn digits.  Path ids, permuted along
    with the states and stream seeds, put entry p back on path p at the
    end.  Every update is element-wise, so the output is bit-identical to
    stepping each path alone along its digits.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("erasure probability must lie strictly inside (0,1)")
    if not (integral(count) and count >= 0):
        raise DomainError(f"path count {count!r} is not a nonnegative integer")
    count = int(count)
    n = _check_depth(g.ell, n)
    k = 0
    while k < n and g.ell ** (k + 1) <= count:
        k += 1
    t = _EvolveTables(split_erasure_polynomials(g))
    modes, payloads = LevelWalk(g, eps, t=t)._advance(k)
    subs = rng.subseeds(seed, count)
    idx = np.zeros(count, dtype=np.int64)
    for d in range(k):
        idx *= g.ell
        idx += rng.path_digits(subs, d, g.ell)
    modes, payloads = modes[idx], payloads[idx]
    del idx
    # entry i holds path ids[i] and draws from subs[i]; entries a.. are the
    # absorbed tail, with their side * ell offsets into the flat
    # (side, branch) tables in offset
    ids = np.arange(count, dtype=np.int32)
    offset = np.empty(count, dtype=np.int8)
    lead, c = t.lead.reshape(-1), t.c.reshape(-1)
    a = count
    for d in range(k, n):
        held = payloads[:a] >= _absorb_threshold(t, n - d)
        a, end = _absorb(held, a, (modes, payloads, subs, ids)), a
        del held
        np.multiply(modes[a:end] - NEGLOG, g.ell, out=offset[a:end])
        digits = rng.path_digits(subs, d, g.ell)
        _step(modes[:a], payloads[:a], digits[:a], t)
        key = digits[a:]
        key += offset[a:]
        tail = payloads[a:]
        tail *= lead[key]
        tail -= c[key]
        del digits, key  # the next level's draw reuses the room
    out = np.empty(count, dtype=[("mode", np.int8), ("payload", np.float64)])
    out["mode"][ids], out["payload"][ids] = modes, payloads
    return out


def _absorb(held, a: int, arrays) -> int:
    """Move the entries i < a with ``held[i]`` into the tail that starts at
    a, in every one of ``arrays``; returns the tail's new start.  Only the
    entries that must change places move: each held entry below the new
    start swaps with a not-held entry at or above it."""
    held = np.flatnonzero(held)
    start = a - len(held)
    active = np.ones(len(held), dtype=bool)
    active[held[held >= start] - start] = False
    src = start + np.flatnonzero(active)
    dst = held[:len(src)]
    for arr in arrays:
        arr[dst], arr[src] = arr[src], arr[dst]
    return start


def level_from_samples(
    samples: np.ndarray, g: BitMatrix, eps: float, n: int, seed: int
) -> LevelCdf:
    """Empirical LevelCdf (source 'montecarlo') from ``sample_paths``' array.

    The level holds copies of the array's mode and payload fields, and
    lambda = -log2 Z comes from ``_neglog_array`` on first read, as for the
    exact levels.  An empty sample array has no distribution and is rejected.
    """
    if len(samples) == 0:
        raise DomainError("an empirical level needs at least one sampled path")
    return LevelCdf(n=n, ell=g.ell, eps=eps, source="montecarlo",
                    _modes=samples["mode"].copy(), _payloads=samples["payload"].copy(),
                    sample_seed=seed)
