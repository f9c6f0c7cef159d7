"""Index selection rules and the error bounds attached to a selection.

Channel index i (1-based) corresponds to the branch digits b_1..b_n of i-1
in base ell, b_1 most significant, matching the enumeration order of
becpolar.  Three selection families are provided:

  * polar: smallest exact Z first (needs a full enumeration);
  * rm: largest row weight of the n-fold kernel power first
    (channel-independent);
  * hybrid: channel-dependent on the first m digits only (Z of the depth-m
    prefix below a double-exponential threshold), channel-independent
    partial-distance sums on the rest, optionally with intermediate
    sample-mean segments between breakpoints.

All tie-breaks resolve toward the smaller channel index so selections are
reproducible; hybrid ties fall back to the prefix polar ranking first, which
makes the m = n schedule reduce to the polar rule exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .becpolar import LevelCdf
from .errors import (
    DomainError,
    IndexOutOfRange,
    MismatchedLevel,
    RequiresExactCdf,
    integral_array,
    whole,
)
from .extval import LINEAR, NEGLOG, ExtendedUnitValue, _exp2
from .gf2kernel import BitMatrix, KernelProfile, kernel_profile
from .serialize import csv_text, dumps_17g


@dataclass(frozen=True, eq=False)
class SelectionSet:
    """A chosen set of floor(ell^n * rate) channel indices.

    ``indices`` is a sorted 1-based int64 array (set semantics, array
    storage); ``metadata`` records the rule parameters, including the pad
    count ("shortfall") for hybrid rules.
    """

    n: int
    ell: int
    rate: float
    indices: np.ndarray
    rule: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "n", 0))
        object.__setattr__(self, "ell", whole(self.ell, "ell", 1))
        if not 0.0 <= self.rate <= 1.0:
            raise DomainError("rate must lie in [0, 1]")
        size = self.ell**self.n
        want = math.floor(size * self.rate)
        idx = np.asarray(integral_array(self.indices, "indices"), dtype=np.int64)
        if len(idx) != want:
            raise DomainError(
                f"selection holds {len(idx)} indices, rate demands {want}")
        if len(idx) and (idx[0] < 1 or idx[-1] > size or
                         np.any(np.diff(idx) <= 0)):
            raise DomainError("indices must be sorted, unique, in 1..ell^n")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_csv(self) -> str:
        return csv_text("index", ((int(i),) for i in self.indices))


@dataclass(frozen=True)
class SelectionBounds:
    """Error-probability bounds of one selection on one channel.

    union_bound sums the selected Z (SC upper bound); its exact -log2 is
    kept separately in union_neglog2 because the sum may exceed 1, in which
    case the unit-interval field pins at the ceiling.  sc_lower is
    max (1-sqrt(1-Z^2))/2 over the selection, dmin_upper the minimum
    selected row weight of the n-fold kernel power, and map_lower the
    root-channel bound Z^(2 dmin)/4.
    """

    union_bound: ExtendedUnitValue
    union_neglog2: float
    sc_lower: ExtendedUnitValue
    dmin_upper: int
    map_lower: ExtendedUnitValue

    def to_dict(self) -> dict:
        return {
            "union_bound": self.union_bound.as_pair(),
            "union_neglog2": self.union_neglog2,
            "sc_lower": self.sc_lower.as_pair(),
            "dmin_upper": self.dmin_upper,
            "map_lower": self.map_lower.as_pair(),
        }

    def to_json(self) -> str:
        return dumps_17g(self.to_dict(), indent=2)


def _target_size(ell: int, n: int, rate: float) -> int:
    if not 0.0 < rate <= 1.0:
        raise DomainError("rate must lie in (0, 1]")
    return math.floor(ell**n * rate)


def digit_reverse(i: int, ell: int, n: int) -> int:
    """Index whose base-ell digits (width n) are those of i, reversed.

    1-based on both sides: the digits of i-1 reversed give j-1.
    """
    ell, n, i = whole(ell, "ell", 1), whole(n, "n", 0), whole(i, "index")
    if not 1 <= i <= ell**n:
        raise IndexOutOfRange(f"index {i} outside 1..{ell}^{n}")
    x = i - 1
    r = 0
    for _ in range(n):
        r = r * ell + x % ell
        x //= ell
    return r + 1


def _digit_table(values: np.ndarray, n: int, lo: int = 0,
                 hi: int | None = None, op=np.add) -> np.ndarray:
    """Entry i-1: values[b_p] reduced by ``op`` over digit positions lo..hi-1.

    b_p is digit p of i-1 in base ell = len(values), b_0 most significant.
    The reduction starts from op's identity and runs in ascending position
    order.  Built by op.outer over the middle digits, then expanded over the
    leading and trailing ones; the result is a fresh writable array.
    """
    ell = len(values)
    hi = n if hi is None else hi
    table = np.full(1, op.identity, dtype=values.dtype)
    for _ in range(lo, hi):
        table = op.outer(table, values).ravel()
    out = np.empty((ell**lo, len(table), ell ** (n - hi)), dtype=table.dtype)
    out[...] = table[:, None]
    return out.ravel()


@functools.lru_cache(maxsize=1)
def _row_weight_table(row_weights: tuple[int, ...], n: int) -> np.ndarray:
    """Entry i-1: exact int64 row weight of index i, the product over its
    digits of the kernel row weights (read-only).

    Cached for the last (row weights, n), so the selections and bounds of
    one depth share one table.
    """
    table = _digit_table(np.array(row_weights, dtype=np.int64), n, op=np.multiply)
    table.flags.writeable = False
    return table


def polar_selection(cdf: LevelCdf, rate: float) -> SelectionSet:
    """The floor(ell^n * rate) indices of smallest exact Z."""
    if not cdf.is_exact:
        raise RequiresExactCdf("polar selection ranks exact Z values")
    k = _target_size(cdf.ell, cdf.n, rate)
    order = cdf.z_order()
    chosen = np.sort(order[:k]) + 1
    return SelectionSet(n=cdf.n, ell=cdf.ell, rate=rate, indices=chosen,
                        rule="polar", metadata={"eps": cdf.eps})


def rm_selection(g: BitMatrix, n: int, rate: float) -> SelectionSet:
    """The floor(ell^n * rate) indices of largest row weight, ties by index.

    Row weight of index i is the product over digits of the kernel row
    weights, ranked as exact integers.
    """
    n = whole(n, "level", 0)
    k = _target_size(g.ell, n, rate)
    order = np.argsort(-_row_weight_table(g.row_weights(), n), kind="stable")
    chosen = np.sort(order[:k]) + 1
    return SelectionSet(n=n, ell=g.ell, rate=rate, indices=chosen, rule="rm",
                        metadata={})


def default_prefix_depth(n: int, beta: float, profile: KernelProfile) -> int:
    """Channel-dependent prefix length ceil((log2 n + log2 log2 c)/beta).

    c is the kernel's process-condition constant; the result is clamped to
    1..n (the schedule outgrows n at desk scale).  Whether ell^m fits the
    enumeration budget is checked by the level walk that builds the prefix.
    """
    n = whole(n, "n", 1)
    if not 0.0 < beta < math.inf:
        raise DomainError("beta must be positive and finite")
    ratio = (math.log2(n) + math.log2(math.log2(profile.c3_constant))) / beta
    # compared before the ceil, which a subnormal beta's inf would overflow
    return n if ratio >= n else max(1, math.ceil(ratio))


def hybrid_selection_recursive(
    g: BitMatrix,
    n: int,
    rate: float,
    schedule,
    beta: float,
    epsilon_slack: float,
    t: float,
    cdf_prefix: LevelCdf | None = None,
    pad_cdf: LevelCdf | None = None,
) -> SelectionSet:
    """Segmented hybrid rule over breakpoints m_0 < m_1 < ... <= n.

    Keeps indices whose depth-m_0 prefix has Z below 2^(-2^(beta*m_0))
    (channel-dependent; cdf_prefix must be the exact depth-m_0 enumeration,
    or None when m_0 = 0), whose intermediate segments each have sample-mean
    log2 partial distance >= E' - epsilon_slack, and whose final segment sum
    clears (n-m)E' + t*sqrt((n-m)V'), with E' = E log2(ell) and
    V' = V (log2 ell)^2.  Oversized candidate sets keep the largest suffix
    sums (ties: prefix polar rank, then index); undersized ones are padded
    from pad_cdf's polar ranking when given, else by the channel-independent
    scores, recording the pad count as metadata["shortfall"].
    """
    ell = g.ell
    n = whole(n, "n")
    schedule = [whole(m, "breakpoint") for m in schedule]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("schedule must be a strictly increasing sequence")
    if schedule[0] < 0 or schedule[-1] > n:
        raise DomainError("breakpoints must lie in 0..n")
    m0 = schedule[0]
    if m0 == 0:
        if cdf_prefix is not None:
            raise MismatchedLevel("m = 0 takes no prefix enumeration")
    else:
        if cdf_prefix is None:
            raise DomainError("m > 0 needs the exact depth-m enumeration")
        if not cdf_prefix.is_exact:
            raise RequiresExactCdf("prefix cdf must be an exact enumeration")
        if cdf_prefix.ell != ell or cdf_prefix.n != m0:
            raise MismatchedLevel(
                f"prefix cdf is depth {cdf_prefix.n}, schedule starts at {m0}")
    prof = kernel_profile(g)
    e2 = prof.exponent * math.log2(ell)
    v2 = prof.second_exponent * math.log2(ell) ** 2
    if not 0.0 < beta < e2:
        raise DomainError(f"beta must lie in (0, {e2}) for this kernel")
    if math.isnan(t) or math.isinf(t):
        raise DomainError("t must be finite")
    k = _target_size(ell, n, rate)
    logd = np.log2(np.array(prof.partial_distances, dtype=np.float64))

    if m0 > 0:
        reps = ell ** (n - m0)
        mask = np.repeat(cdf_prefix.neglogs_by_index > 2.0 ** (beta * m0), reps)
        rank_pref = np.repeat(cdf_prefix.z_rank, reps)
    else:
        mask = np.ones(ell**n, dtype=bool)
        rank_pref = np.zeros(ell**n, dtype=np.int64)
    for a, b in zip(schedule, schedule[1:]):
        mask &= _digit_table(logd, n, a, b) >= (b - a) * (e2 - epsilon_slack)
    last = schedule[-1]
    h_need = (n - last) * e2 + t * math.sqrt((n - last) * v2)
    mask &= _digit_table(logd, n, last) >= h_need

    score = _digit_table(logd, n, m0)
    cand = np.flatnonzero(mask)
    sub = np.lexsort((cand, rank_pref[cand], -score[cand]))
    chosen = cand[sub[:k]]
    shortfall = k - len(chosen)
    if shortfall > 0:
        rest = np.flatnonzero(~mask)
        if pad_cdf is not None:
            if not pad_cdf.is_exact:
                raise RequiresExactCdf("pad cdf must be an exact enumeration")
            if pad_cdf.ell != ell or pad_cdf.n != n:
                raise MismatchedLevel("pad cdf must be a full-depth enumeration")
            rsub = np.argsort(pad_cdf.z_rank[rest], kind="stable")
        else:
            rsub = np.lexsort((rest, rank_pref[rest], -score[rest]))
        chosen = np.concatenate([chosen, rest[rsub[:shortfall]]])
    meta = {
        "schedule": tuple(schedule),
        "beta": beta,
        "epsilon_slack": epsilon_slack,
        "t": t,
        "shortfall": int(max(shortfall, 0)),
    }
    return SelectionSet(n=n, ell=ell, rate=rate,
                        indices=np.sort(chosen) + 1, rule="hybrid",
                        metadata=meta)


def hybrid_selection(cdf_prefix: LevelCdf | None, g: BitMatrix, n: int,
                     rate: float, beta: float, t: float,
                     pad_cdf: LevelCdf | None = None) -> SelectionSet:
    """Two-part hybrid rule: depth-m prefix threshold, then suffix sums.

    The single-breakpoint case of hybrid_selection_recursive; m is the depth
    of cdf_prefix (0 when None, making the rule channel-independent).
    """
    m = 0 if cdf_prefix is None else cdf_prefix.n
    return hybrid_selection_recursive(
        g, n, rate, [m], beta, 0.0, t,
        cdf_prefix=cdf_prefix, pad_cdf=pad_cdf)


def _sc_lower_from_z(z: ExtendedUnitValue) -> ExtendedUnitValue:
    # (1 - sqrt(1 - z^2))/2 without cancellation in any band
    if z.mode == NEGLOG:
        # z^2/4 up to a factor 1 + O(z^2); exact at payload resolution
        return ExtendedUnitValue.from_neglog2(2.0 * z.payload + 2.0)
    if z.mode == LINEAR:
        p = z.payload
        v = p * p / (2.0 * (1.0 + math.sqrt((1.0 - p) * (1.0 + p))))
        return ExtendedUnitValue.from_float(v)
    d = _exp2(-z.payload)  # 1 - z
    return ExtendedUnitValue.from_float(0.5 * (1.0 - math.sqrt(d * (2.0 - d))))


def selection_bounds(sel: SelectionSet, cdf: LevelCdf,
                     profile: KernelProfile, root_z: float) -> SelectionBounds:
    """Union/SC-lower/dmin/MAP-lower bounds of a selection.

    The union bound is a compensated sum of the selected Z; when every term
    is deeply polarized the sum is assembled in the -log2 domain instead so
    nothing underflows.
    """
    if not cdf.is_exact:
        raise RequiresExactCdf("bounds need exact per-index values")
    if cdf.n != sel.n or cdf.ell != sel.ell or profile.ell != sel.ell:
        raise MismatchedLevel("selection, cdf and profile disagree on n/ell")
    if not 0.0 < root_z < 1.0:
        raise DomainError("root_z must lie in (0,1)")
    if sel.size == 0:
        raise DomainError("bounds of an empty selection are undefined")
    sel0 = sel.indices - 1
    lam = cdf.neglogs_by_index[sel0]

    total = math.fsum(np.exp2(-lam))
    if total >= 2.0**-40:
        union_neglog2 = -math.log2(total)
        union = (ExtendedUnitValue.top() if total >= 1.0
                 else ExtendedUnitValue.from_float(total))
    else:
        m = float(lam.min())
        s = math.fsum(np.exp2(m - lam))
        union_neglog2 = m - math.log2(s)
        union = ExtendedUnitValue.from_neglog2(union_neglog2)

    zmax = cdf.value_at(int(sel0[np.argmax(cdf.z_rank[sel0])]) + 1)
    sc_lower = _sc_lower_from_z(zmax)

    dmin = int(_row_weight_table(profile.row_weights, sel.n)[sel0].min())

    zp = ExtendedUnitValue.from_float(root_z).pow_int(2 * dmin)
    if zp.mode == NEGLOG:
        map_lower = ExtendedUnitValue.from_neglog2(zp.payload + 2.0)
    else:
        map_lower = ExtendedUnitValue.from_float(zp.value / 4.0)
    return SelectionBounds(union_bound=union, union_neglog2=union_neglog2,
                           sc_lower=sc_lower, dmin_upper=dmin,
                           map_lower=map_lower)


def overlap_fraction(a: SelectionSet, b: SelectionSet) -> float:
    """|a intersect b| / ell^n."""
    if a.n != b.n or a.ell != b.ell:
        raise MismatchedLevel("selections live at different levels")
    common = np.intersect1d(a.indices, b.indices, assume_unique=True)
    return len(common) / a.ell**a.n
