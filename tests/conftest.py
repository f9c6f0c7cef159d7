import math
import sys

import mpmath as mp
import numpy as np
import pytest

from polarkit import rng
from polarkit.asymptotics import _phi, q_function, q_inverse
from polarkit.becpolar import enumerate_level, split_erasure_polynomials
from polarkit.codec import BP_MAX_ELL, ERASED
from polarkit.construct import _digit_table
from polarkit.errors import AssumptionUnmet, DomainError, MismatchedLevel, NotPolarizing
from polarkit.extval import COMPLOG, LINEAR, NEGLOG, SWITCH_BITS, ExtendedUnitValue
from polarkit.gf2kernel import (
    MASK_DTYPE,
    BitMatrix,
    KernelProfile,
    _pack_bits,
    _unpack_bits,
    determined_masks,
    kernel_profile,
)
from polarkit.serialize import dumps_17g

# one precision for every mp-based oracle; the deep-recursion comparisons
# need the most, and extra digits never hurt the rest
mp.mp.dps = 80

ARIKAN = "10;11"
L3 = "100;110;101"


@pytest.fixture(scope="session")
def arikan():
    return kernel_profile(BitMatrix.from_literal(ARIKAN))


@pytest.fixture(scope="session")
def l3prof():
    return kernel_profile(BitMatrix.from_literal(L3))


@pytest.fixture(scope="session")
def cdf_cache():
    """Exact level CDFs keyed by (kernel literal, eps, n), built once."""
    cache = {}

    def get(literal: str, eps: float, n: int):
        key = (literal, eps, n)
        if key not in cache:
            cache[key] = enumerate_level(BitMatrix.from_literal(literal), eps, n)
        return cache[key]

    return get


def np_gf2_rank(a: np.ndarray) -> int:
    """GF(2) rank by dense elimination on a 0/1 array."""
    a = a.copy().astype(np.int64) % 2
    r = 0
    for c in range(a.shape[1]):
        piv = np.flatnonzero(a[r:, c])
        if len(piv) == 0:
            continue
        p = r + piv[0]
        a[[r, p]] = a[[p, r]]
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        a[hit] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def gf2_rank(vectors) -> int:
    table = {}
    r = 0
    for v in vectors:
        while v:
            b = v.bit_length() - 1
            if b not in table:
                table[b] = v
                r += 1
                break
            v ^= table[b]
    return r


def random_invertible(rng: np.random.Generator, ell: int) -> BitMatrix:
    """Uniform invertible ell x ell bit matrix by rejection."""
    while True:
        rows = rng.integers(0, 2, (ell, ell))
        m = BitMatrix.from_rows(rows.tolist())
        if gf2_rank(list(m.rows)) == ell:
            return m


def random_polarizing(rng: np.random.Generator, ell: int) -> KernelProfile:
    """Profile of a uniform invertible ell x ell kernel that polarizes."""
    while True:
        try:
            return kernel_profile(random_invertible(rng, ell))
        except NotPolarizing:
            continue


def kron_power(power: int) -> BitMatrix:
    """The power-fold Kronecker power of the 2x2 kernel 10;11."""
    g = np.array([[1, 0], [1, 1]])
    a = g
    for _ in range(power - 1):
        a = np.kron(a, g)
    return BitMatrix.from_rows(a.tolist())


def raw_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 stream for ``seed``."""
    with np.errstate(over="ignore"):
        ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        ctr *= np.uint64(rng.GAMMA)
        ctr += np.uint64(seed & rng._MASK)
    return rng._mix64_np(ctr)


def row_weight(m: BitMatrix, i: int) -> int:
    """Weight of row i of m."""
    return m.rows[i].bit_count()


def as_pairs(state) -> dict:
    """An IntervalState's bounds as (mode, payload) pairs."""
    return {"lo": state.lo.as_pair(), "hi": state.hi.as_pair()}


def check_min_weight_row(sel, profile: KernelProfile, n: int, rate: float,
                         channel_I: float, epsilon_slack: float) -> bool:
    """True iff some selected row has log_ell weight sum below the
    E_w / V_w threshold at quantile Q^{-1}(rate/I) + slack."""
    if n != sel.n or profile.ell != sel.ell:
        raise MismatchedLevel("selection and profile disagree on n/ell")
    if not 0.0 < rate < channel_I <= 1.0:
        raise DomainError("need 0 < rate < channel_I <= 1")
    logw_ell = np.log2(profile.row_weights) / math.log2(sel.ell)
    score = _digit_table(logw_ell, sel.n)[sel.indices - 1]
    threshold = (n * profile.weight_exponent
                 + math.sqrt(n * profile.weight_second_exponent)
                 * (q_inverse(rate / channel_I) + epsilon_slack))
    return bool(score.min() <= threshold)


def selection_report_json(sel, bounds=None) -> str:
    """A selection's JSON metadata block: rule, parameters, optional bounds."""
    doc = {
        "n": sel.n,
        "ell": sel.ell,
        "rate": sel.rate,
        "count": sel.size,
        "rule": sel.rule,
        "metadata": dict(sorted(sel.metadata.items())),
    }
    if bounds is not None:
        doc["bounds"] = bounds
    return dumps_17g(doc, indent=2)


def equivalent_kernel(rng: np.random.Generator, m: BitMatrix, permute: bool = True,
                      add_rows: bool = True) -> BitMatrix:
    """A kernel other than m but equivalent to it by the two moves that keep
    its erasure and complement counts: ell additions of a later row to an
    earlier one at random pairs (when ``add_rows``), then a random column
    permutation (when ``permute``).  Draws again while the moves give m
    back; for an invertible m with ell >= 2 some draw differs, as its rows
    are nonzero and its columns distinct."""
    ell = m.ell
    while True:
        rows = list(m.rows)
        if add_rows:
            for _ in range(ell):
                i, k = sorted(rng.choice(ell, 2, replace=False).tolist())
                rows[i] ^= rows[k]
        if permute:
            perm = rng.permutation(ell).tolist()
            rows = [sum((r >> c & 1) << perm[c] for c in range(ell)) for r in rows]
        if tuple(rows) != m.rows:
            return BitMatrix(ell, tuple(rows))


def ref_branch_rule(g: BitMatrix, j: int, kmask: int, pmask: int):
    """``_branch_rule`` by Gaussian elimination: (det, alpha, beta).

    u_j is determined iff the unit vector on u_j is reachable from the
    known-coordinate columns of the unresolved-row submatrix (row j, the
    later rows and the earlier rows in pmask).  alpha is the combination of
    known columns that reaches it, and beta the parities of the known
    earlier rows against alpha.
    """
    rows = g.rows
    ell = g.ell
    unknown = (1 << j) | pmask
    for t in range(j + 1, ell):
        unknown |= 1 << t
    # column k as a bitvector over unresolved row indices, with the combo
    # of original columns tracked alongside for the alpha mask
    piv = {}
    for k in range(ell):
        if not (kmask >> k) & 1:
            continue
        v = 0
        for t in range(ell):
            if (unknown >> t) & 1:
                v |= ((rows[t] >> k) & 1) << t
        c = 1 << k
        while v:
            p = v.bit_length() - 1
            if p in piv:
                pv, pc = piv[p]
                v ^= pv
                c ^= pc
            else:
                piv[p] = (v, c)
                break
    target = 1 << j
    alpha = 0
    while target:
        p = target.bit_length() - 1
        if p not in piv:
            return (False, 0, 0)
        pv, pc = piv[p]
        target ^= pv
        alpha ^= pc
    beta = 0
    for t in range(j):
        if not (pmask >> t) & 1:
            beta |= ((rows[t] & alpha).bit_count() & 1) << t
    return (True, alpha, beta)


def ref_generator_rows(code, index: np.ndarray) -> list:
    """``PolarCode._generator_rows`` built as a (K, N) bool matrix: the
    Kronecker factors are taken for all rows at once, then each row is
    packed into a Python int."""
    ell = code.profile.ell
    kernel = code._kernel_array.astype(bool)
    rows = np.ones((index.size, 1), dtype=bool)
    for p in reversed(range(code.n)):  # digit p of the index, innermost first
        factor = kernel[index // ell**p % ell]
        rows = (factor[:, :, None] & rows[:, None, :]).reshape(-1, ell ** (code.n - p))
    return [int.from_bytes(r.tobytes(), "little")
            for r in np.packbits(rows, axis=1, bitorder="little")]


def sc_batch(y: np.ndarray, code) -> np.ndarray:
    """Reference SC decoder: B ternary words at once, (B, N) ternary inputs.

    A plain recursion over every tree node, frozen subtrees included, that
    re-reads each node's branch rules from ``ref_branch_rule`` and re-encodes
    with one pass per kernel column; ``sc_decode_bec`` must match it on
    every word.
    """
    ell = code.profile.ell
    g = code._kernel_array
    info = code._info_mask
    shifts = (1 << np.arange(ell, dtype=np.uint32))[None, None, :]

    def rec(base: int, yy: np.ndarray):
        b, span = yy.shape
        if span == 1:
            if info[base]:
                u = yy.copy()
            else:
                u = np.zeros_like(yy)
            return u, u
        lc = span // ell
        y3 = yy.reshape(b, lc, ell)
        kmask = ((y3 != ERASED).astype(np.uint32) * shifts).sum(axis=2, dtype=np.uint32)
        xbits = ((y3 == 1).astype(np.uint32) * shifts).sum(axis=2, dtype=np.uint32)
        pbits = np.zeros((b, lc), dtype=np.uint32)
        perased = np.zeros((b, lc), dtype=np.uint32)
        uparts = []
        vparts = []
        for j in range(ell):
            keys = (kmask.astype(np.uint64) << np.uint64(32)) | perased.astype(np.uint64)
            uq, inv = np.unique(keys, return_inverse=True)
            det_t = np.empty(uq.size, dtype=bool)
            alpha_t = np.empty(uq.size, dtype=np.uint32)
            beta_t = np.empty(uq.size, dtype=np.uint32)
            for s, keyval in enumerate(uq):
                det_t[s], alpha_t[s], beta_t[s] = ref_branch_rule(
                    code.profile.kernel, j,
                    int(keyval >> np.uint64(32)), int(keyval & np.uint64(0xFFFFFFFF)),
                )
            inv = inv.reshape(b, lc)
            val = (
                np.bitwise_count(xbits & alpha_t[inv])
                ^ np.bitwise_count(pbits & beta_t[inv])
            ) & 1
            w = np.where(det_t[inv], val.astype(np.int8), np.int8(ERASED))
            uj, vj = rec(base + j * lc, w)
            pbits |= (vj == 1).astype(np.uint32) << np.uint32(j)
            perased |= (vj == ERASED).astype(np.uint32) << np.uint32(j)
            uparts.append(uj)
            vparts.append(vj)
        # re-encode one kernel stage from the child words (ternary: any
        # erased operand on a used row erases the output symbol)
        x3 = np.empty((b, lc, ell), dtype=np.int8)
        for c in range(ell):
            acc = np.zeros((b, lc), dtype=np.int8)
            erb = np.zeros((b, lc), dtype=bool)
            for j in range(ell):
                if g[j, c]:
                    acc ^= vparts[j] == 1
                    erb |= vparts[j] == ERASED
            x3[:, :, c] = np.where(erb, np.int8(ERASED), acc)
        return np.concatenate(uparts, axis=1), x3.reshape(b, span)

    u, _ = rec(0, np.ascontiguousarray(y, dtype=np.int8))
    return u



# Reference subset tables: the determination table by row-by-row elimination
# of every known mask at once, its minimal sets by strided bool views, and
# its per-weight undetermined counts by one bincount per branch.  The packed
# lattice passes behind ``determined_masks``, ``minimal_determining_sets``
# and ``undetermined_counts`` must match them exactly.


def ref_determined(m: BitMatrix) -> np.ndarray:
    """(ell, 2^ell) bool table of ``determined_masks``: going from the last
    row up, ``rows[j] & K`` is reduced against the reduced basis of the
    later rows at K, one basis vector per leading bit (``basis[h, K]``, 0
    when there is none), and is independent iff a nonzero remainder is
    left, which then joins the basis at its own leading bit."""
    masks = np.arange(1 << m.ell, dtype=MASK_DTYPE)
    # row ell takes the zero remainders (frexp(0) has exponent 0) and is never read
    basis = np.zeros((m.ell + 1, masks.size), dtype=MASK_DTYPE)
    det = np.empty((m.ell, masks.size), dtype=bool)
    later = 0
    for j in range(m.ell - 1, -1, -1):
        w = masks & m.rows[j]
        for h in range(later.bit_length() - 1, -1, -1):
            if (later >> h) & 1:
                w ^= basis[h] * ((w >> h) & 1)
        np.not_equal(w, 0, out=det[j])
        basis[np.frexp(w)[1] - 1, masks] = w
        later |= m.rows[j]
    return det


def ref_minimal_sets(det: np.ndarray) -> tuple:
    """``minimal_determining_sets``: a determined set is minimal iff each
    set without one of its coordinates is undetermined, tested on strided
    views."""
    ell = det.shape[0]
    minimal = det.copy()
    for c in range(ell):
        # sets holding c against the same sets without it
        without = det.reshape(ell, -1, 2, 1 << c)[:, :, 0]
        minimal.reshape(ell, -1, 2, 1 << c)[:, :, 1] &= ~without
    return tuple(
        frozenset(
            frozenset(c for c in range(ell) if k >> c & 1)
            for k in np.flatnonzero(row).tolist()
        )
        for row in minimal
    )


def ref_undetermined_counts(det: np.ndarray) -> tuple:
    """``undetermined_counts``: known mask K erases ell - |K| coordinates,
    so branch j's weight-k count is the number of undetermined masks K
    with ell - k known coordinates."""
    ell = det.shape[0]
    erased = ell - np.bitwise_count(np.arange(1 << ell, dtype=MASK_DTYPE))
    return tuple(
        tuple(np.bincount(erased[~row], minlength=ell + 1).tolist()) for row in det
    )


# Reference per-trial failure tests on a (B, N) bool batch of erasure masks:
# the genie-aided SC count as one table lookup per kernel node, and erasure
# BP closing each stage on strided views of its layers.  The bit-packed
# ``_sc_failures`` and ``_bp_failures`` must match them on every trial.


def ref_sc_failures(erased: np.ndarray, code) -> np.ndarray:
    """Per-row SC failure: n stages of ``determined_masks`` lookups, each
    reading the known mask of every kernel node off the last position
    digit and putting the branch digit at the end."""
    ell = code.profile.ell
    n = code.n
    b = erased.shape[0]
    det = np.ascontiguousarray(determined_masks(code.profile.kernel).T)
    known = ~erased.reshape((b,) + (ell,) * n)
    for ax in range(n, 0, -1):
        lead = (slice(None),) * ax
        kmask = known[lead + (0,)].astype(MASK_DTYPE)
        for c in range(1, ell):
            kmask |= known[lead + (c,)].astype(MASK_DTYPE) << c
        known = det.take(kmask, axis=0)
    return (~known.reshape(b, code.block_length) & code._info_mask).any(axis=1)


def ref_close_stage(var: list, checks: tuple) -> None:
    """Close every kernel node of one stage in place, one check at a time,
    each member gaining the AND of the others from prefix and suffix ANDs."""
    for check in checks:
        vs = [var[i] for i in check]
        heads = [vs[0]]
        for v in vs[1:-1]:
            heads.append(heads[-1] & v)
        tail = vs[-1]
        gains = [heads[-1]]
        for i in range(len(vs) - 2, 0, -1):
            gains.append(heads[i - 1] & tail)
            tail = tail & vs[i]
        gains.append(tail)
        for v, g in zip(reversed(vs), gains):
            v |= g


def ref_bp_failures(erased: np.ndarray, code):
    """Per-row erasure-BP failure, or None above BP_MAX_ELL: layers of
    (N, ceil(B/64)) known words, each stage closed on strided slab views,
    rounds sweeping up and back down to a fixpoint."""
    ell = code.profile.ell
    if ell > BP_MAX_ELL:
        return None
    n = code.n
    b, size = erased.shape
    words = (b + 63) // 64
    layers = np.zeros((n + 1, size, words), dtype=np.uint64)
    layers[0] = ~_pack_bits(erased.T)
    info = code._info_mask.reshape((ell,) * n).T.ravel()
    layers[n][~info] = ~np.uint64(0)
    stages = []
    for s in range(n):
        lo = layers[s].reshape(ell ** (n - s - 1), ell, ell**s, words)
        hi = layers[s + 1].reshape(ell ** (n - s - 1), ell, ell**s, words)
        stages.append([hi[:, j] for j in range(ell)] + [lo[:, c] for c in range(ell)])
    order = [*range(n), *range(n - 2, 0, -1)]
    checks = code._bp_checks
    seen = -1
    while True:
        for s in order:
            ref_close_stage(stages[s], checks)
        open_ = np.bitwise_or.reduce(~layers[n][info], axis=0)
        count = int(np.bitwise_count(layers).sum())
        if not open_.any() or count == seen:
            return _unpack_bits(open_[None], b)[0]
        seen = count

# Reference branch steps: every element goes through the full branch
# polynomial, whatever its payload, with its own copy of the term tables.
# polarkit's evolution (saturated affine steps, lean terms, class grouping)
# must match these bit for bit.


def ref_canonical_terms(row, ell):
    """Term triples (coeff, x_exp, y_exp) of sum_k a_k x^k y^(ell-k), with a
    pure power x^D in disguise collapsed to the single term 1.0 * x^D."""
    lead = min(k for k, a in enumerate(row) if a)
    if all(
        row[lead + i] == math.comb(ell - lead, i) for i in range(ell - lead + 1)
    ):
        return [(1.0, lead, 0)], lead
    return [(float(a), k, ell - k) for k, a in enumerate(row) if a], lead


class RefTables:
    """Per-branch canonical term lists of an ErasurePolynomialSet."""

    def __init__(self, polys):
        ell = polys.ell
        self.terms, self.lead = zip(*(ref_canonical_terms(r, ell) for r in polys.counts))
        self.comp_terms, self.comp_lead = zip(
            *(ref_canonical_terms(r, ell) for r in polys.comp_counts)
        )


def ref_eval_terms(terms, x, y, shift=0):
    """sum coeff * x^(kx - shift) * y^ky over the term triples, every factor
    multiplied in."""
    acc = None
    for a, kx, ky in terms:
        t = a * x ** (kx - shift) * y**ky
        acc = t if acc is None else acc + t
    return acc


def ref_step_linear(z, j, t):
    thresh = 2.0**-SWITCH_BITS
    zc = 1.0 - z
    p = ref_eval_terms(t.terms[j], z, zc)
    q = ref_eval_terms(t.comp_terms[j], zc, z)
    mode = np.where(p < thresh, NEGLOG, np.where(q < thresh, COMPLOG, LINEAR))
    with np.errstate(divide="ignore"):
        payload = np.where(
            p < thresh, -np.log2(p), np.where(q < thresh, -np.log2(q), p)
        )
    return mode, payload


def ref_bracket(t, j, lam, comp=False):
    """The log-domain bracket of branch j at payloads lam (x^lead factored out)."""
    terms, lead = (t.comp_terms[j], t.comp_lead[j]) if comp else (t.terms[j], t.lead[j])
    x = np.exp2(-lam)
    return ref_eval_terms(terms, x, 1.0 - x, lead)


def ref_step_neglog(lam, j, t):
    lam2 = t.lead[j] * lam - np.log2(ref_bracket(t, j, lam))
    small = lam2 <= SWITCH_BITS
    return np.where(small, LINEAR, NEGLOG), np.where(small, np.exp2(-lam2), lam2)


def ref_step_complog(mu, j, t):
    mu2 = t.comp_lead[j] * mu - np.log2(ref_bracket(t, j, mu, comp=True))
    small = mu2 <= SWITCH_BITS
    return np.where(small, LINEAR, COMPLOG), np.where(small, 1.0 - np.exp2(-mu2), mu2)


REF_BAND_STEPS = {
    LINEAR: ref_step_linear, NEGLOG: ref_step_neglog, COMPLOG: ref_step_complog
}


def ref_step_arrays(mode, payload, j, t):
    """Branch j on every element, one boolean mask per mode band."""
    out_m = np.empty_like(mode)
    out_p = np.empty_like(payload)
    for band, step in REF_BAND_STEPS.items():
        sel = mode == band
        if sel.any():
            out_m[sel], out_p[sel] = step(payload[sel], j, t)
    return out_m, out_p


def ref_evolve(z0, digits, polys) -> tuple[int, float]:
    """(mode, payload) after stepping z0 through ``digits`` one at a time;
    z0 is a float or an ExtendedUnitValue, taken as it is."""
    t = RefTables(polys)
    root = z0 if isinstance(z0, ExtendedUnitValue) else ExtendedUnitValue.from_float(z0)
    mode = np.array([root.mode], dtype=np.int8)
    payload = np.array([root.payload])
    for b in digits:
        mode, payload = ref_step_arrays(mode, payload, b, t)
    return int(mode[0]), float(payload[0])


def ref_enumerate_levels(g: BitMatrix, eps: float, n: int):
    """(mode, payload) arrays of every level 0..n in tree order, each level
    built from the one above by the reference steps."""
    t = RefTables(split_erasure_polynomials(g))
    root = ExtendedUnitValue.from_float(eps)
    levels = [(np.array([root.mode], dtype=np.int8), np.array([root.payload]))]
    for _ in range(n):
        modes, payloads = levels[-1]
        nm = np.empty(len(modes) * g.ell, dtype=np.int8)
        npay = np.empty(len(modes) * g.ell)
        for j in range(g.ell):
            nm[j::g.ell], npay[j::g.ell] = ref_step_arrays(modes, payloads, j, t)
        levels.append((nm, npay))
    return levels


def sample_paths_masked(g: BitMatrix, eps: float, n: int, count: int,
                        seed: int) -> np.ndarray:
    """Reference path sampler: per level, one boolean mask per branch.

    Gathers the paths that take branch j, steps them with
    ``ref_step_arrays`` (which masks them again by mode band) and writes
    them back through the same mask; ``sample_paths`` must match it bit for
    bit.
    """
    t = RefTables(split_erasure_polynomials(g))
    root = ExtendedUnitValue.from_float(eps)
    out = np.empty(count, dtype=[("mode", np.int8), ("payload", np.float64)])
    modes, payloads = out["mode"], out["payload"]
    modes[:] = root.mode
    payloads[:] = root.payload
    subs = rng.subseeds(seed, count)
    for d in range(n):
        col = rng.path_digits(subs, d, g.ell)
        for j in range(g.ell):
            sel = col == j
            if not sel.any():
                continue
            modes[sel], payloads[sel] = ref_step_arrays(modes[sel], payloads[sel], j, t)
    return out


# Reference scalar path: extended-value arithmetic, bound propagation, the
# process audit and the orthant as first written.  Every integer power goes
# through a one-element numpy array, lambda is read through the mode views,
# the top test is a property and the Gauss-Legendre rule is numpy scalars.
# Two fixes are part of it: a LINEAR power below the smallest normal float
# takes the log domain, and the c-bound is compared exactly only when log2(c)
# is a nonnegative integer.  polarkit's scalar path must match it bit for
# bit, raised exceptions included.


def ref_pow_arr(x, k):
    return float(np.power(np.array([x]), k)[0])


def ref_neglog2(v) -> float:
    if v.mode == NEGLOG:
        return v.payload
    if v.mode == LINEAR:
        return -math.log2(v.payload)
    d = math.pow(2.0, -v.payload)
    if d >= 1.0:
        raise DomainError(f"complog payload {v.payload} represents a value outside (0,1)")
    return -math.log1p(-d) / math.log(2.0)


def ref_complog2(v) -> float:
    if v.mode == COMPLOG:
        return v.payload
    if v.mode == LINEAR:
        return -math.log2(1.0 - v.payload)
    return -math.log1p(-math.pow(2.0, -v.payload)) / math.log(2.0)


def ref_is_top(v) -> bool:
    return v.mode == COMPLOG and math.isinf(v.payload)


def ref_cmp(a, b) -> int:
    if a.mode == b.mode:
        x, y = a.payload, b.payload
        if x == y:
            return 0
        if a.mode == NEGLOG:
            return -1 if x > y else 1
        return -1 if x < y else 1
    la, lb = ref_neglog2(a), ref_neglog2(b)
    if la == lb:
        return 0
    return -1 if la > lb else 1


def ref_pow_int(v, d):
    E = ExtendedUnitValue
    if not d % 1 == 0:  # nan and inf included
        raise DomainError(f"exponent {d!r} is not an integer")
    if d < 1:
        raise DomainError(f"exponent {d!r} is not an integer >= 1")
    d = int(d)
    if d == 1 or ref_is_top(v):
        return v
    if v.mode == NEGLOG:
        return E.from_neglog2(float(d) * v.payload)
    if v.mode == LINEAR:
        r = ref_pow_arr(v.payload, d)
        if r < sys.float_info.min:
            return E.from_neglog2(d * -math.log2(v.payload))
        if r < 2.0**-SWITCH_BITS:
            return E(NEGLOG, -math.log2(r))
        return E(LINEAR, r)
    mu = v.payload
    if d <= 64:
        delta = math.pow(2.0, -mu)
        zc = 1.0 - delta
        bracket = 0.0
        for m in range(1, d + 1):
            bracket += math.comb(d, m) * ref_pow_arr(delta, m - 1) * ref_pow_arr(zc, d - m)
        return E.from_complog2(mu - math.log2(bracket))
    delta = math.pow(2.0, -mu)
    dd = -math.expm1(d * math.log1p(-delta))
    if dd >= 1.0:
        return E.from_neglog2(d * ref_neglog2(E(COMPLOG, mu)))
    return E.from_complog2(-math.log2(dd))


def ref_times_pow2(v, k):
    E = ExtendedUnitValue
    if not k % 1 == 0:
        raise DomainError(f"scaling exponent {k!r} is not an integer")
    if k < 0:
        raise DomainError(f"scaling exponent {k!r} is not an integer >= 0")
    if k == 0 or ref_is_top(v):
        return v
    if v.mode == LINEAR:
        r = v.payload * 2.0**k
        if r >= 1.0:
            return E.top()
        return E.from_float(r)
    if v.mode == NEGLOG:
        lam = v.payload - k
        if lam <= 0.0:
            return E.top()
        return E.from_neglog2(lam)
    return E.top()


def ref_interval(lo, hi):
    """(lo, hi), after the order check of ``IntervalState``."""
    if ref_cmp(lo, hi) > 0:
        raise DomainError("interval bounds out of order")
    return lo, hi


def ref_propagate(lo, hi, digit, profile, comp=False):
    """(lo, hi) after one branch step of the Z-side (or comp-side) sandwich."""
    ell = profile.ell
    if not digit % 1 == 0:
        raise DomainError(f"digit {digit!r} is not an integer")
    if not 0 <= digit < ell:
        raise DomainError(f"digit {digit!r} is not an integer in 0..{ell - 1}")
    digit = int(digit)
    if comp:
        if not profile.comp_map_consistent:
            raise AssumptionUnmet(
                "comp branch degrees do not match the derived matrix's partial "
                "distances; the complement-side constants are unproven here"
            )
        d = profile.comp_branch_degrees[digit]
        k = 2 * profile.comp_branch_indices[digit] + 1
    else:
        d = profile.partial_distances[digit]
        k = ell - digit
    return ref_interval(ref_pow_int(lo, d), ref_times_pow2(ref_pow_int(hi, d), k))


def ref_check_process_conditions(trace, c) -> dict:
    """The fields of ``check_process_conditions``' report, c5_note aside."""
    if not trace:
        raise DomainError("empty trace")
    xs = []
    for x, _ in trace:
        if not isinstance(x, ExtendedUnitValue):
            x = float(x)
            if not 0.0 < x < 1.0:
                raise DomainError(f"value {x!r} outside the open unit interval")
            x = ExtendedUnitValue.from_float(x)
        xs.append(x)
    ss = [float(s) for _, s in trace]
    for s in ss[:-1]:
        if not 1.0 <= s < math.inf:
            raise DomainError(f"exponent {s!r} is not a number in [1, inf)")
    if not 0.0 < c < math.inf:
        raise DomainError(f"constant c {c!r} is not a number in (0, inf)")
    log2c = math.log2(c)
    exact_c = log2c >= 0 and log2c == int(log2c)
    c2 = c3 = 0
    max_ratio_log = -math.inf
    for k in range(len(xs) - 1):
        x, s, x_next = xs[k], ss[k], xs[k + 1]
        if s == int(s):
            ref = ref_pow_int(x, int(s))
            if ref_cmp(x_next, ref) < 0:
                c2 += 1
            if exact_c:
                if ref_cmp(x_next, ref_times_pow2(ref, int(log2c))) > 0:
                    c3 += 1
            elif ref_neglog2(x_next) < ref_neglog2(ref) - log2c:
                c3 += 1
            ratio_log = ref_neglog2(ref) - ref_neglog2(x_next)
        else:
            lam, lam_next = ref_neglog2(x), ref_neglog2(x_next)
            if lam_next > s * lam:
                c2 += 1
            if lam_next < s * lam - log2c:
                c3 += 1
            ratio_log = s * lam - lam_next
        max_ratio_log = max(max_ratio_log, ratio_log)
    last = xs[-1]
    return {
        "steps": len(xs) - 1,
        "c2_violations": c2,
        "c3_violations": c3,
        "max_c3_constant_observed": (
            (math.pow(2.0, max_ratio_log) if max_ratio_log < 1024.0 else math.inf)
            if len(xs) > 1 else 0.0
        ),
        "terminal_drift": math.pow(2.0, -max(ref_neglog2(last), ref_complog2(last))),
    }


REF_GL_NODES, REF_GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def ref_panel(lo, hi, b, rho, s):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for u, w in zip(REF_GL_NODES, REF_GL_WEIGHTS):
        x = mid + half * u
        acc += w * _phi(x) * q_function((b - rho * x) / s)
    return half * acc


def ref_bivariate_orthant(t, v, rho) -> float:
    """``bivariate_orthant`` with the panel loop on numpy float64 nodes."""
    for name, x in (("threshold t", t), ("threshold v", v)):
        if math.isnan(x):
            raise DomainError(f"{name} {x!r} is not a number in [-inf, inf]")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation {rho!r} is not a number in [-1, 1]")
    a, b = (t, v) if t <= v else (v, t)
    if rho == 1.0:
        return q_function(b)
    if rho == -1.0:
        return max(0.0, q_function(a) - q_function(-b))
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    lo, hi = max(a, -9.5), 9.5
    if lo >= hi:
        return 0.0
    edges = list(np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.5)) + 1))
    if rho != 0.0 and s < 0.45:
        w = s / abs(rho)
        x0 = b / rho
        zlo, zhi = max(lo, x0 - 12.0 * w), min(hi, x0 + 12.0 * w)
        if zlo < zhi:
            edges.extend(np.linspace(zlo, zhi, 65))
    edges = sorted({float(e) for e in edges})
    val = math.fsum(ref_panel(e0, e1, b, rho, s) for e0, e1 in zip(edges, edges[1:]))
    return min(max(val, 0.0), 1.0)
