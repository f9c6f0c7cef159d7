import mpmath as mp
import numpy as np
import pytest

from polarkit import rng
from polarkit.becpolar import (
    _EvolveTables,
    _step_arrays,
    enumerate_level,
    split_erasure_polynomials,
)
from polarkit.codec import ERASED, _branch_rule
from polarkit.errors import NotPolarizing
from polarkit.extval import ExtendedUnitValue
from polarkit.gf2kernel import BitMatrix, KernelProfile, kernel_profile

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


def sc_batch(y: np.ndarray, code) -> np.ndarray:
    """Reference SC decoder: B ternary words at once, (B, N) ternary inputs.

    A plain recursion over every tree node, frozen subtrees included, that
    re-reads each node's branch rules from ``_branch_rule`` and re-encodes
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
                det_t[s], alpha_t[s], beta_t[s] = _branch_rule(
                    code, j, int(keyval >> np.uint64(32)), int(keyval & np.uint64(0xFFFFFFFF))
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


def sample_paths_masked(g: BitMatrix, eps: float, n: int, count: int,
                        seed: int) -> np.ndarray:
    """Reference path sampler: per level, one boolean mask per branch.

    Gathers the paths that take branch j, steps them with ``_step_arrays``
    (which masks them again by mode band) and writes them back through the
    same mask; ``sample_paths`` must match it bit for bit.
    """
    t = _EvolveTables(split_erasure_polynomials(g))
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
            modes[sel], payloads[sel] = _step_arrays(modes[sel], payloads[sel], j, t)
    return out
