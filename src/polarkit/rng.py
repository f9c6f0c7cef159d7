"""Deterministic pseudo-randomness built on the splitmix64 mixer.

All stochastic components of the package draw from counter-based splitmix64
streams: output k of a stream with seed s is ``mix64(s + (k+1)*GAMMA)`` where
``mix64`` is the standard xor-shift-multiply finalizer.  Counter addressing
makes every stream splittable (per path, per trial, per symbol) and the output
bit-identical across platforms and numpy versions.

Derived streams use ``mix64(seed ^ (index+1)*GAMMA)`` as their sub-seed, so a
path / trial index selects an effectively independent stream.

Uniform digits in {0..ell-1} use the Lemire multiply-shift reduction
``(x * ell) >> 64`` (one shift when ell is a power of two); its bias is below
ell * 2^-64 and is irrelevant at every sample size used here.

Erasure flags (output k of a word's stream below eps) have one
implementation, ``erasure_words``, which draws a (symbol, word) grid in
cache-sized blocks straight into words of 64 packed flags.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# cells per block of the packed erasure draw: the block's uint64 words and
# their mixing scratch (512 KiB) stay in a core's L2 cache
DRAW_BLOCK = 1 << 15


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer (64-bit xor-shift-multiply)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    return _mix64_inplace(x.astype(np.uint64, copy=True))


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Mix a uint64 array in place, through a scratch array of its shape
    (``tmp``, or a new one)."""
    if tmp is None:
        tmp = np.empty_like(x)
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, np.uint64(30), out=tmp)
        x *= np.uint64(_M1)
        x ^= np.right_shift(x, np.uint64(27), out=tmp)
        x *= np.uint64(_M2)
        x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def subseed(seed: int, index: int) -> int:
    """Seed of the derived stream for a path / trial index."""
    return mix64((seed & _MASK) ^ (((index + 1) * GAMMA) & _MASK))


def subseeds(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``subseed(seed, i)`` for i in start..start+count-1."""
    with np.errstate(over="ignore"):
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        idx *= np.uint64(GAMMA)
        idx ^= np.uint64(seed & _MASK)
    return _mix64_np(idx)


def uniform01(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in [0, 1) using the top 53 bits."""
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def reduce_digits(bits: np.ndarray, ell: int) -> np.ndarray:
    """Lemire reduction of uint64 words to digits in {0..ell-1}.

    For ell = 2^k (k >= 1), (x * ell) >> 64 is the top k bits of x, one shift.
    """
    if ell > 1 and ell & (ell - 1) == 0:
        return (bits >> np.uint64(65 - ell.bit_length())).view(np.int64)
    lo = bits & np.uint64(0xFFFFFFFF)
    hi = bits >> np.uint64(32)
    with np.errstate(over="ignore"):
        lo *= np.uint64(ell)
        lo >>= np.uint64(32)
        hi *= np.uint64(ell)
        hi += lo
    hi >>= np.uint64(32)
    return hi.view(np.int64)  # every digit is below ell, so the bits agree


def path_digits(subs: np.ndarray, d: int, ell: int) -> np.ndarray:
    """Digit d (0-based) of every path, one path per derived-stream seed in ``subs``.

    Output d of stream s reduced to {0..ell-1}: ``mix64(s + (d+1)*GAMMA)``.
    A sampler draws one level's column at a time and never holds all n.
    """
    with np.errstate(over="ignore"):
        ctr = subs + np.uint64(((d + 1) * GAMMA) & _MASK)
    return reduce_digits(_mix64_inplace(ctr), ell)


def path_digit_matrix(seed: int, count: int, n: int, ell: int) -> np.ndarray:
    """(count, n) i.i.d. uniform digits; row p comes from the derived stream p.

    Column d is ``path_digits(subseeds(seed, count), d, ell)``.
    """
    out = np.empty((count, n), dtype=np.int64)
    subs = subseeds(seed, count)
    for d in range(n):
        out[:, d] = path_digits(subs, d, ell)
    return out


def uniform_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) doubles in [0, 1); row r comes from the derived stream r."""
    words = _stream_words(subseeds(seed, rows), 0, np.empty((cols, rows), dtype=np.uint64))
    return uniform01(words.T)


def erasure_words(seeds, cols: int, eps: float) -> np.ndarray:
    """Erasure flags of one word per seed, packed 64 rows to a word.

    Row r, the word seeded ``seeds[r]``, has its flag at column c set iff
    ``uniform_matrix(seeds[r], 1, cols)[0, c] < eps``.  The result is a
    (cols, ceil(rows/64)) uint64 array whose bit t of word w at column c
    is the flag of row 64 w + t at c; padding bits past the last row are 0.

    The test runs on the top 53 bits m of each stream output: m * 2^-53 <
    eps iff m < ceil(eps * 2^53), so no float is built.  Outputs are
    counter-addressed, so the (column, row) grid is drawn block by block,
    DRAW_BLOCK cells at a time through one reused buffer that stays in
    cache: whole columns while all rows fit in a block, else one column
    at a time over row spans of a multiple of 64.
    """
    subs = _mix64_np(np.asarray(seeds, dtype=np.uint64) ^ np.uint64(GAMMA))
    rows = subs.size
    limit = np.uint64(math.ceil(eps * 2.0**53))
    out = np.zeros((cols, (rows + 63) // 64), dtype="<u8")
    raw = out.view(np.uint8)
    span = max(1, rows) if rows <= DRAW_BLOCK else max(64, DRAW_BLOCK // 64 * 64)
    width = max(1, min(cols, DRAW_BLOCK // span))
    buf = np.empty(width * span, dtype=np.uint64)
    tmp = np.empty_like(buf)
    # each block's flag rows are padded to whole bytes, so the block packs
    # as one flat run of bits
    flags = np.empty(width * -(-span // 8) * 8, dtype=bool)
    for r0 in range(0, rows, span):
        part = subs[r0 : r0 + span]
        m = part.size
        nbytes = -(-m // 8)
        for c0 in range(0, cols, width):
            k = min(width, cols - c0)
            words = _stream_words(part, c0, buf[: k * m].reshape(k, m), tmp[: k * m].reshape(k, m))
            words >>= np.uint64(11)
            f = flags[: k * nbytes * 8].reshape(k, nbytes * 8)
            np.less(words, limit, out=f[:, :m])
            f[:, m:] = False
            packed = np.packbits(f, bitorder="little").reshape(k, nbytes)
            raw[c0 : c0 + k, r0 // 8 : r0 // 8 + nbytes] = packed
    return out.astype(np.uint64, copy=False)


def _stream_words(
    subs: np.ndarray, start: int, out: np.ndarray, tmp: np.ndarray | None = None
) -> np.ndarray:
    """Fill the (cols, len(subs)) array ``out``: column r holds outputs
    start..start+cols-1 of the stream seeded subs[r]."""
    cols = out.shape[0]
    with np.errstate(over="ignore"):
        steps = np.arange(start + 1, start + cols + 1, dtype=np.uint64) * np.uint64(GAMMA)
        np.add(steps[:, None], subs[None, :], out=out)
    return _mix64_inplace(out, tmp)
