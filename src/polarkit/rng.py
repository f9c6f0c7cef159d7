"""Deterministic pseudo-randomness built on the splitmix64 mixer.

All stochastic components of the package draw from counter-based splitmix64
streams: output k of a stream with seed s is ``mix64(s + (k+1)*GAMMA)`` where
``mix64`` is the standard xor-shift-multiply finalizer.  Counter addressing
makes every stream splittable (per path, per trial, per symbol) and the output
bit-identical across platforms and numpy versions.

Derived streams use ``mix64(seed ^ (index+1)*GAMMA)`` as their sub-seed, so a
path / trial index selects an effectively independent stream.

Uniform digits in {0..ell-1} use the Lemire multiply-shift reduction
``(x * ell) >> 64``; its bias is below ell * 2^-64 and is irrelevant at every
sample size used here.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer (64-bit xor-shift-multiply)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_M2)
        x ^= x >> np.uint64(31)
    return x


def raw_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 stream for ``seed``."""
    with np.errstate(over="ignore"):
        ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        ctr *= np.uint64(GAMMA)
        ctr += np.uint64(seed & _MASK)
    return _mix64_np(ctr)


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
    """Lemire reduction of uint64 words to digits in {0..ell-1}."""
    lo = bits & np.uint64(0xFFFFFFFF)
    hi = bits >> np.uint64(32)
    with np.errstate(over="ignore"):
        t = hi * np.uint64(ell) + ((lo * np.uint64(ell)) >> np.uint64(32))
    return (t >> np.uint64(32)).astype(np.int64)


def path_digits(subs: np.ndarray, d: int, ell: int) -> np.ndarray:
    """Digit d (0-based) of every path, one path per derived-stream seed in ``subs``.

    Output d of stream s reduced to {0..ell-1}: ``mix64(s + (d+1)*GAMMA)``.
    A sampler draws one level's column at a time and never holds all n.
    """
    with np.errstate(over="ignore"):
        ctr = subs + np.uint64(((d + 1) * GAMMA) & _MASK)
    return reduce_digits(_mix64_np(ctr), ell)


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
    return _uniform_rows(subseeds(seed, rows), cols)


def trial_uniforms(seed: int, start: int, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) doubles; row r is ``uniform_matrix(subseed(seed, start + r), 1, cols)[0]``.

    That is the draw of one word per trial seed, so a batch of trials gets
    exactly the words drawn one trial at a time.
    """
    subs = _mix64_np(subseeds(seed, rows, start) ^ np.uint64(GAMMA))
    return _uniform_rows(subs, cols)


def _uniform_rows(subs: np.ndarray, cols: int) -> np.ndarray:
    """Row r holds the first ``cols`` uniforms of the stream seeded subs[r]."""
    rows = subs.size
    out = np.empty((rows, cols), dtype=np.float64)
    if rows == 0 or cols == 0:
        return out
    with np.errstate(over="ignore"):
        steps = np.arange(1, cols + 1, dtype=np.uint64) * np.uint64(GAMMA)
        ctr = subs[:, None] + steps[None, :]
    out[:] = uniform01(_mix64_np(ctr))
    return out
