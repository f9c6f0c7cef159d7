"""Deterministic JSON/CSV formatting helpers.

Reals are printed with 17 significant digits (enough to round-trip float64
exactly), so repeated runs with identical inputs produce byte-identical files.

``fmt_real_lines`` prints a float64 column byte for byte as ``fmt_real``
does, but in numpy.  For x in its domain, +0.0 and 0 < x < 1e300:

- With K = floor(log10 x) and q = x * 10^(16 - K), the 17 digits D are q
  rounded half-even.  q is the double-double p + t of a Dekker product
  (numpy has no fused multiply-add) with 10^(16 - K) = hi + lo from a table
  built once from exact rationals; below about 1e-273 the row holds
  10^(16 - K) * 2^-1000 and x is scaled by 2^1000.  Then
  |q - (p + t)| < 2^-45 while q < 2^57, and D = p + rint(t).
- ``log10`` may miss K by one: K moves down where q < 10^16 (D < 10^16, or
  D = 10^16 reached by rounding t up) and up where D > 10^17, and
  D = 10^17 carries into K.
- The bound: a value whose fraction t - rint(t) lies within 2^-30 of 1/2
  goes to ``fmt_real``, since the error could put q on the wrong side of a
  tie.  At D = 10^16, rounding up by at most 2^-30 counts as q = 10^16:
  only x = 10^K itself comes that close (the tests check every power of
  ten).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from fractions import Fraction

import numpy as np

_REAL = "%.17g"  # also spells nan, inf and -inf
_TIE = 2.0**-30  # the bound of the module docstring
_M0, _M1 = -300, 350  # table rows 10^m; 5e-324 <= x < 1e300 needs -284 <= m <= 341
_SCALED = 290  # rows from 10^290 on hold 10^m * 2^-1000
# A line is built in a 48-byte row and its NULs dropped: "0." and up to
# three zeros (bytes 0-4), digit i at 6 + 2i with the point's slot after it,
# "e", sign and exponent (40-44), newline (45).
_ROW = 48


def fmt_real(x: float) -> str:
    if isinstance(x, (bool, np.bool_)):  # a flag, not a number; %g would print 1 or 0
        raise TypeError("fmt_real expects a number, got bool")
    return _REAL % float(x)


@functools.cache
def _tables():
    """The 10^m table as (hi, hi's Dekker halves, lo), and each 4-digit
    group 0000-9999 as one uint64 of digit bytes spaced by NULs."""
    hi, lo = map(np.array, zip(*map(_pow10, range(_M0, _M1 + 1))))
    spaced = np.zeros((10000, 8), dtype=np.uint8)
    spaced[:, ::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    return (hi, *_split(hi), lo), spaced.view(np.uint64).ravel()


def _pow10(m):
    """10^m = hi + lo, both rounded from the exact rational (times 2^-1000
    from ``_SCALED`` on)."""
    exact = Fraction(10) ** m / (2**1000 if m >= _SCALED else 1)
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _split(a):
    """Dekker's split: a = h + l exactly, each half of at most 26 bits."""
    c = a * 134217729.0  # 2^27 + 1
    h = c - (c - a)
    return h, a - h


def _digits(x, k):
    """D, the int64 rounding of q = x * 10^(16 - k), and q - D, for positive x."""
    (hi, hh, hl, lo), _ = _tables()
    m = 16 - k - _M0
    scaled = m >= _SCALED - _M0
    if scaled.any():
        x = x.copy()
        x[scaled] *= 2.0**1000
    p = x * hi[m]
    xh, xl = _split(x)
    e = ((xh * hh[m] - p) + xh * hl[m] + xl * hh[m]) + xl * hl[m]
    t = e + x * lo[m]
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _decimal(y):
    """(K, D, q - D) for positive y: y rounds to D * 10^(K - 16), with
    10^16 <= D < 10^17."""
    k = np.floor(np.log10(y)).astype(np.int64)
    d, frac = _digits(y, k)
    step = (d > 10**17).astype(np.int64) - (d < 10**16) - ((d == 10**16) & (frac < -_TIE))
    if step.any():
        k += step
        d, frac = _digits(y, k)
    carry = d == 10**17
    d[carry] = 10**16
    return k + carry, d, frac


def _rows(x):
    """The ``_ROW``-byte, NUL-padded line of each value of x."""
    dom = (x < 1e300) & ((x > 0) | ((x == 0) & ~np.signbit(x)))
    zero = dom & (x == 0)
    k, d, frac = _decimal(np.where(dom & ~zero, x, 1.0))
    _, spaced = _tables()
    rows = np.zeros((len(x), _ROW), dtype=np.uint8)
    top, low = np.divmod(d, 10**8)
    head, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    rows[:, 6] = head // 10**4 + ord("0")
    words = rows.view(np.uint64)
    words[:, 1] = spaced[head % 10**4]
    words[:, 2] = spaced[g1]
    words[:, 3] = spaced[g3]
    words[:, 4] = spaced[g4]
    rows[:, 45] = ord("\n")

    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, k, 0)  # the point follows this digit
    small = np.flatnonzero(fixed & (k < 0))
    if small.size:  # "0." and -k - 1 zeros
        rows[small, :5] = np.where(np.arange(5) < 1 - k[small, None], ord("0"), 0)
        rows[small, 1] = ord(".")
    sig = np.full(len(x), 17)
    ends = np.flatnonzero(d % 10 == 0)
    if ends.size:  # drop trailing zeros, but not those left of the point
        nonzero = rows[ends, 6:40:2] != ord("0")
        sig[ends] = 17 - np.argmax(nonzero[:, ::-1], axis=1)
        kept = np.arange(17) < np.maximum(sig[ends], point[ends] + 1)[:, None]
        rows[ends, 6:40:2] *= kept
    rows[zero, 6] = ord("0")  # +0.0 went through as 1.0
    dot = np.flatnonzero((point >= 0) & (sig > point + 1))
    rows.ravel()[dot * _ROW + 7 + 2 * point[dot]] = ord(".")
    wide = np.flatnonzero(~fixed)
    if wide.size:
        a = np.abs(k[wide])
        rows[wide, 40] = ord("e")
        rows[wide, 41] = np.where(k[wide] < 0, ord("-"), ord("+"))
        rows[wide, 42] = np.where(a >= 100, a // 100 + ord("0"), 0)
        rows[wide, 43] = a // 10 % 10 + ord("0")
        rows[wide, 44] = a % 10 + ord("0")

    slow = np.flatnonzero(~dom | (np.abs(frac) > 0.5 - _TIE))
    if slow.size:
        text = [fmt_real(v) + "\n" for v in x[slow].tolist()]
        rows[slow] = np.array(text, dtype=f"S{_ROW}").view(np.uint8).reshape(-1, _ROW)
    return rows


def fmt_real_lines(values: np.ndarray) -> str:
    """``fmt_real(v) + "\\n"`` for every value of a float64 array, joined.

    Each run of bit-equal values is formatted once and its line repeated;
    the module docstring says how, and which values go to ``fmt_real``.
    """
    x = np.asarray(values)
    if x.dtype == np.bool_:
        raise TypeError("fmt_real_lines expects numbers, got bool")
    x = x.astype(np.float64, copy=False)
    if not x.size:
        return ""
    bits = x.view(np.uint64)  # equal bits print alike; 0.0 != -0.0
    first = np.ones(x.size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(first)
    rows = _rows(x[starts])
    if starts.size < x.size:
        rows = np.repeat(rows, np.diff(starts, append=x.size), axis=0)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _integer(v) -> bool:
    """A Python or numpy integer; a bool is a flag (np.bool_ is no np.integer)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def fmt_cell(v) -> str:
    """One CSV cell: a str as given, an integer exactly, anything else by
    ``fmt_real`` (so a bool raises)."""
    if isinstance(v, str):
        return v
    if _integer(v):
        return str(int(v))
    return fmt_real(v)


def csv_text(header: str, rows) -> str:
    """The header line, then one line of ``fmt_cell`` cells per row, each
    line ending in a newline."""
    lines = [header]
    lines.extend(",".join(map(fmt_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits.  A kernel
    (a value with ``to_literal``) prints as its literal, an extended value
    (with ``as_pair``) as its [mode name, payload] pair, and any other
    dataclass instance as the object of its fields in declaration order."""
    pad = " " * indent

    def rec(v, depth):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            s = fmt_real(v)
            if s in ("nan", "inf", "-inf"):  # not valid JSON numbers
                return json.dumps(s)
            return s
        if _integer(v):
            return str(int(v))
        if isinstance(v, str):
            return json.dumps(v)
        if v is None:
            return "null"
        if isinstance(v, dict):
            inner = ",\n".join(
                f"{pad * (depth + 1)}{json.dumps(str(k))}: {rec(w, depth + 1)}"
                for k, w in v.items()
            )
            if indent:
                return "{\n" + inner + "\n" + pad * depth + "}"
            return "{" + ", ".join(
                f"{json.dumps(str(k))}: {rec(w, depth)}" for k, w in v.items()
            ) + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(rec(w, depth) for w in v) + "]"
        if hasattr(v, "to_literal"):  # duck-typed: gf2kernel imports this module
            return json.dumps(v.to_literal())
        if hasattr(v, "as_pair"):
            return rec(v.as_pair(), depth)
        if dataclasses.is_dataclass(v):
            return rec({f.name: getattr(v, f.name) for f in dataclasses.fields(v)}, depth)
        raise TypeError(f"cannot serialize {type(v).__name__}")

    return rec(obj, 0)
