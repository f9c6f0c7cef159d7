"""Deterministic JSON/CSV formatting helpers.

Reals are printed with 17 significant digits (enough to round-trip float64
exactly), so repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

_REAL = "%.17g"  # also spells nan, inf and -inf


def fmt_real(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of %g
        raise TypeError("fmt_real expects a number, got bool")
    return _REAL % float(x)


def fmt_real_lines(values: list[float]) -> str:
    """``fmt_real(v) + "\\n"`` for every float in ``values``, joined, from one
    %-format call (no per-value call overhead)."""
    return ((_REAL + "\n") * len(values)) % tuple(values)


def fmt_cell(v) -> str:
    """One CSV cell: a str as given, an int by ``str``, anything else by
    ``fmt_real`` (so a bool raises)."""
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return fmt_real(v)


def csv_text(header: str, rows) -> str:
    """The header line, then one line of ``fmt_cell`` cells per row, each
    line ending in a newline."""
    lines = [header]
    lines.extend(",".join(map(fmt_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits."""
    pad = " " * indent

    def rec(v, depth):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            s = fmt_real(v)
            if s in ("nan", "inf", "-inf"):  # not valid JSON numbers
                return json.dumps(s)
            return s
        if isinstance(v, int):
            return str(v)
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
        raise TypeError(f"cannot serialize {type(v).__name__}")

    return rec(obj, 0)
