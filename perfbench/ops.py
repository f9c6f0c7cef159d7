"""Workloads, the ops they run, and the checks on every op's output.

An op is either a ``polarkit`` CLI invocation run in-process through
``polarkit.cli.main([..., "--out", path])`` or a library routine called
through the public API.  Every op belongs to one family, and each family's
time is one end-to-end metric (``<family>_s``).

Each workload runs its primary ops (the ones that give it its character)
plus one small probe of every other family, so that every end-to-end metric
is measured on every workload.

The workload seed only moves the inputs that are random by nature (trial,
path and word seeds, sampled audit paths): an op with base seed b runs at
seed b + workload seed.  Ops whose input does not depend on the seed are
compared against the reference fingerprints at every seed; seeded ops are
compared at workload seed 0 (the default seeds) and checked by seed-free
invariants at every seed.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import polarkit.asymptotics as asymptotics
import polarkit.becpolar as becpolar
import polarkit.boundprop as boundprop
import polarkit.cli as cli
import polarkit.codec as codec
import polarkit.construct as construct
import polarkit.gf2kernel as gf2kernel
import polarkit.rng as rng
from polarkit.extval import ExtendedUnitValue

ARIKAN = "10;11"
L3 = "100;110;101"

# relative tolerance for non-integer reference fields: wide enough for a
# declared last-digit change, far below any real change of a result
REL_TOL = 1e-9
ABS_TOL = 1e-12

# float CSV columns that must reproduce exactly (dyadic CDF fractions,
# error rates that are counts over trials, and echoed inputs)
EXACT_COLUMNS = frozenset(
    {"exact_F", "fraction", "overlap_with_rm", "sc_rate", "map_rate", "eps", "rate", "t", "beta"}
)

ORTHANT_GRID = (-2.0, -1.0, 0.0, 0.8, 2.0)
ORTHANT_RHOS = (0.0, 1.0, 1.0 - 1e-12, -0.99, -0.5, 0.3, 0.7, 0.95)


def kron_literal(power: int) -> str:
    """Row literal of the power-fold Kronecker power of the 2x2 kernel."""
    g = np.array([[1, 0], [1, 1]])
    m = g
    for _ in range(power - 1):
        m = np.kron(m, g)
    return ";".join("".join(str(int(b)) for b in row) for row in m)


G8 = kron_literal(3)
G16 = kron_literal(4)


@dataclass(frozen=True)
class Op:
    id: str
    family: str
    kind: str  # "cli", "audit" or "decode"
    params: dict
    seeded: bool = False
    repeat: int = 1
    primary: bool = True


def _cli(op_id, family, argv, seeded=False, repeat=1, primary=True, **params):
    return Op(op_id, family, "cli", dict(params, argv=tuple(argv)), seeded, repeat, primary)


def _polarize(op_id, kernel, n, eps=0.5, paths=None, seed=None, repeat=1, primary=True):
    argv = ["polarize", "--kernel", kernel, "--eps", str(eps), "--n", str(n)]
    if paths is not None:
        argv += ["--paths", str(paths), "--seed", str(seed)]
    return _cli(op_id, "polarize", argv, seeded=paths is not None, repeat=repeat, primary=primary,
                check="polarize", kernel=kernel, n=n, eps=eps, paths=paths)


def _verify(ns, repeat=1, primary=True):
    common = ["--kernel", ARIKAN, "--eps", "0.5", "--n", ns]
    return [
        _cli("scaling-verify", "verify", ["scaling-verify", *common], repeat=repeat,
             primary=primary, check="scaling", ell=2),
        _cli("exponent-verify", "verify", ["exponent-verify", *common], repeat=repeat,
             primary=primary, check="exponent", ell=2),
    ]


def _selection(ns, repeat=1, primary=True):
    common = ["--kernel", ARIKAN, "--eps", "0.5", "--n", ns]
    return [
        _cli("selection-compare", "selection", ["selection-compare", *common],
             repeat=repeat, primary=primary, check="selection"),
        _cli("map-bound", "selection", ["map-bound", *common, "--rate", "0.25"],
             repeat=repeat, primary=primary, check="map_bound"),
    ]


def _codec_sim(op_id, kernel, n, eps, rate, seed, trials, repeat=1, primary=True):
    argv = ["codec-sim", "--kernel", kernel, "--n", str(n), "--eps", str(eps),
            "--rate", str(rate), "--seed", str(seed), "--trials", str(trials)]
    return _cli(op_id, "codec_sim", argv, seeded=True, repeat=repeat, primary=primary,
                check="codec", kernel=kernel, n=n, eps=eps, rate=rate, seed=seed, trials=trials)


def _kernel_analyze(op_id, kernel, repeat=1, primary=True):
    return _cli(op_id, "kernel_analyze", ["kernel-analyze", "--kernel", kernel],
                repeat=repeat, primary=primary, check="kernel", kernel=kernel)


def _audit(op_id, n, l3_paths, l3_seed, grid, rhos, repeat=1, primary=True):
    return Op(op_id, "audit", "audit",
              dict(n=n, l3_paths=l3_paths, l3_seed=l3_seed, grid=grid, rhos=rhos),
              seeded=True, repeat=repeat, primary=primary)


def _decode(op_id, n, words, seed, repeat=1, primary=True):
    return Op(op_id, "decode", "decode",
              dict(n=n, eps=0.5, rate=0.25, words=words, seed=seed),
              seeded=True, repeat=repeat, primary=primary)


def _audit_probe(s):
    return _audit("audit-probe", 8, 100, 29 + s, (0.0, 0.8), (0.3,), repeat=4, primary=False)


def _codec_probe(s):
    return _codec_sim("codec-sim-probe", ARIKAN, 8, 0.5, 0.25, 23 + s, 100, repeat=5,
                      primary=False)


def _exact_level(s):
    # Not in BENCHMARK.json: a 30 s run holds only two or three samples of
    # each of its seconds-long ops, and on a shared host their reference
    # times still spread by 20-40% between runs (the calibration kernel
    # cannot follow how differently large-array and scalar-float code slow
    # down).  Run it by name to study these layers.
    return [
        _polarize("polarize-n20", ARIKAN, 20),
        *_verify("12,16,20", repeat=2),
        *_selection("16,20"),
        _polarize("polarize-l3-n12", L3, 12),
        _audit("audit", 12, 300, 29 + s, ORTHANT_GRID, ORTHANT_RHOS),
        _kernel_analyze("kernel-analyze-l3", L3, repeat=20, primary=False),
        _codec_probe(s),
        _decode("decode-probe", 8, 2, 31 + s, repeat=4, primary=False),
    ]


def _decoder_mc(s):
    return [
        _codec_sim("codec-sim-c09", ARIKAN, 10, 0.3, 0.3, 11 + s, 600),
        _codec_sim("codec-sim-c10", ARIKAN, 10, 0.5, 0.25, 13 + s, 600),
        _codec_sim("codec-sim-l3-n6", L3, 6, 0.5, 0.25, 17 + s, 600),
        _codec_sim("codec-sim-n12", ARIKAN, 12, 0.5, 0.25, 19 + s, 80),
        _decode("decode-n10", 10, 8, 37 + s, repeat=2),
        _polarize("polarize-probe", ARIKAN, 12, repeat=10, primary=False),
        *_verify("12,14", repeat=6, primary=False),
        *_selection("12", repeat=5, primary=False),
        _audit_probe(s),
        _kernel_analyze("kernel-analyze-l3", L3, repeat=20, primary=False),
    ]


def _wide_kernel(s):
    return [
        _kernel_analyze("kernel-analyze-g8", G8, repeat=10),
        _kernel_analyze("kernel-analyze-g16", G16, repeat=2),
        _polarize("polarize-g16-n4", G16, 4),
        _polarize("polarize-sampled-n50", ARIKAN, 50, paths=100000, seed=42 + s),
        _polarize("polarize-sampled-l3-n30", L3, 30, paths=100000, seed=43 + s),
        *_verify("12,14", repeat=6, primary=False),
        *_selection("12", repeat=5, primary=False),
        _audit_probe(s),
        _codec_probe(s),
        _decode("decode-probe", 8, 2, 31 + s, repeat=4, primary=False),
    ]


WORKLOADS = {
    "exact-level": _exact_level,
    "decoder-mc": _decoder_mc,
    "wide-kernel": _wide_kernel,
}


def workload_ops(name: str, seed: int) -> list[Op]:
    ops = WORKLOADS[name](seed)
    assert len({op.id for op in ops}) == len(ops), "op ids must be unique"
    return ops


# ---------------------------------------------------------------------------
# Running an op.  ``prepare`` is untimed; ``run`` is the timed region.
# ---------------------------------------------------------------------------


class OpFailed(Exception):
    pass


def prepare(op: Op, workdir: Path):
    if op.kind == "decode":
        p = op.params
        prof = gf2kernel.kernel_profile(gf2kernel.BitMatrix.from_literal(ARIKAN))
        cdf = becpolar.enumerate_level(prof.kernel, p["eps"], p["n"])
        code = codec.PolarCode.from_selection(prof, construct.polar_selection(cdf, p["rate"]))
        info = code.info_indices - 1
        bits = (rng.uniform_matrix(p["seed"], p["words"], len(info)) < 0.5).astype(np.uint8)
        return code, info, bits
    if op.kind == "cli":
        return workdir / f"{op.id}.out"
    return None


def work_units(op: Op) -> int:
    """Units of work in one execution of the op: decoded words, else 1."""
    return op.params["words"] if op.kind == "decode" else 1


def schedule(ops: list[Op]) -> list[tuple[Op, int]]:
    """One pass as (op, repeat) executions.

    An op's time in a pass is estimated as work_units(op) times its median
    unit time, so ``repeat`` only adds samples.  Ops sampled once anchor the
    pass, in order; the repeats of the others are spread over the slots after
    the anchors, so that their samples span the whole pass instead of one
    stretch of it (machine speed on a shared host drifts within seconds).
    """
    anchors = [op for op in ops if op.repeat == 1]
    spread = [op for op in ops if op.repeat > 1]
    slots = len(anchors)
    out = []
    for i, op in enumerate(anchors):
        out.append((op, 1))
        for other in spread:
            share = other.repeat * (i + 1) // slots - other.repeat * i // slots
            if share:
                out.append((other, share))
    return out


class Units:
    """Wall and CPU seconds of each unit of an execution."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    @contextlib.contextmanager
    def unit(self):
        w, c = time.perf_counter(), time.process_time()
        yield
        self.cpu.append(time.process_time() - c)
        self.wall.append(time.perf_counter() - w)


def run(op: Op, prepared, repeat: int):
    """Execute the op ``repeat`` times; returns (Units, raw output).

    A unit is one CLI call, one audit or one decoded word, so the time of an
    execution is the sum of its units.
    """
    units = Units()
    if op.kind == "cli":
        argv = [*op.params["argv"], "--out", str(prepared)]
        for _ in range(repeat):
            with units.unit():
                rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"exit code {rc}")
        text = prepared.read_text(encoding="utf-8")
        prepared.unlink()
        return units, text
    if op.kind == "audit":
        for _ in range(repeat):
            with units.unit():
                out = audit(**op.params)
        return units, out
    if op.kind == "decode":
        code, info, bits = prepared
        p = op.params
        words = []
        for w in [w for _ in range(repeat) for w in range(p["words"])]:
            with units.unit():
                u = np.zeros(code.block_length, dtype=np.uint8)
                u[info] = bits[w]
                x = codec.encode(u, code)
                y = codec.transmit_bec(x, p["eps"], rng.subseed(p["seed"], w))
                sc = codec.sc_decode_bec(y, code)
                verdict = codec.map_decode_bec(y, code)
            words.append((u, y, sc, verdict))
        return units, (code, words)
    raise ValueError(op.kind)


def _digits(i, ell, n):
    x = i - 1
    return [x // ell ** (n - 1 - p) % ell for p in range(n)]


def audit(n, l3_paths, l3_seed, grid, rhos):
    """Bound-propagation and process-condition audit plus the orthant grid.

    Propagates the Z-side and complement-side intervals over every Arikan
    depth-n path and over sampled L3 paths and counts exact values outside
    them; audits the process conditions on every Arikan trace; evaluates the
    bivariate orthant on the grid.
    """
    IntervalState = boundprop.IntervalState
    arikan = gf2kernel.kernel_profile(gf2kernel.BitMatrix.from_literal(ARIKAN))
    l3 = gf2kernel.kernel_profile(gf2kernel.BitMatrix.from_literal(L3))
    out = {"interval_violations": 0, "c2_violations": 0, "c3_violations": 0}

    cdf = becpolar.enumerate_level(arikan.kernel, 0.5, n)
    for i in range(1, 2**n + 1):
        sz = IntervalState.degenerate(0.5)
        sc = IntervalState.degenerate(0.5)
        for b in _digits(i, 2, n):
            sz = boundprop.propagate_z_interval(sz, b, arikan)
            sc = boundprop.propagate_comp_interval(sc, b, arikan)
        z = cdf.value_at(i)
        out["interval_violations"] += not (sz.contains(z) and sc.contains(z.complement()))

    polys = becpolar.split_erasure_polynomials(l3.kernel)
    l3_lam = 0.0
    for row in rng.path_digit_matrix(l3_seed, l3_paths, n, 3):
        sz = IntervalState.degenerate(0.4)
        sc = IntervalState.degenerate(1 - 0.4)
        for b in row:
            sz = boundprop.propagate_z_interval(sz, int(b), l3)
            sc = boundprop.propagate_comp_interval(sc, int(b), l3)
        z = becpolar.evolve_exact(0.4, row.tolist(), polys)
        l3_lam += z.neglog2
        out["interval_violations"] += not (sz.contains(z) and sc.contains(z.complement()))
    out["l3_neglog_sum"] = l3_lam

    levels = becpolar.enumerate_levels(arikan.kernel, 0.5, n)
    dist = arikan.partial_distances
    for i in range(1, 2**n + 1):
        digs = _digits(i, 2, n)
        trace = []
        v = 0
        for k in range(n + 1):
            modes, payloads = levels[k]
            z = ExtendedUnitValue(int(modes[v]), float(payloads[v]))
            trace.append((z, dist[digs[k]] if k < n else 1))
            if k < n:
                v = v * 2 + digs[k]
        rep = boundprop.check_process_conditions(trace, c=4.0)
        out["c2_violations"] += rep.c2_violations
        out["c3_violations"] += rep.c3_violations

    out["orthant"] = [
        (t, v, rho, asymptotics.bivariate_orthant(t, v, rho))
        for t in grid for v in grid for rho in rhos
    ]
    return out


# ---------------------------------------------------------------------------
# Checks: a fingerprint compared against the reference, plus invariants.
# ---------------------------------------------------------------------------


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _table(text: str):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(_cell, ln.split(",")))) for ln in lines[1:]]
    return header, rows


def _table_fingerprint(text: str):
    header, rows = _table(text)
    fp = {"header": ",".join(header), "=rows": len(rows)}
    for r, row in enumerate(rows):
        for col, v in row.items():
            exact = isinstance(v, int) or col in EXACT_COLUMNS
            fp[f"{'=' if exact else ''}r{r}.{col}"] = v
    return fp, rows


def _dyadic(x: float, ell: int, n: int) -> bool:
    scaled = x * ell**n
    return 0.0 <= x <= 1.0 and abs(scaled - round(scaled)) < 1e-6


def _check_polarize(op, text, problems):
    p = op.params
    lines = text.split("\n")
    if lines[0] != "lambda" or lines[-1] != "":
        problems.append("polarize: bad CSV framing")
        return {}
    lam = np.array(lines[1:-1], dtype=np.float64)
    ell = len(p["kernel"].split(";"))
    want = p["paths"] if p["paths"] is not None else ell ** p["n"]
    if lam.size != want:
        problems.append(f"polarize: {lam.size} values, expected {want}")
        return {}
    if np.any(np.diff(lam) < 0):
        problems.append("polarize: column not sorted")
    mean_z = float(np.mean(np.exp2(-lam)))
    fp = {"=count": int(lam.size), "mean_z": mean_z}
    for beta in (0.25, 0.4, 0.5, 0.6):
        thr = float(ell) ** (beta * p["n"])
        fp[f"=tail.b{beta}"] = int(lam.size - np.searchsorted(lam, thr, side="left"))
    for k in range(17):
        fp[f"q{k}"] = float(lam[k * (lam.size - 1) // 16])
    if p["paths"] is None:
        # the Z martingale: the level mean is the root erasure probability
        if abs(mean_z - p["eps"]) > 1e-9:
            problems.append(f"polarize: mean Z {mean_z!r} != eps {p['eps']}")
    else:
        if abs(mean_z - p["eps"]) > 0.02:
            problems.append(f"polarize: sampled mean Z {mean_z!r} far from eps")
        if p["kernel"] == ARIKAN and p["n"] == 50:
            frac = fp["=tail.b0.5"] / lam.size
            if abs(frac - 0.25) > 0.05:
                problems.append(f"polarize: fraction at 2^25 is {frac}, not within 0.05 of 0.25")
    return fp


def _check_table(op, text, problems):
    fp, rows = _table_fingerprint(text)
    check = op.params["check"]
    if check in ("scaling", "exponent"):
        col = "exact_F" if check == "scaling" else "fraction"
        for row in rows:
            if not _dyadic(float(row[col]), op.params["ell"], row["n"]):
                problems.append(f"{check}: {col} {row[col]!r} is not a level fraction")
        if check == "scaling":
            for row in rows:
                if abs(abs(row["exact_F"] - row["predicted"]) - row["abs_error"]) > 1e-12:
                    problems.append("scaling: abs_error inconsistent")
        else:
            for a, b in zip(rows, rows[1:]):
                if a["n"] == b["n"] and b["beta"] > a["beta"] and b["fraction"] > a["fraction"]:
                    problems.append("exponent: fraction grows with beta")
    elif check == "selection":
        for row in rows:
            if not row["dmin"] >= 1 or not 0.0 <= float(row["overlap_with_rm"]) <= 1.0:
                problems.append(f"selection: bad row {row}")
    elif check == "map_bound":
        for row in rows:
            if not row["dmin_upper"] >= 1:
                problems.append(f"map-bound: bad row {row}")
    elif check == "codec":
        p = op.params
        for row in rows:
            if row["trials"] != p["trials"]:
                problems.append("codec-sim: trial count mismatch")
            if row["map_errors"] > row["sc_errors"]:
                problems.append("codec-sim: map_errors > sc_errors")
            if row["sc_rate"] != row["sc_errors"] / row["trials"]:
                problems.append("codec-sim: sc_rate inconsistent")
    return fp


def _flatten(prefix, v, out):
    if isinstance(v, dict):
        for k, w in v.items():
            _flatten(f"{prefix}{k}.", w, out)
    elif isinstance(v, list):
        for k, w in enumerate(v):
            _flatten(f"{prefix}{k}.", w, out)
    else:
        key = prefix[:-1]
        out[key if isinstance(v, float) else "=" + key] = v


def _check_kernel(op, text, problems):
    doc = json.loads(text)
    ell = len(op.params["kernel"].split(";"))
    if doc["ell"] != ell or len(doc["partial_distances"]) != ell:
        problems.append("kernel-analyze: wrong size")
    if any(d < 1 for d in doc["partial_distances"]):
        problems.append("kernel-analyze: zero partial distance")
    fp = {}
    _flatten("", doc, fp)
    return fp


def _check_audit(op, out, problems):
    if out["interval_violations"] or out["c2_violations"] or out["c3_violations"]:
        problems.append(f"audit: violations {out}")
    q = asymptotics.q_function
    fp = {f"={k}": out[k] for k in ("interval_violations", "c2_violations", "c3_violations")}
    fp["l3_neglog_sum"] = out["l3_neglog_sum"]
    for k, (t, v, rho, val) in enumerate(out["orthant"]):
        qmax = q(max(t, v))
        if val > qmax + 1e-12:
            problems.append(f"audit: orthant({t},{v},{rho}) above Q(max)")
        if rho == 0.0 and abs(val - q(t) * q(v)) > 1e-8:
            problems.append(f"audit: orthant({t},{v},0) != Q(t)Q(v)")
        if rho >= 1.0 - 1e-12 and abs(val - qmax) > 1e-6:
            problems.append(f"audit: orthant({t},{v},{rho}) != Q(max)")
        fp[f"orthant{k}"] = val
    return fp


def _check_decode(op, out, problems):
    code, words = out
    info_mask = np.zeros(code.block_length, dtype=bool)
    info_mask[code.info_indices - 1] = True
    fp = {}
    for w, (u, y, sc, verdict) in enumerate(words):
        det = sc.u != codec.ERASED
        if np.any(sc.u[det] != u[det]):
            problems.append(f"decode: word {w} SC determined a wrong bit")
        if verdict == "ambiguous" and not sc.undetermined:
            problems.append(f"decode: word {w} MAP ambiguous but SC determined")
        if w < op.params["words"]:  # later entries repeat the same words
            fp[f"=w{w}.erasures"] = y.erasure_count
            fp[f"=w{w}.undetermined"] = len(sc.undetermined)
            fp[f"=w{w}.map"] = verdict
    return fp


_CHECKS = {
    "polarize": _check_polarize,
    "scaling": _check_table,
    "exponent": _check_table,
    "selection": _check_table,
    "map_bound": _check_table,
    "codec": _check_table,
    "kernel": _check_kernel,
}


def fingerprint(op: Op, output):
    """(fingerprint, invariant problems) of an op's output."""
    problems: list[str] = []
    if op.kind == "cli":
        fp = _CHECKS[op.params["check"]](op, output, problems)
    elif op.kind == "audit":
        fp = _check_audit(op, output, problems)
    else:
        fp = _check_decode(op, output, problems)
    return fp, problems


def _same(key, want, got):
    if key.startswith("=") or not isinstance(want, float) or not isinstance(got, (int, float)):
        return want == got or (isinstance(want, float) and math.isnan(want) and math.isnan(got))
    return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(reference: dict | None, fp: dict) -> list[str]:
    if reference is None:
        return ["no reference fingerprint"]
    problems = []
    if set(reference) != set(fp):
        problems.append(f"fingerprint fields differ: {sorted(set(reference) ^ set(fp))[:5]}")
    for key in sorted(set(reference) & set(fp)):
        if not _same(key, reference[key], fp[key]):
            problems.append(f"{key}: expected {reference[key]!r}, got {fp[key]!r}")
    return problems


def check(op: Op, output, seed: int, references: dict, workload: str) -> list[str]:
    fp, problems = fingerprint(op, output)
    if not op.seeded or seed == 0:
        problems += compare(references.get(f"{workload}/{op.id}"), fp)
    return problems


# ---------------------------------------------------------------------------
# MAP replay (traced runs): the public single-word path over a prefix of a
# codec-sim op's trials.
# ---------------------------------------------------------------------------


@dataclass
class Replay:
    trials: int
    ambiguous: int
    simulate_map_errors: int
    problems: list = field(default_factory=list)


def replay_prefix(op: Op) -> Replay:
    p = op.params
    prefix = max(1, p["trials"] // 4)
    prof = gf2kernel.kernel_profile(gf2kernel.BitMatrix.from_literal(p["kernel"]))
    cdf = becpolar.enumerate_level(prof.kernel, p["eps"], p["n"])
    code = codec.PolarCode.from_selection(prof, construct.polar_selection(cdf, p["rate"]))
    zeros = np.zeros(code.block_length, dtype=np.int8)
    ambiguous = 0
    for t in range(prefix):
        y = codec.transmit_bec(zeros, p["eps"], rng.subseed(p["seed"], t))
        ambiguous += codec.map_decode_bec(y, code) == "ambiguous"
    want = codec.simulate(code, p["eps"], prefix, p["seed"]).map_errors
    rep = Replay(prefix, ambiguous, want)
    if ambiguous != want:
        rep.problems.append(f"MAP replay counted {ambiguous} ambiguous, simulate {want}")
    return rep
