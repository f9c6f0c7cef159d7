"""One benchmark worker process: set up polarkit, then run a workload.

Started by run.py, never by hand.  It imports polarkit from the checkout's
``src/``, makes one warm-up call, prints ``ready`` with its CPU seconds so
far, and then either exits (``--setup-only``) or runs the workload and
writes its raw results as JSON to ``--result``.

Untraced runs repeat passes over the op list until ``--seconds`` have gone
by; the first pass always completes, a later one stops at the deadline.
Traced runs make one pass in which every execution runs untraced and then
traced, then the MAP replay, then one pass with allocation hooks.

Every execution is followed by a few rounds of the calibration kernel
(calibrate.py); the result carries every round with its time, and each
execution's start and end, from which run.py computes reference seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate


def _import_polarkit(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import polarkit
    import polarkit.cli

    if not Path(polarkit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"polarkit imported from {polarkit.__file__}, not from {src}")
    return polarkit.cli


class Runner:
    """Executes ops and checks their outputs; one per worker."""

    def __init__(self, mod, workdir, args, references):
        self.mod = mod
        self.workdir = workdir
        self.seed = args.seed
        self.workload = args.workload
        self.references = references
        self.calibration = []  # (time, CPU seconds) of every kernel round
        calibrate.measure(self.calibration)

    def execute(self, op, repeat, tracer=None):
        """One (op, repeat) execution as a record of unit times and problems."""
        gc.collect()
        rec = {"id": op.id, "family": op.family, "wall": [], "cpu": [], "span": None,
               "problems": []}
        try:
            prepared = self.mod.prepare(op, self.workdir)
            start = time.perf_counter()
            with tracer.root(f"op:{op.id}") if tracer else contextlib.nullcontext():
                units, out = self.mod.run(op, prepared, repeat)
            rec["span"] = (start, time.perf_counter())
            calibrate.measure(self.calibration)
            rec["wall"], rec["cpu"] = units.wall, units.cpu
            rec["problems"] = self.mod.check(op, out, self.seed, self.references, self.workload)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec["problems"] = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        return rec

    def run_pass(self, ops, deadline=None):
        """One pass over the op list; stops early once ``deadline`` is past."""
        out = []
        for op, repeat in self.mod.schedule(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            out.append(self.execute(op, repeat))
        return out


def _traced(ops, runner):
    import layers
    import tracer as tr

    mod = runner.mod
    phases = {}
    clock = time.perf_counter
    t0 = clock()
    t = tr.Tracer()
    untraced, traced = [], []
    for op, repeat in mod.schedule(ops):
        # untraced and traced executions alternate, so that the overhead
        # ratio compares runs made seconds apart, not a pass apart
        untraced.append(runner.execute(op, repeat))
        t.install()
        try:
            traced.append(runner.execute(op, repeat, tracer=t))
        finally:
            t.uninstall()
    counters = dict(t.counters)
    phases["paired_passes"] = clock() - t0
    t0 = clock()
    replays = {}
    t.install()
    try:
        for op in ops:
            if op.family == "codec_sim":
                with t.root(f"replay:{op.id}"):
                    replays[op.id] = mod.replay_prefix(op)
    finally:
        t.uninstall()
    phases["replay"] = clock() - t0
    t0 = clock()
    with tr.MemoryHooks() as mem:
        memory = runner.run_pass(ops)
    phases["memory"] = clock() - t0
    t0 = clock()
    metrics, gate_lines = layers.layer_metrics(
        t, counters, ops, untraced, traced, replays, mem.peak_bytes)
    phases["aggregate"] = clock() - t0
    t0 = clock()
    t.save(runner.workdir / f"spans-{runner.workload}.npz")
    phases["save"] = clock() - t0
    return {
        "passes": [untraced],
        "traced_pass": traced,
        "memory_pass": memory,
        "layers": metrics,
        "notes": layers.NOTES,
        "gate_lines": gate_lines,
        "replays": {k: vars(v) for k, v in replays.items()},
        "phases": phases,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root)
    workdir = root / ".bench_work"
    cli = _import_polarkit(root)
    warm = workdir / f"warmup-{os.getpid()}.out"
    if cli.main(["kernel-analyze", "--kernel", "10;11", "--out", str(warm)]) != 0:
        raise SystemExit("warm-up call failed")
    warm.unlink()
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    import ops as mod

    ops = mod.workload_ops(args.workload, args.seed)
    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    runner = Runner(mod, workdir, args, references)
    if args.trace:
        result = _traced(ops, runner)
    else:
        deadline = time.perf_counter() + args.seconds
        passes = [runner.run_pass(ops)]
        while time.perf_counter() < deadline:
            passes.append(runner.run_pass(ops, deadline))
        result = {"passes": passes}
    result["calibration"] = runner.calibration
    result["ops"] = [{"id": op.id, "family": op.family, "primary": op.primary,
                      "work_units": mod.work_units(op)} for op in ops]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
