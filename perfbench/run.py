"""polarkit benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polarkit checkout.  Workloads are ``decoder-mc``
and ``wide-kernel``, the two BENCHMARK.json lists, and ``exact-level``,
which runs the same way but is left out of BENCHMARK.json because its
seconds-long ops (``polarize --n 20``, ``selection-compare --n 16,20``, the
audit) spread by 20-40% between runs even after rescaling (see ops.py).

Every time metric is in reference seconds: CPU seconds of the worker
process (user + system), each sample rescaled by the speed the machine
showed around it (within calibrate.WINDOW_S seconds), measured with a fixed
calibration kernel (see calibrate.py).  CPU rather than wall seconds,
because wall time on a shared virtual machine also counts the time the
hypervisor gives the CPU to other guests; rescaled, because even CPU
seconds there drift by 20-40% from minute to minute.  Raw CPU and wall
figures are printed alongside.

Set-up time (``setup_s``) is the median, over nine fresh worker processes
started only for that, of the time from process start to ``ready``:
interpreter start, ``import polarkit`` and one warm-up CLI call.  One
untimed start before them fills the bytecode cache, and the calibration
kernel runs in this process before and after each start.  Then one worker
runs the workload; one worker runs at a time, with BLAS/OpenMP threads
capped at the number of CPUs this process may use.

With ``--trace 0`` the worker repeats passes over the workload's op list for
``--seconds``; an op's time is its work units times its median unit time
over all passes.  With ``--trace 1`` it makes the paired traced pass, the
MAP replay and the memory pass instead, and the result carries the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it are a readable report.  Scratch files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-level", "decoder-mc", "wide-kernel")
FAMILIES = ("polarize", "verify", "selection", "audit", "codec_sim", "decode", "kernel_analyze")
SETUP_STARTS = 9
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _start(env, extra):
    """Start a worker; returns (process, wall seconds to ready, CPU seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    word, _, cpu = proc.stdout.readline().partition(" ")
    wall = time.perf_counter() - t0
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not reach ready")
    return proc, wall, float(cpu)


def _finish(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run deadline")
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def _tail(values):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return "-", None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def _machine_lines(nproc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        npv = numpy.__version__
    except ImportError:
        npv = "unavailable"
    threads = " ".join(f"{v}={nproc}" for v in THREAD_VARS)
    return [
        f"machine: nproc={nproc} cpu={cpu!r} python={platform.python_version()} numpy={npv}",
        f"threads: {threads}",
    ]


def _add_reference_times(result):
    """Give every record its unit times in reference seconds ("ref")."""
    for rec in _records(result):
        k = calibrate.scale(result["calibration"], rec["span"]) if rec["span"] else 0.0
        rec["ref"] = [c * k for c in rec["cpu"]]


def _op_samples(result, clock):
    """Per op: (work units, every unit time on ``clock`` over the untraced passes).

    ``clock`` is "ref" (reference seconds), "cpu" or "wall".
    """
    return {op["id"]: (op["work_units"],
                       [u for p in result["passes"] for rec in p if rec["id"] == op["id"]
                        for u in rec[clock]])
            for op in result["ops"]}


def _e2e(result, op_samples, setup_samples):
    """End-to-end metrics: (value, unit, samples behind it).

    An op's time is its work units times its median unit time; a family
    metric sums its ops and run_s sums every op, so run_s estimates one pass
    over the op list with every op executed once.
    """
    est = {op_id: work * statistics.median(units) if units else 0.0
           for op_id, (work, units) in op_samples.items()}
    family = {op["id"]: op["family"] for op in result["ops"]}
    n = {op_id: len(units) for op_id, (_, units) in op_samples.items()}
    metrics = {"setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
               "run_s": (sum(est.values()), "s", sum(n.values()))}
    for fam in FAMILIES:
        ids = [i for i in est if family[i] == fam]
        metrics[f"{fam}_s"] = (sum(est[i] for i in ids), "s", sum(n[i] for i in ids))
    metrics["peak_rss_mb"] = (result["peak_rss_kib"] / 1024.0, "MiB", 1)
    return metrics


def _records(result):
    for p in result["passes"]:
        yield from p
    yield from result.get("traced_pass", [])
    yield from result.get("memory_pass", [])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polarkit" / "__init__.py").is_file():
        print(f"error: no polarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = _env(nproc)
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    result_path = workdir / f"result-{args.workload}.json"
    result_path.unlink(missing_ok=True)

    setup = {"wall": [], "cpu": [], "ref": []}
    calibration, spans = [], []
    calibrate.measure(calibration)
    for i in range(SETUP_STARTS + 1):  # the first start only fills caches
        begin = time.perf_counter()
        proc, wall, cpu = _start(env, ["--setup-only"])
        _finish(proc, deadline)
        spans.append((begin, time.perf_counter()))
        calibrate.measure(calibration)
        if i:
            setup["wall"].append(wall)
            setup["cpu"].append(cpu)
    setup["ref"] = [cpu * calibrate.scale(calibration, span)
                    for cpu, span in zip(setup["cpu"], spans[1:])]
    proc, _, _ = _start(env, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path)])
    _finish(proc, deadline)
    result = json.loads(result_path.read_text())
    _add_reference_times(result)

    records = list(_records(result))
    failed = [rec for rec in records if rec["problems"]]
    replays = result.get("replays", {})
    attempted = len(records) + len(replays)
    n_failed = len(failed) + sum(bool(rep["problems"]) for rep in replays.values())

    print(f"polarkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in _machine_lines(nproc):
        print(line)
    ref_samples = _op_samples(result, "ref")
    e2e = _e2e(result, ref_samples, setup["ref"])
    raw = {clock: _e2e(result, _op_samples(result, clock), setup[clock])
           for clock in ("cpu", "wall")}
    label = "untraced pass" if args.trace else "untraced passes"
    print(f"end to end ({len(result['passes'])} {label}; reference seconds, "
          f"raw CPU and wall seconds in brackets):")
    for name, (value, unit, count) in e2e.items():
        bracket = (f"[{raw['cpu'][name][0]:.4f} {raw['wall'][name][0]:.4f}]"
                   if unit == "s" else "")
        print(f"  {name:<20}{value:>12.4f} {unit:<4}{bracket:>20}  from {count} samples")
    print(f"per op unit (ref s): {'work':>14}{'median':>10}{'tail':>6}{'value':>10}{'samples':>8}")
    for op in result["ops"]:
        work, units = ref_samples[op["id"]]
        role = "" if op["primary"] else " (probe)"
        tail_label, tail = _tail(units)
        med = f"{statistics.median(units):.4f}" if units else "-"
        tail_s = "-" if tail is None else f"{tail:.4f}"
        print(f"  {op['id'] + role:<32}{work:>6}{med:>10}{tail_label:>6}{tail_s:>10}"
              f"{len(units):>8}  {op['family']}")
    for rec in failed:
        print(f"FAILED {rec['id']}: {'; '.join(rec['problems'])[:300]}")
    for op_id, rep in replays.items():
        print(f"replay {op_id}: {rep['trials']} trials, {rep['ambiguous']} ambiguous, "
              f"simulate says {rep['simulate_map_errors']}")
        for prob in rep["problems"]:
            print(f"FAILED replay {op_id}: {prob}")
    if "layers" in result:
        print("per layer (traced pass, wall seconds):")
    for name, (value, unit) in result.get("layers", {}).items():
        note = result["notes"].get(name, "")
        note = f"  ({note})" if note else ""
        print(f"  {name:<34}{value:>16.6g}  {unit}{note}")
    if "phases" in result:
        print("traced run phases (wall s): " + " ".join(
            f"{k}={v:.2f}" for k, v in result["phases"].items()))
    for line in result.get("gate_lines", []):
        print(line)
    print(f"ops: attempted {attempted}, failed {n_failed}, "
          f"fail_share {n_failed / attempted:.4f}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
