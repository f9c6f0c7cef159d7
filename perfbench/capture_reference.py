"""Regenerate perfbench/reference.json: op fingerprints at workload seed 0.

    python3 perfbench/capture_reference.py

Run it only at a commit whose outputs are the accepted reference; the
benchmark compares every later run against the file it writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import ops as mod

    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    reference = {}
    for workload in mod.WORKLOADS:
        for op in mod.workload_ops(workload, 0):
            _, out = mod.run(op, mod.prepare(op, workdir), 1)
            fp, problems = mod.fingerprint(op, out)
            if problems:
                raise SystemExit(f"{workload}/{op.id}: {problems}")
            reference[f"{workload}/{op.id}"] = fp
            print(f"{workload}/{op.id}: {len(fp)} fields", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
