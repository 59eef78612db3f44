"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload wf-entropy --seed 0 --seconds 25 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory.  The workload runs in a child process (`child.py`), which
repeats whole rounds of its library calls until `--seconds` have passed
and checks every round's outputs.  Set-up time is measured over several
fresh processes and reported as their median.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the child alternates plain and traced rounds and the
metrics are the per-layer ones, plus the tracing overhead.  The last
line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 2 if the library is missing, 1 if a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 5   # processes whose set-up time is measured; setup_s is their median


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("WINENTROPY_THREADS", None)
    return env


def spawn(args, extra, deadline) -> dict:
    """Start child.py, wait for it, and return its last output line as JSON."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workers", str(args.workers),
           "--started", repr(started)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env(), timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=int, default=25,
                    help="measure for this long; whole rounds, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=2,
                    help="reduction worker threads (default 2)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "winentropy" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'winentropy'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        setup = [spawn(args, ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup + [res["setup_s"]])
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
