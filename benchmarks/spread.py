"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads wf-entropy pde-routes --seeds 1-10

For every workload, runs run.py once per seed (trace off) and prints, per
end-to-end metric, the median, the quartiles and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  Each result line is appended to .bench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for wl in args.workloads:
        values, shares = {}, set()
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit code {proc.returncode}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out_dir / "results.jsonl", "a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
            shares.add(Fraction(res["failed"], res["attempted"]))
            ok = ok and res["correct"]
            if not res["correct"]:
                print(f"{wl} seed {seed}: checks failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: failed shares {sorted(str(f) for f in shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  ABOVE bound/3"
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
