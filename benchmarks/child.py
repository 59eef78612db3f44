"""One workload process: set-up, timed rounds, checks, and the traced run.

Started by run.py, which passes the monotonic time at which it started
this process (`--started`); the set-up time is measured from there to
the first timed library call.  Prints one JSON object as the last line
of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import winentropy  # noqa: E402
from winentropy import entropy, paths  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


class Runner:
    """Times each library call of a round; checks are not timed."""

    def __init__(self):
        self.run_s = 0.0
        self.done = 0

    def call(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.run_s += time.perf_counter() - t0
        self.done += 1
        return out


def run_round(wl, tracer):
    """One round: (run_s, failed operations, failed checks)."""
    runner = Runner()
    if tracer is not None:
        tracer.install()
    try:
        out = wl.calls(runner.call)
    except Exception:
        traceback.print_exc()
        return runner.run_s, wl.ops_per_round - runner.done, []
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        bad = wl.check(out).failed
    except Exception:
        traceback.print_exc()
        bad = [("check raised", "")]
    return runner.run_s, 0, bad


def probes(wl, tracer) -> int:
    """Traced layer probes of the Monte Carlo workloads; returns the number of calls."""
    if isinstance(wl, workloads.WfEntropy):
        build, steps = wl.ensemble, wl.path_steps
    elif isinstance(wl, workloads.EnsembleExport):
        build, steps = wl.regenerate_short, wl.path_steps_short
    else:
        return 0

    def sweep():
        # one generation sweep: a lazy ensemble generates in iter_blocks,
        # an eager one inside simulate_scaled_wf
        for _ in build().iter_blocks():
            pass

    tracer.install()
    try:
        tracer.run("probe.simulate_sweep", sweep, count=lambda r, a: steps)
        if not isinstance(wl, workloads.WfEntropy):
            return 1
        ens = build()
        blk = next(ens.iter_blocks())
        one = paths.PathEnsemble.from_arrays(
            ens.times, blk.states, blk.step_variance, absorption_time=blk.absorption_time,
            master_seed=ens.master_seed, x0=0.5, t0=ens.t0, eps=ens.eps)
        del ens, blk
        tracer.run("probe.block_reduce", entropy.p_quotient_profile, one, list(wl.ps),
                   count=lambda r, a: one.n_paths * one.n_steps)
        return 2
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    winentropy.set_max_workers(args.workers)
    wl = workloads.make(args.workload, args.seed,
                        str(OUT_DIR / f"{args.workload}-{os.getpid()}"))
    setup_s = time.monotonic() - args.started
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, bad = [], [], []
        attempted = failed = 0
        t_begin = time.monotonic()
        while True:
            for tr in ([None, tracer] if tracer else [None]):
                run_s, n_failed, checks = run_round(wl, tr)
                (plain if tr is None else traced).append(run_s)
                attempted += wl.ops_per_round
                failed += n_failed
                bad += checks
            if time.monotonic() - t_begin >= args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        run_s = statistics.median(plain)
        if tracer is None:
            metrics = {"run_s": run_s, "peak_rss_mb": rss_mb, "work_per_s": wl.work / run_s}
        else:
            n_round_spans = len(tracer.spans)
            attempted += probes(wl, tracer)
            metrics = tracing.layer_metrics(tracer.spans[:n_round_spans], len(traced),
                                            wl.path_steps, tracer.spans[n_round_spans:])
            metrics["trace.overhead_s"] = statistics.median(traced) - run_s
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"))
        for name, detail in bad:
            print(f"check failed: {args.workload}: {name}: {detail}", file=sys.stderr)
        print(json.dumps({"setup_s": setup_s, "correct": not bad, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
