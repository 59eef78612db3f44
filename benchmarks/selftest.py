"""Self-test of the benchmark: every workload runs, and every check has teeth.

    python3 benchmarks/selftest.py

Each workload runs once at a small size with its checks on, and all of
its checks must pass.  Then each check is fed a wrong answer (a shifted
estimate, a perturbed DP row, a flipped byte in the binary read-back,
reciprocity sides 5 standard errors apart, ...), and the check it aims
at must fail.  Prints one line per case; exits 1 if any case goes wrong.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from winentropy import paths  # noqa: E402

import workloads  # noqa: E402
from workloads import F_HALF  # noqa: E402

SCRATCH = ROOT / ".bench_out" / f"selftest-{os.getpid()}"


def _away(value, centre):
    return 1.0 if value >= centre else -1.0


# --- wf-entropy ----------------------------------------------------------------

def wf_shift_log_moment(wl, out):
    lm = out["lm"]
    out["lm"] = dataclasses.replace(lm, value=lm.value + 0.01 * _away(lm.value, F_HALF))
    return "log_moment_vs_f_half"


def wf_reverse_quotients(wl, out):
    qs = [q for _, q, _ in out["rows"]][::-1]
    out["rows"] = [(p, q, se) for (p, _, se), q in zip(out["rows"], qs)]
    return "quotients_decrease_toward_2"


def wf_shift_q201(wl, out):
    p, q, se = out["rows"][-1]
    out["rows"][-1] = (p, q + 3.0 * se + 0.02, se)
    return "q201_vs_entropy"


def wf_shift_sigma_mean(wl, out):
    s = out["stats"][2]
    out["stats"][2] = dataclasses.replace(
        s, mean_sigma=s.mean_sigma + 4.0 * s.std_error * _away(s.mean_sigma, 0.25))
    return "sigma_martingale_z"


def wf_materialized(wl, out):
    out["ens"] = paths.constant_variance_ensemble(0.25)
    return "ensemble_lazy"


# --- pde-routes ----------------------------------------------------------------

def _bump(x):
    return 0.01 * x * (1.0 - x)


def pde_perturb_dp_row(wl, out):
    x, v = out["dp"][-1]
    out["dp"][-1] = (x, v + _bump(x))
    return "refinement_gaps_decrease"


def pde_shift_dp_value(wl, out):
    x, v = out["dp"][-1]
    out["dp"][-1] = (x, v + 0.05)
    return "dp_vs_closed_form"


def pde_perturb_stationary(wl, out):
    x, w = out["stationary"]
    out["stationary"] = (x, w + _bump(x))
    return "stationary_vs_f"


def pde_first_order_residual(wl, out):
    (x1, r1), (x2, r2) = out["residual"]
    # a first-order residual: halves, not quarters, per doubling
    out["residual"][1] = (x2, np.full_like(r2, 0.5 * np.abs(r1).max()))
    return "residual_band_ratio"


# --- ensemble-export -----------------------------------------------------------

def _read_back(path):
    return workloads.ensemble_arrays(paths.PathEnsemble.from_binary(path))


def export_flip_byte(wl, out):
    data = bytearray(Path(wl.bin_path).read_bytes())
    (slen,) = np.frombuffer(bytes(data[48:52]), dtype="<u4")
    n_times = len(out["readback"][0])
    # lowest byte of the fourth state of path 0: a one-ulp change
    off = 52 + int(slen) + 8 * n_times + 8 * 3
    data[off] ^= 0x01
    bad = str(SCRATCH / "flipped.bin")
    Path(bad).write_bytes(bytes(data))
    out["readback"] = _read_back(bad)
    return "binary_equals_regenerated"


def _rewrite_csv(out, edit):
    lines = Path(out["csv_path"]).read_text().splitlines(keepends=True)
    lines = edit(lines)
    bad = str(SCRATCH / "edited.csv")
    Path(bad).write_text("".join(lines))
    out["csv_path"] = bad


def export_csv_ulp(wl, out):
    def edit(lines):
        pid, t, x, sv = lines[5].strip().split(",")
        x = format(float(np.nextafter(float(x), 2.0)), ".17g")
        lines[5] = ",".join([pid, t, x, sv]) + "\n"
        return lines
    _rewrite_csv(out, edit)
    return "csv_equals_regenerated"


def export_csv_drop_row(wl, out):
    _rewrite_csv(out, lambda lines: lines[:-1])
    return "csv_row_count"


def export_state_out_of_range(wl, out):
    t, x, v, a = copy.deepcopy(out["readback"])
    x[0, 5] = 1.5
    out["readback"] = (t, x, v, a)
    return "short_states_in_unit_interval_and_frozen"


def export_unfreeze(wl, out):
    t, x, v, a = copy.deepcopy(out["readback"])
    absorbed = np.flatnonzero(~np.isnan(a))
    if len(absorbed) == 0:
        raise RuntimeError("no absorbed path to unfreeze")
    x[absorbed[0], -1] = 0.5
    out["readback"] = (t, x, v, a)
    return "short_states_in_unit_interval_and_frozen"


def export_step_variance(wl, out):
    t, x, v, a = copy.deepcopy(out["readback"])
    v[0, 0] *= 1.0 + 1e-13
    out["readback"] = (t, x, v, a)
    return "short_step_variance_formula"


def export_final_state(wl, out):
    t, x, v, a = copy.deepcopy(out["readback"])
    x[:, -1] = 1.0
    out["readback"] = (t, x, v, a)
    return "short_mean_final_state"


# --- sde-variants --------------------------------------------------------------

def sde_sides_apart(wl, out):
    lhs, rhs = out["sine"]
    comb = math.hypot(lhs.std_error, rhs.std_error)
    out["sine"] = (lhs, dataclasses.replace(rhs, value=lhs.value + 5.0 * comb))
    return "sine_reciprocity_sides_agree"


def sde_const_off(wl, out):
    lhs, rhs = out["const"]
    out["const"] = (lhs, dataclasses.replace(rhs, value=rhs.value + 1e-6))
    return "sqrt_e_sides_exact"


def sde_negative_coordinate(wl, out):
    out["simplex"] = out["simplex"].copy()
    out["simplex"][0, 3, 0] = -1e-9
    return "simplex_d2_feasible"


def sde_sum_above_one(wl, out):
    out["simplex"] = out["simplex"].copy()
    out["simplex"][0, 3] = (0.6, 0.5)
    return "simplex_d2_feasible"


def sde_simplex_mean(wl, out):
    out["simplex"] = out["simplex"].copy()
    n = out["simplex"].shape[0]
    out["simplex"][:, -1, 0] = np.where(np.arange(n) % 2, 0.9, 0.8)
    out["simplex"][:, -1, 1] = 0.0
    return "simplex_d2_mean_final_state"


def sde_d1_mismatch(wl, out):
    out["md1"] = dataclasses.replace(out["md1"], value=out["md1"].value * (1.0 + 1e-9))
    return "d1_matrix_equals_scalar"


def sde_negative_md2(wl, out):
    out["md2"] = dataclasses.replace(out["md2"], value=-0.1)
    return "d2_matrix_entropy_finite"


CASES = {
    "wf-entropy": [wf_shift_log_moment, wf_reverse_quotients, wf_shift_q201,
                   wf_shift_sigma_mean, wf_materialized],
    "pde-routes": [pde_perturb_dp_row, pde_shift_dp_value, pde_perturb_stationary,
                   pde_first_order_residual],
    "ensemble-export": [export_flip_byte, export_csv_ulp, export_csv_drop_row,
                        export_state_out_of_range, export_unfreeze,
                        export_step_variance, export_final_state],
    "sde-variants": [sde_sides_apart, sde_const_off, sde_negative_coordinate,
                     sde_sum_above_one, sde_simplex_mean, sde_d1_mismatch,
                     sde_negative_md2],
}


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, seed=0, scratch=str(SCRATCH / name), small=True)
            out = wl.calls(lambda fn: fn())
            failed = wl.check(out).failed
            print(f"{name}: small run, checks {'pass' if not failed else failed}")
            bad += bool(failed)
            for case in CASES[name]:
                wrong = copy.copy(out)
                for k, v in out.items():
                    if isinstance(v, list):
                        wrong[k] = list(v)
                target = case(wl, wrong)
                caught = target in [n for n, _ in wl.check(wrong).failed]
                print(f"{name}: {case.__name__} -> {target} "
                      f"{'fails, as it must' if caught else 'PASSES: no teeth'}")
                bad += not caught
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest:", "ok" if bad == 0 else f"{bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
