"""The four benchmark workloads: the library calls they time and their checks.

Each workload prepares its inputs from the benchmark seed, then runs
rounds.  A round makes the same library calls on the same inputs every
time (`calls`), and the checks (`check`) then judge the outputs against
closed forms evaluated here or against properties the method must have.
Checks take the outputs as their only input (ensemble-export's also
regenerate its ensembles to compare against), so `selftest.py` can feed
them wrong answers.

The library is reached only through its public module functions, looked
up on the module at call time (`wright_fisher.simulate_scaled_wf`, not a
name bound at import), so the traced run can wrap them from outside.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from winentropy import (ACCURATE_POLICY, cli, closed_form, entropy, multidim,
                        paths, pde, wright_fisher)
from winentropy.paths import StepPolicy

WORKLOADS = ("wf-entropy", "pde-routes", "ensemble-export", "sde-variants")


def stationary_f(x):
    """f(x) = -(x^2 log x^2 / 4 + (1-x)^2 log (1-x)^2 / 4 + x(1-x)), 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)

    def sq_log_sq(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0, a * a * np.log(np.where(a > 0, a * a, 1.0)), 0.0)

    return -(0.25 * sq_log_sq(x) + 0.25 * sq_log_sq(1.0 - x) + x * (1.0 - x))


F_HALF = float(stationary_f(0.5))      # -0.0767132...
INV_2E = 0.5 / math.e                  # 0.18393972...


class Checks:
    """Named pass/fail results of one round's checks."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [(n, d) for n, ok, d in self.results if not ok]


def ensemble_arrays(ens):
    """(times, states, step variances, absorption times) of any ensemble."""
    blocks = list(ens.iter_blocks())
    return (ens.times,
            np.concatenate([b.states for b in blocks]),
            np.concatenate([b.step_variance for b in blocks]),
            np.concatenate([b.absorption_time for b in blocks]))


def family_z(n: int) -> float:
    """|z| limit for n z-scores judged together: Bonferroni at the false-alarm
    rate of one 3-se check (0.27%), so the family fails a correct program no
    more often than one 3-se check does; 3.40 for n = 4."""
    return NormalDist().inv_cdf(1.0 - (1.0 - NormalDist().cdf(3.0)) / n)


def derived_seed(seed: int, k: int) -> int:
    """Library seed of a run's k-th ensemble; the first is the benchmark seed itself."""
    return (int(seed) + k * (1 << 32)) % (1 << 64)


# ---------------------------------------------------------------------------
# wf-entropy
# ---------------------------------------------------------------------------

@dataclass
class WfEntropy:
    """Scaled Wright-Fisher Monte Carlo: p-quotient profile and sigma martingale."""

    seed: int
    n_paths: int = 2048

    eps = 1e-4
    policy = ACCURATE_POLICY
    ops_per_round = 3
    ps = (2.1, 2.05, 2.01)
    checkpoints = (0.25, 0.5, 0.75, 0.9)

    def __post_init__(self):
        self.lib_seed = derived_seed(self.seed, 0)
        self.path_steps = self.n_paths * (len(self.policy.time_grid(0.0, 1.0 - self.eps)) - 1)
        self.work = self.path_steps

    def ensemble(self):
        return wright_fisher.simulate_scaled_wf(
            0.5, 0.0, eps=self.eps, n_paths=self.n_paths, seed=self.lib_seed,
            policy=self.policy)

    def calls(self, call) -> dict:
        ens = call(self.ensemble)
        rows, lm = call(lambda: entropy.p_quotient_profile(ens, list(self.ps)))
        stats = call(lambda: wright_fisher.sigma_martingale_check(ens, list(self.checkpoints)))
        return {"ens": ens, "rows": rows, "lm": lm, "stats": stats}

    def check(self, out) -> Checks:
        c = Checks()
        lm, rows = out["lm"], out["rows"]
        dev = abs(lm.value - F_HALF)
        c.add("log_moment_vs_f_half", dev <= 3.0 * lm.std_error,
              f"{lm.value:.6f} +- {lm.std_error:.2e} vs f(1/2) {F_HALF:.7f}")
        qs = [q for _, q, _ in rows]
        c.add("quotients_decrease_toward_2", all(a > b for a, b in zip(qs, qs[1:])),
              f"{qs}")
        _, q201, se201 = rows[-1]
        c.add("q201_vs_entropy", abs(q201 - lm.value) <= 3.0 * se201 + 1e-2,
              f"q(2.01) {q201:.6f} vs {lm.value:.6f}")
        ens = out["ens"]
        ref = 0.5 * 0.5 / (1.0 - 0.0)
        zs = [(s.mean_sigma - ref) / s.std_error for s in out["stats"]]
        c.add("sigma_martingale_z", all(abs(z) <= family_z(len(zs)) for z in zs),
              "z " + ", ".join(f"{z:+.2f}" for z in zs))
        c.add("ensemble_lazy", not ens.is_materialized, "ensemble was materialized")
        return c


# ---------------------------------------------------------------------------
# pde-routes
# ---------------------------------------------------------------------------

@dataclass
class PdeRoutes:
    """Backward DP at three refinement levels, stationary solve, HJB residual."""

    seed: int
    n_x0: int = 10
    n_stationary: int = 100_000
    n_residual: int = 128

    ops_per_round = 6
    path_steps = 0

    def __post_init__(self):
        # no random numbers: the inputs are the same for every seed
        self.specs = pde.default_refinement_specs(3, self.n_x0, 1e-2)
        self.work = sum(s.n_t * (s.n_x - 1) for s in self.specs)   # DP node updates

    def calls(self, call) -> dict:
        sols = [call(lambda s=s: pde.solve_dp(s)) for s in self.specs]
        stat = call(lambda: pde.solve_stationary(self.n_stationary))
        n = self.n_residual
        res = [call(lambda m=m: closed_form.hjb_residual(0.0, 0.1, m, m)) for m in (n, 2 * n)]
        return {"dp": [(s.value.x_grid, s.value.values) for s in sols],
                "stationary": (stat.x_grid, stat.values),
                "residual": [(g.x_grid, g.values) for g in res]}

    def check(self, out) -> Checks:
        c = Checks()
        x, v = out["dp"][-1]
        n_x = len(x) - 1
        worst = 0.0
        for xv in np.arange(1, 10) / 10.0:
            j = int(round(xv * n_x))
            exact = float(stationary_f(x[j]))   # vbar(0, x) = f(x)
            worst = max(worst, abs(v[j] - exact) / (0.05 * abs(exact) + 1e-2))
        c.add("dp_vs_closed_form", worst <= 1.0, f"worst err/tol {worst:.3f}")
        gaps = []
        for (xc, vc), (xf, vf) in zip(out["dp"], out["dp"][1:]):
            stride = (len(xf) - 1) // (len(xc) - 1)
            gaps.append(float(np.max(np.abs(vf[::stride] - vc))))
        c.add("refinement_gaps_decrease",
              len(gaps) >= 2 and all(b < a for a, b in zip(gaps, gaps[1:])),
              f"gaps {gaps}")
        xs, ws = out["stationary"]
        err = float(np.max(np.abs(ws - stationary_f(xs))))
        c.add("stationary_vs_f", err <= 1e-3, f"max err {err:.2e}")
        band = []
        for xg, r in out["residual"]:
            sel = (xg >= 0.1 - 1e-12) & (xg <= 0.9 + 1e-12)
            band.append(float(np.max(np.abs(r[:, sel]))))
        ratio = band[0] / band[1]
        c.add("residual_band_ratio", 3.2 <= ratio <= 5.0, f"ratio {ratio:.3f}")
        return c


# ---------------------------------------------------------------------------
# ensemble-export
# ---------------------------------------------------------------------------

SHORT_POLICY = StepPolicy(base_dt=0.02, adaptive=True, shrink=0.2)
SHORT_EPS = 1e-2
LONG_POLICY = StepPolicy()
LONG_EPS = 1e-3


@dataclass
class EnsembleExport:
    """CLI export: many short paths as binary, a few long ones as CSV; read back."""

    seed: int
    scratch: str
    n_short: int = 10_000
    n_long: int = 100

    ops_per_round = 3

    def __post_init__(self):
        os.makedirs(self.scratch, exist_ok=True)
        self._fresh = None
        self._csv_checked = None   # sha256 of a CSV that passed the full check
        self.short_seed = derived_seed(self.seed, 0)
        self.long_seed = derived_seed(self.seed, 1)
        self.bin_path = os.path.join(self.scratch, "short.bin")
        self.csv_path = os.path.join(self.scratch, "long.csv")
        self.short_argv = [
            "simulate", "--scheme", "scaled", "--x0", "0.5", "--t0", "0.0",
            "--eps", repr(SHORT_EPS), "--paths", str(self.n_short),
            "--seed", str(self.short_seed), "--base-dt", repr(SHORT_POLICY.base_dt),
            "--shrink", repr(SHORT_POLICY.shrink), "--format", "binary",
            "--out", self.bin_path]
        self.long_argv = [
            "simulate", "--scheme", "scaled", "--x0", "0.5", "--t0", "0.0",
            "--eps", repr(LONG_EPS), "--paths", str(self.n_long),
            "--seed", str(self.long_seed), "--base-dt", repr(LONG_POLICY.base_dt),
            "--shrink", repr(LONG_POLICY.shrink), "--format", "csv",
            "--out", self.csv_path]
        n_short_steps = len(SHORT_POLICY.time_grid(0.0, 1.0 - SHORT_EPS)) - 1
        n_long_steps = len(LONG_POLICY.time_grid(0.0, 1.0 - LONG_EPS)) - 1
        self.path_steps_short = self.n_short * n_short_steps
        self.path_steps = self.work = self.path_steps_short + self.n_long * n_long_steps

    def regenerate_short(self):
        return wright_fisher.simulate_scaled_wf(
            0.5, 0.0, eps=SHORT_EPS, n_paths=self.n_short, seed=self.short_seed,
            policy=SHORT_POLICY)

    def regenerate_long(self):
        return wright_fisher.simulate_scaled_wf(
            0.5, 0.0, eps=LONG_EPS, n_paths=self.n_long, seed=self.long_seed,
            policy=LONG_POLICY)

    def calls(self, call) -> dict:
        code_bin = call(lambda: cli.main(list(self.short_argv)))
        code_csv = call(lambda: cli.main(list(self.long_argv)))
        back = call(lambda: paths.PathEnsemble.from_binary(self.bin_path))
        return {"codes": (code_bin, code_csv), "readback": ensemble_arrays(back),
                "csv_path": self.csv_path}

    @staticmethod
    def check_csv(csv_path, fresh_long, c) -> bool:
        """Parse the CSV with the standard library and compare it with the
        regenerated long ensemble, bit for bit."""
        lt, lst, lsv, _ = fresh_long
        n_paths, n_times = lst.shape
        arr = np.full((n_paths * n_times, 4), np.nan)
        n_rows = 0
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            for row in reader:
                if n_rows < len(arr):
                    arr[n_rows] = [float(v) for v in row]
                n_rows += 1
        shape_ok = header == ["path_id", "t", "x", "sigma_sq"] and n_rows == len(arr)
        c.add("csv_row_count", shape_ok, f"{n_rows} rows for {n_paths} x {n_times}")
        arr = arr.reshape(n_paths, n_times, 4)
        sv_full = np.concatenate([lsv, np.zeros((n_paths, 1))], axis=1)
        same = (shape_ok
                and np.array_equal(arr[:, :, 0], np.repeat(np.arange(n_paths)[:, None], n_times, 1))
                and np.array_equal(arr[:, :, 1], np.broadcast_to(lt, (n_paths, n_times)))
                and np.array_equal(arr[:, :, 2], lst)
                and np.array_equal(arr[:, :, 3], sv_full))
        c.add("csv_equals_regenerated", same, "CSV floats differ from a fresh simulation")
        return shape_ok and same

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def check(self, out) -> Checks:
        c = Checks()
        c.add("cli_exit_codes", out["codes"] == (0, 0), f"exit codes {out['codes']}")
        times, st, sv, ab = out["readback"]
        if self._fresh is None:
            # every round exports the same seeded ensembles: regenerate them once
            self._fresh = (ensemble_arrays(self.regenerate_short()),
                           ensemble_arrays(self.regenerate_long()))
        (ft, fst, fsv, fab), fresh_long = self._fresh
        c.add("binary_equals_regenerated",
              np.array_equal(times, ft) and np.array_equal(st, fst)
              and np.array_equal(sv, fsv) and np.array_equal(ab, fab, equal_nan=True),
              "read-back differs from a fresh simulation with the same seed")
        digest = hashlib.sha256(Path(out["csv_path"]).read_bytes()).hexdigest()
        if digest == self._csv_checked:
            # every round writes the same CSV: parse only bytes not yet checked
            c.add("csv_row_count", True)
            c.add("csv_equals_regenerated", True)
        elif self.check_csv(out["csv_path"], fresh_long, c):
            self._csv_checked = digest
        for label, (t, x, v, a) in (("short", out["readback"]), ("long", fresh_long)):
            in_range = bool(np.all((x >= 0.0) & (x <= 1.0)))
            absorbed = np.flatnonzero(~np.isnan(a))
            k = np.searchsorted(t, a[absorbed])
            xa = x[absorbed]
            at = xa[np.arange(len(absorbed)), k]
            after = np.arange(x.shape[1])[None, :] >= k[:, None]
            frozen = bool(np.all((at == 0.0) | (at == 1.0))
                          and np.all(np.where(after, xa == at[:, None], True)))
            c.add(f"{label}_states_in_unit_interval_and_frozen", in_range and frozen,
                  f"in [0,1]: {in_range}, absorbed paths frozen: {frozen}")
            xs = x[:, :-1]
            expect = xs * (1.0 - xs) / (1.0 - t[:-1])
            c.add(f"{label}_step_variance_formula",
                  bool(np.all(np.abs(v - expect) <= 1e-14 * np.abs(expect))),
                  f"max abs dev {float(np.max(np.abs(v - expect))):.3e}")
            fin = x[:, -1]
            se = float(fin.std(ddof=1) / math.sqrt(len(fin)))
            c.add(f"{label}_mean_final_state", abs(fin.mean() - 0.5) <= 4.0 * se,
                  f"mean {fin.mean():.5f} se {se:.5f}")
        return c


# ---------------------------------------------------------------------------
# sde-variants
# ---------------------------------------------------------------------------

def sigma_sine(x):
    return 1.0 + 0.5 * np.sin(x)


SQRT_E = math.sqrt(math.e)


def sigma_sqrt_e(x):
    return np.full_like(np.asarray(x, dtype=float), SQRT_E)


@dataclass
class SdeVariants:
    """Generic-SDE reciprocity (sine and constant volatility) and simplex WF."""

    seed: int
    n_sine: int = 1024
    n_const: int = 256
    n_simplex: int = 250
    n_d1: int = 125

    simplex_eps = 1e-2
    policy = StepPolicy()
    ops_per_round = 8
    dt = 1e-3
    x0_simplex = (1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        self.seeds = [derived_seed(self.seed, k) for k in range(4)]
        n_simplex_steps = len(self.policy.time_grid(0.0, 1.0 - self.simplex_eps)) - 1
        # reciprocity: the SDE side's horizon 1.05/sigma_min^2, the Brownian side's [0, 1]
        sine_steps = math.ceil(1.05 / 0.25 / self.dt) + round(1.0 / self.dt)
        const_steps = math.ceil(1.05 / math.e / self.dt) + round(1.0 / self.dt)
        self.path_steps = (self.n_sine * sine_steps + self.n_const * const_steps
                           + self.n_simplex * n_simplex_steps * 2 + self.n_d1 * n_simplex_steps)
        self.work = self.path_steps

    def calls(self, call) -> dict:
        s0, s1, s2, s3 = self.seeds
        sine = call(lambda: wright_fisher.reciprocity_check(
            sigma_sine, 0.0, self.n_sine, s0, sigma_min=0.5, sigma_max=1.5, dt=self.dt))
        const = call(lambda: wright_fisher.reciprocity_check(
            sigma_sqrt_e, 0.0, self.n_const, s1, sigma_min=SQRT_E, sigma_max=SQRT_E,
            dt=self.dt))
        ens2 = call(lambda: multidim.simulate_simplex_wf(
            2, list(self.x0_simplex), eps=self.simplex_eps, n_paths=self.n_simplex,
            seed=s2, policy=self.policy))
        md2 = call(lambda: multidim.md_reciprocal_entropy(ens2))
        ens1 = call(lambda: multidim.simulate_simplex_wf(
            1, [0.5], eps=self.simplex_eps, n_paths=self.n_d1, seed=s3, policy=self.policy))
        md1 = call(lambda: multidim.md_reciprocal_entropy(ens1))
        view = call(lambda: multidim.scalar_view(ens1))
        scalar = call(lambda: entropy.reciprocal_entropy_estimate(view))
        return {"sine": sine, "const": const, "simplex": ens2.states,
                "simplex_x0": np.array(self.x0_simplex), "md2": md2,
                "d1_states": ens1.states, "md1": md1, "scalar": scalar}

    def check(self, out) -> Checks:
        c = Checks()
        lhs, rhs = out["sine"]
        comb = math.hypot(lhs.std_error, rhs.std_error)
        c.add("sine_reciprocity_sides_agree", abs(lhs.value - rhs.value) <= 3.0 * comb,
              f"{lhs.value:.6f} vs {rhs.value:.6f}, combined se {comb:.2e}")
        cl, cr = out["const"]
        c.add("sqrt_e_sides_exact",
              abs(cl.value - INV_2E) <= 1e-7 and abs(cr.value - INV_2E) <= 1e-7,
              f"{cl.value:.9f}, {cr.value:.9f} vs {INV_2E:.9f}")
        for label, states, x0 in (("d2", out["simplex"], out["simplex_x0"]),
                                  ("d1", out["d1_states"], np.array([0.5]))):
            feasible = bool(np.all(states >= 0.0) and np.all(states.sum(axis=-1) <= 1.0 + 1e-12))
            fin = states[:, -1, :]
            se = fin.std(axis=0, ddof=1) / math.sqrt(len(fin))
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (fin.mean(axis=0) - x0) / se
            c.add(f"simplex_{label}_feasible", feasible, "a state left the simplex")
            c.add(f"simplex_{label}_mean_final_state", bool(np.all(np.abs(z) <= 4.0)),
                  f"z {np.round(z, 2).tolist()}")
        md1, sc = out["md1"], out["scalar"]
        c.add("d1_matrix_equals_scalar",
              math.isclose(md1.value, sc.value, rel_tol=1e-12, abs_tol=1e-12)
              and math.isclose(md1.std_error, sc.std_error, rel_tol=1e-10, abs_tol=1e-12),
              f"{md1.value!r} vs {sc.value!r}")
        md2 = out["md2"]
        c.add("d2_matrix_entropy_finite", math.isfinite(md2.value) and md2.value >= 0.0,
              f"{md2.value!r}")
        return c


def make(name: str, seed: int, scratch: str, small: bool = False):
    """Build a workload at its benchmark size, or at the self-test's small size."""
    if name == "wf-entropy":
        # one size: below about 1,500 paths 3 se exceeds the 0.01 shift the
        # self-test feeds the log-moment check
        return WfEntropy(seed)
    if name == "pde-routes":
        # the DP levels keep their size: from n_x0 = 9 down, a 0.01 x(1-x)
        # bump no longer reverses the refinement gaps
        return (PdeRoutes(seed, n_stationary=2000, n_residual=64) if small
                else PdeRoutes(seed))
    if name == "ensemble-export":
        return (EnsembleExport(seed, scratch, n_short=500, n_long=20) if small
                else EnsembleExport(seed, scratch))
    if name == "sde-variants":
        return (SdeVariants(seed, n_sine=512, n_const=64, n_simplex=100, n_d1=50)
                if small else SdeVariants(seed))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
