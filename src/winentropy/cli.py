"""Command-line front end: every verification as a seeded, reproducible run.

Each subcommand writes one artifact (CSV or JSON, full round-trip float
precision) plus a JSON manifest recording the command, resolved
parameters, seed, tool version and wall time.  Artifacts are
byte-identical across runs with the same seed; manifests are not part
of the artifact.  Exit codes: 0 success, 2 parameter/validation error,
3 numerical failure.

A flat key=value config file can preset any flag (--config); explicit
flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import closed_form, entropy, multidim, pde, trinomial, wright_fisher
from .paths import NumericalError, Snapshots, StepPolicy, set_max_workers


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(out_path, command, params, seed, wall_time):
    mpath = str(out_path) + ".manifest.json"
    with open(mpath, "w") as fh:
        json.dump({"command": command,
                   "parameters": params,
                   "seed": seed,
                   "version": __version__,
                   "wall_time_s": wall_time,
                   "output": str(out_path)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _policy_from(args) -> StepPolicy:
    return StepPolicy(base_dt=args.base_dt, adaptive=not args.fixed_step,
                      shrink=args.shrink)


def _estimate_dict(est) -> dict:
    return {"value": est.value, "std_error": est.std_error,
            "n_paths": est.n_paths, "time_cutoff_eps": est.time_cutoff_eps,
            "flavor": est.flavor}


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (params_dict, rows_or_obj, kind)
# ---------------------------------------------------------------------------

def _cmd_value(args, out):
    v = closed_form.value_function(args.t, args.x)
    print(_fmt(v))
    obj = {"t": args.t, "x": args.x, "value": v}
    return obj, obj, "json"


def _cmd_sigma_star(args, out):
    v = closed_form.optimal_volatility(args.t, args.x)
    print(_fmt(v))
    obj = {"t": args.t, "x": args.x, "sigma_star": v}
    return obj, obj, "json"


def _cmd_hjb_residual(args, out):
    g = closed_form.hjb_residual(args.t0, args.eps, args.nx, args.nt)
    rows = [(t, x, g.values[i, j])
            for i, t in enumerate(g.t_grid) for j, x in enumerate(g.x_grid)]
    print(f"max |residual| = {np.abs(g.values).max():.6e}")
    params = {"t0": args.t0, "eps": args.eps, "nx": args.nx, "nt": args.nt}
    return params, (["t", "x", "residual"], rows), "csv"


def _cmd_stationary_solve(args, out):
    g = pde.solve_stationary(args.nx)
    exact = closed_form.stationary_profile(g.x_grid)
    err = np.abs(g.values - exact).max()
    print(f"value at x=0.5: {_fmt(g.values[args.nx // 2])}   "
          f"max error vs closed form: {err:.3e}")
    rows = list(zip(g.x_grid, g.values, exact))
    return {"nx": args.nx}, (["x", "value", "closed_form"], rows), "csv"


def _cmd_dp_solve(args, out):
    if args.nt is None:
        spec = pde.DpSpec.balanced(n_x=args.nx, eps=args.eps,
                                   t0=args.t0, penalty_K=args.penalty_k)
    else:
        spec = pde.DpSpec(n_x=args.nx, n_t=args.nt, eps=args.eps,
                          penalty_K=args.penalty_k, t0=args.t0)
    sol = pde.solve_dp(spec)
    pol0 = sol.policy.sigma[0]
    rows = [(args.t0, x, v, s) for x, v, s
            in zip(sol.value.x_grid, sol.value.values, pol0)]
    exact = closed_form.value_function(args.t0, sol.value.x_grid)
    print(f"n_t={spec.n_t} sigma_max={spec.sigma_max:.4g}  "
          f"max |V - closed form| = {np.abs(sol.value.values - exact).max():.4e}")
    params = {"nx": spec.n_x, "nt": spec.n_t, "eps": spec.eps,
              "penalty_K": spec.resolved_penalty, "t0": spec.t0}
    return params, (["t", "x", "value", "sigma_policy"], rows), "csv"


def _cmd_dp_refine(args, out):
    specs = pde.default_refinement_specs(args.levels, args.nx0, args.eps)
    rows_ = pde.dp_refinement_study(specs)
    rows = [(r.n_x, r.n_t, r.gap_to_previous, r.gap_to_closed_form)
            for r in rows_]
    for r in rows_:
        print(f"n_x={r.n_x:5d} n_t={r.n_t:8d} gap_prev={r.gap_to_previous:.6g} "
              f"gap_exact={r.gap_to_closed_form:.6g}")
    params = {"levels": args.levels, "nx0": args.nx0, "eps": args.eps}
    return params, (["n_x", "n_t", "gap_to_previous", "gap_to_closed_form"],
                    rows), "csv"


def _build_scaled(args):
    return wright_fisher.simulate_scaled_wf(
        args.x0, args.t0, eps=args.eps, n_paths=args.paths, seed=args.seed,
        policy=_policy_from(args))


def _cmd_simulate(args, out):
    if args.scheme == "scaled":
        ens = _build_scaled(args)
    else:
        ens = wright_fisher.simulate_standard_wf(
            args.x0, args.horizon, args.dt, n_paths=args.paths, seed=args.seed)
    params = {"scheme": args.scheme, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths, "base_dt": args.base_dt,
              "shrink": args.shrink, "horizon": args.horizon, "dt": args.dt}
    if args.format == "binary":
        ens.to_binary(out)
    else:
        ens.to_csv(out)
    print(f"wrote {ens.n_paths} paths x {ens.n_times} times to {out}")
    return params, None, "done"


def _cmd_entropy(args, out):
    ens = _build_scaled(args)
    fn = {"reciprocal": entropy.reciprocal_entropy_estimate,
          "specific": entropy.specific_entropy_estimate,
          "log-moment": entropy.entropy_log_moment_estimate}[args.flavor]
    est = fn(ens, args.eps)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    params = {"flavor": args.flavor, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths}
    return params, _estimate_dict(est), "json"


def _cmd_p_divergence(args, out):
    ens = _build_scaled(args)
    est = entropy.p_divergence_estimate(ens, args.p, args.eps)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    params = {"p": args.p, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths}
    return params, _estimate_dict(est), "json"


def _cmd_p_derivative(args, out):
    ens = _build_scaled(args)
    ps = [float(p) for p in args.ps.split(",")]
    profile, lm = entropy.p_quotient_profile(ens, ps, args.eps)
    rows = [(p, q, se) for p, q, se in profile]
    for p, q, se in profile:
        print(f"p={p}: quotient {q:.6g} +- {se:.3g}")
    print(f"entropy (p=2 limit): {lm.value:.6g} +- {lm.std_error:.3g}")
    params = {"ps": args.ps, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths,
              "entropy_value": lm.value, "entropy_std_error": lm.std_error}
    return params, (["p", "quotient", "std_error"], rows), "csv"


def _cmd_sigma_martingale(args, out):
    ens = _build_scaled(args)
    cps = [float(c) for c in args.checkpoints.split(",")]
    stats = wright_fisher.sigma_martingale_check(ens, cps)
    rows = [(s.t, s.mean_sigma, s.std_error, s.reference, s.z_score)
            for s in stats]
    for s in stats:
        print(f"t={s.t:.4g}: mean {s.mean_sigma:.5f} ref {s.reference:.5f} "
              f"z={s.z_score:+.2f}")
    params = {"checkpoints": args.checkpoints, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths}
    return params, (["t", "mean_sigma", "std_error", "reference", "z"],
                    rows), "csv"


def _cmd_moment(args, out):
    ens = _build_scaled(args)
    est = wright_fisher.p_moment_estimate(ens, args.q, args.eps)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    params = {"q": args.q, "x0": args.x0, "t0": args.t0,
              "eps": args.eps, "paths": args.paths}
    return params, _estimate_dict(est), "json"


def _cmd_density(args, out):
    ys = np.linspace(0.0, 1.0, args.points + 2)[1:-1]
    rho = wright_fisher.transition_density(args.t, args.x, ys, args.terms)
    mass = wright_fisher.transition_density_mass(args.t, args.x, args.terms)
    print(f"survival mass = {mass:.6f}")
    rows = list(zip(ys, rho))
    params = {"t": args.t, "x": args.x, "points": args.points,
              "terms": args.terms, "mass": mass}
    return params, (["y", "density"], rows), "csv"


def _cmd_density_vs_mc(args, out):
    ens = wright_fisher.simulate_standard_wf(
        args.x0, args.t, args.dt, n_paths=args.paths, seed=args.seed)
    finals = ens.observe(lambda bs: Snapshots([ens.n_steps], bs))
    surv = finals[np.isnan(finals[:, 1]), 0]
    n_surv = len(surv)
    if n_surv == 0:
        raise NumericalError(f"no path survived to t={args.t} (all {args.paths} "
                             "absorbed); use more paths or a smaller --t")
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    counts, _ = np.histogram(surv, edges)
    mass = wright_fisher.transition_density_mass(args.t, args.x0)
    gx, gw = np.polynomial.legendre.leggauss(40)
    rows = []
    max_z = 0.0
    for b in range(args.bins):
        a_, b_ = edges[b], edges[b + 1]
        ym = 0.5 * (a_ + b_) + 0.5 * (b_ - a_) * gx
        wm = 0.5 * (b_ - a_) * gw
        p = float((wright_fisher.transition_density(args.t, args.x0, ym) * wm).sum()) / mass
        obs = counts[b] / n_surv
        se = math.sqrt(p * (1.0 - p) / n_surv)
        z = (obs - p) / se if se > 0 else 0.0
        max_z = max(max_z, abs(z))
        rows.append((a_, b_, obs, p, se, z))
    print(f"survivors: {n_surv}/{args.paths}  (series mass {mass:.5f})  "
          f"max bin |z| = {max_z:.2f}")
    params = {"t": args.t, "x0": args.x0, "paths": args.paths, "dt": args.dt,
              "bins": args.bins, "survivors": n_surv, "max_abs_z": max_z}
    return params, (["bin_lo", "bin_hi", "observed", "expected", "std_error", "z"],
                    rows), "csv"


def _cmd_trinomial(args, out):
    spec = trinomial.TrinomialSpec(h=args.h, sigma_bar=args.sigma_bar,
                                   sigma=args.sigma, sigma0=args.sigma0)
    scaled = trinomial.scaled_path_entropy(spec)
    obj = {"scaled_entropy": scaled,
           "closed_form": trinomial.scaled_entropy_closed_form(
               args.sigma, args.sigma0, args.sigma_bar),
           "one_step_kl": trinomial.one_step_kl(spec)}
    if args.sigma0 == 1.0 and args.sigma_bar > max(args.sigma, 1.0):
        obj["limit"] = trinomial.brownian_reference_limit(args.sigma)
        obj["gap"] = trinomial.scaling_limit_gap(args.sigma, args.sigma_bar)
        print(f"scaled entropy {scaled:.7f}, limit {obj['limit']:.7f}, "
              f"gap {obj['gap']:.7f}")
    else:
        print(f"scaled entropy {scaled:.7f}")
    params = {"h": args.h, "sigma": args.sigma, "sigma0": args.sigma0,
              "sigma_bar": args.sigma_bar}
    return params, obj, "json"


def _cmd_counterexample(args, out):
    vol = entropy.inverse_t_log_cubed()
    flavor = {"log-moment": entropy.LOG_MOMENT,
              "reciprocal": entropy.RECIPROCAL,
              "specific": entropy.SPECIFIC,
              "p": entropy.P_WASSERSTEIN}[args.flavor]
    val = entropy.deterministic_divergence(vol, flavor, args.delta, p=args.p)
    print(_fmt(val))
    params = {"flavor": args.flavor, "delta": args.delta, "p": args.p,
              "volatility": vol.name}
    return params, {"value": val, **params}, "json"


def _sigma_from_spec(spec: str):
    if spec == "one-plus-half-sin":
        return (lambda x: 1.0 + 0.5 * np.sin(x)), 0.5, 1.5
    if spec.startswith("const:"):
        c = float(spec.split(":", 1)[1])
        if c <= 0:
            raise ValueError("constant volatility must be positive")
        return (lambda x: np.full_like(np.asarray(x, dtype=float), c)), c, c
    raise ValueError(f"unknown sigma spec {spec!r}; "
                     "use 'one-plus-half-sin' or 'const:<value>'")


def _cmd_reciprocity(args, out):
    sigma, smin, smax = _sigma_from_spec(args.sigma_spec)
    lhs, rhs = wright_fisher.reciprocity_check(
        sigma, args.x0, args.paths, args.seed,
        sigma_min=smin, sigma_max=smax, dt=args.dt)
    gap = abs(lhs.value - rhs.value)
    comb = math.hypot(lhs.std_error, rhs.std_error)
    print(f"lhs {lhs.value:.6f} +- {lhs.std_error:.2g}   "
          f"rhs {rhs.value:.6f} +- {rhs.std_error:.2g}   "
          f"|gap| = {gap:.2g} ({0 if comb == 0 else gap / comb:.2f} combined se)")
    params = {"sigma_spec": args.sigma_spec, "x0": args.x0,
              "paths": args.paths, "dt": args.dt}
    return params, {"lhs": _estimate_dict(lhs), "rhs": _estimate_dict(rhs)}, "json"


def _parse_x0_list(s, d):
    vals = [float(v) for v in s.split(",")]
    if len(vals) != d:
        raise ValueError(f"x0 needs {d} comma-separated coordinates")
    return vals


def _cmd_md_entropy(args, out):
    x0 = _parse_x0_list(args.x0, args.d)
    ens = multidim.simulate_simplex_wf(args.d, x0, eps=args.eps,
                                       n_paths=args.paths, seed=args.seed,
                                       policy=StepPolicy(base_dt=args.base_dt))
    est = multidim.md_reciprocal_entropy(ens)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    params = {"d": args.d, "x0": args.x0, "eps": args.eps,
              "paths": args.paths, "base_dt": args.base_dt}
    return params, _estimate_dict(est), "json"


def _cmd_md_search(args, out):
    x0 = _parse_x0_list(args.x0, args.d)
    report = multidim.perturbation_search(
        args.d, x0, budget=args.budget, n_paths=args.paths,
        eps=args.eps, seed=args.seed)
    best = report.best
    print(f"baseline {report.baseline_value:.5f} +- {report.baseline_std_error:.2g}; "
          + (f"best {best.value:.5f} ({best.shape}, theta={best.theta:+.3g}); "
             if best else "no feasible candidate; ")
          + f"significant improvement: {report.improves_significantly}")
    params = {"d": args.d, "x0": args.x0, "budget": args.budget,
              "paths": args.paths, "eps": args.eps}
    return params, json.loads(report.to_json()), "json"


# command -> (body, natural artifact kind)
_COMMANDS = {
    "value": (_cmd_value, "json"),
    "sigma-star": (_cmd_sigma_star, "json"),
    "hjb-residual": (_cmd_hjb_residual, "csv"),
    "stationary-solve": (_cmd_stationary_solve, "csv"),
    "dp-solve": (_cmd_dp_solve, "csv"),
    "dp-refine": (_cmd_dp_refine, "csv"),
    "simulate": (_cmd_simulate, "csv"),
    "entropy": (_cmd_entropy, "json"),
    "p-divergence": (_cmd_p_divergence, "json"),
    "p-derivative": (_cmd_p_derivative, "csv"),
    "sigma-martingale": (_cmd_sigma_martingale, "csv"),
    "moment": (_cmd_moment, "json"),
    "density": (_cmd_density, "csv"),
    "density-vs-mc": (_cmd_density_vs_mc, "csv"),
    "trinomial": (_cmd_trinomial, "json"),
    "counterexample": (_cmd_counterexample, "json"),
    "reciprocity": (_cmd_reciprocity, "json"),
    "md-entropy": (_cmd_md_entropy, "json"),
    "md-search": (_cmd_md_search, "json"),
}


def _add_mc_flags(p):
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-dt", dest="base_dt", type=float, default=1e-3)
    p.add_argument("--shrink", type=float, default=0.1)
    p.add_argument("--fixed-step", action="store_true")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    ap = argparse.ArgumentParser(
        prog="winentropy",
        description=("Entropy divergences between continuous martingales "
                     "and the Wright-Fisher win-martingale optimizer."))
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    subparsers = {}

    def new(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default=None, help="output artifact path")
        p.add_argument("--format", choices=["csv", "json", "binary"],
                       default=None, help="artifact format")
        p.add_argument("--config", default=None,
                       help="flat key=value file supplying flag defaults")
        p.add_argument("--threads", type=int, default=None,
                       help="cap reduction worker threads (never changes results)")
        subparsers[name] = p
        return p

    p = new("value", help="closed-form value function at (t, x)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = new("sigma-star", help="optimal squared volatility at (t, x)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = new("hjb-residual", help="finite-difference Bellman residual grid")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--nt", type=int, default=64)

    p = new("stationary-solve", help="tridiagonal solve of the stationary profile")
    p.add_argument("--nx", type=int, default=1000)

    p = new("dp-solve", help="backward dynamic-programming value and policy")
    p.add_argument("--nx", type=int, default=200)
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--penalty-k", dest="penalty_k", type=float, default=None)
    p.add_argument("--t0", type=float, default=0.0)

    p = new("dp-refine", help="refinement study of the DP scheme")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--nx0", type=int, default=25)
    p.add_argument("--eps", type=float, default=1e-2)

    p = new("simulate", help="simulate an ensemble and write it out")
    _add_mc_flags(p)
    p.add_argument("--scheme", choices=["scaled", "standard"], default="scaled")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)

    p = new("entropy", help="Monte Carlo divergence along scaled WF paths")
    _add_mc_flags(p)
    p.add_argument("--flavor", choices=["reciprocal", "specific", "log-moment"],
                   default="log-moment")

    p = new("p-divergence", help="Monte Carlo E[int S^{p/2} dt]")
    _add_mc_flags(p)
    p.add_argument("--p", type=float, required=True)

    p = new("p-derivative", help="difference quotients toward the p=2 entropy")
    _add_mc_flags(p)
    p.add_argument("--ps", default="2.1,2.05,2.01")

    p = new("sigma-martingale", help="mean squared volatility at checkpoints")
    _add_mc_flags(p)
    p.add_argument("--checkpoints", default="0.25,0.5,0.75,0.9")

    p = new("moment", help="Monte Carlo E[int S^q dt]")
    _add_mc_flags(p)
    p.add_argument("--q", type=float, default=1.5)

    p = new("density", help="Jacobi-series transition density profile")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--points", type=int, default=99)
    p.add_argument("--terms", type=int, default=None)

    p = new("density-vs-mc", help="binned density vs Monte Carlo survivors")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = new("trinomial", help="exact trinomial entropy and its scaling limit")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--sigma-bar", dest="sigma_bar", type=float, required=True)
    p.add_argument("--h", type=float, default=1.0)

    p = new("counterexample", help="quadrature of a deterministic volatility")
    p.add_argument("--flavor", choices=["log-moment", "reciprocal",
                                        "specific", "p"], default="log-moment")
    p.add_argument("--delta", type=float, default=1e-9)
    p.add_argument("--p", type=float, default=None)

    p = new("reciprocity", help="both sides of the entropy reciprocity identity")
    p.add_argument("--sigma-spec", dest="sigma_spec", default="one-plus-half-sin")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)

    p = new("md-entropy", help="matrix entropy rate along simplex WF paths")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--x0", default="0.3333333333333333,0.3333333333333333")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-dt", dest="base_dt", type=float, default=1e-3)

    p = new("md-search", help="perturbation search against the WF baseline")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--x0", default="0.3333333333333333,0.3333333333333333")
    p.add_argument("--budget", type=int, default=18)
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)

    return ap, subparsers


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _config_value(action: argparse.Action, raw: str):
    """raw cast as the flag would cast it; ValueError names the key."""
    key = action.dest
    if isinstance(action, argparse._StoreTrueAction):
        if raw.lower() not in _TRUE + _FALSE:
            raise ValueError(f"config key {key}: {raw!r} is not one of "
                             f"{', '.join(_TRUE + _FALSE)}")
        return raw.lower() in _TRUE
    try:
        value = action.type(raw) if action.type is not None else raw
    except (TypeError, ValueError) as exc:
        name = getattr(action.type, "__name__", "value")
        raise ValueError(f"config key {key}: {raw!r} is not a valid {name}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key}: {raw!r} is not one of "
                         f"{', '.join(map(str, action.choices))}")
    return value


def _apply_config(args: argparse.Namespace, actions: dict) -> None:
    """Fill flags still at their parser default from the key=value file.

    Every key naming a flag of the subcommand is cast and checked as the
    flag would be, even where an explicit flag then wins.
    """
    if not args.config:
        return
    values = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            action = actions.get(k.strip().replace("-", "_"))
            if action is not None:
                values[action.dest] = _config_value(action, v.strip())
    for key, value in values.items():
        if getattr(args, key) == actions[key].default:   # explicit flag wins
            setattr(args, key, value)


def main(argv=None) -> int:
    ap, subparsers = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    actions = {a.dest: a for a in subparsers[args.command]._actions
               if a.dest != "help"}
    try:
        _apply_config(args, actions)
        if args.threads is not None:
            set_max_workers(args.threads)
        t_start = time.time()
        fmt = args.format
        body, natural_kind = _COMMANDS[args.command]
        out = args.out
        if out is None:
            ext = {"binary": "bin", "json": "json", "csv": "csv"}.get(
                fmt or natural_kind, natural_kind)
            out = f"{args.command.replace('-', '_')}.{ext}"
        params, payload, kind = body(args, out)
        if kind == "csv" and fmt == "json":
            header, rows = payload
            payload = [dict(zip(header, (float(v) for v in r))) for r in rows]
            kind = "json"
        if kind == "csv":
            header, rows = payload
            _write_csv(out, header, rows)
        elif kind == "json":
            _write_json(out, payload)
        wall = time.time() - t_start
        _manifest(out, args.command, params, getattr(args, "seed", None), wall)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the refused size ("Unable to allocate 7.28 TiB ...")
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
