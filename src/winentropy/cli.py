"""Command-line front end: every verification as a seeded, reproducible run.

Each subcommand is one table row, (body, help, artifact kinds, flags),
registered by `_command`; the parser (built once per process), defaults,
config keys and casts, `--format` choices and manifest all derive from it.
A run writes one artifact (CSV or JSON at full round-trip precision, or
binary for `simulate`), byte-identical for a given seed, plus a JSON
manifest: command, every resolved flag and what the body resolved beyond
them, seed, version and wall time.  Exit codes: 0 success, 2
parameter/validation error, 3 numerical failure.

A flat key=value config file can preset any flag (--config): table
defaults, then config, then explicit flags, so an explicit flag always
wins.  `--threads` caps reduction worker processes for its own call only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import closed_form, entropy, multidim, paths, pde, trinomial, wright_fisher
from .paths import NumericalError, Snapshots, StepPolicy, set_max_workers


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _json_cell(v):
    """A value for strict JSON, at any depth: integers stay integers, NaN and inf become null."""
    if isinstance(v, dict):
        return {k: _json_cell(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_cell(x) for x in v]
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    return v if math.isfinite(v) else None


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_json_cell(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# the command table: each flag is (name, type or choices, default)
REQUIRED = object()   # a flag default: the flag must be given on the command line

# artifact kinds, the first one the default: a body returns (header, rows)
# for "csv" first, a JSON-ready object for "json" first
_ROW_KINDS, _OBJECT_KINDS = ("csv", "json"), ("json",)

_MC = (("x0", float, 0.5), ("t0", float, 0.0), ("eps", float, 1e-3),
       ("paths", int, 10000), ("seed", int, 0), ("base_dt", float, 1e-3),
       ("shrink", float, 0.1), ("fixed_step", bool, False))
_TX = (("t", float, REQUIRED), ("x", float, REQUIRED))
_SIMPLEX = (("d", int, 2), ("x0", str, "0.3333333333333333,0.3333333333333333"))

_HELP = {"out": "output artifact path", "format": "artifact format",
         "config": "flat key=value file supplying flag defaults",
         "threads": "cap reduction worker processes (never changes results)"}

_TABLE = {}


def _command(name, help, kinds, *flags):
    """Register a body args -> (payload or None if it wrote the artifact
    itself to args.out, what it resolved beyond the flags) as `name`."""
    common = (("out", str, None), ("format", kinds, None),
              ("config", str, None), ("threads", int, None))

    def register(body):
        _TABLE[name] = (body, help, kinds,
                        {dest: (kind, default) for dest, kind, default in common + flags})
        return body
    return register


@_command("value", "closed-form value function at (t, x)", _OBJECT_KINDS, *_TX)
def _cmd_value(args):
    v = closed_form.value_function(args.t, args.x)
    print(_fmt(v))
    return {"t": args.t, "x": args.x, "value": v}, {}


@_command("sigma-star", "optimal squared volatility at (t, x)", _OBJECT_KINDS, *_TX)
def _cmd_sigma_star(args):
    v = closed_form.optimal_volatility(args.t, args.x)
    print(_fmt(v))
    return {"t": args.t, "x": args.x, "sigma_star": v}, {}


@_command("hjb-residual", "finite-difference Bellman residual grid", _ROW_KINDS,
          ("t0", float, 0.0), ("eps", float, 0.1), ("nx", int, 64), ("nt", int, 64))
def _cmd_hjb_residual(args):
    g = closed_form.hjb_residual(args.t0, args.eps, args.nx, args.nt)
    rows = [(t, x, g.values[i, j])
            for i, t in enumerate(g.t_grid) for j, x in enumerate(g.x_grid)]
    print(f"max |residual| = {np.abs(g.values).max():.6e}")
    return (["t", "x", "residual"], rows), {}


@_command("stationary-solve", "tridiagonal solve of the stationary profile",
          _ROW_KINDS, ("nx", int, 1000))
def _cmd_stationary_solve(args):
    g = pde.solve_stationary(args.nx)
    exact = closed_form.stationary_profile(g.x_grid)
    err = np.abs(g.values - exact).max()
    print(f"value at x=0.5: {_fmt(g.values[args.nx // 2])}   "
          f"max error vs closed form: {err:.3e}")
    return (["x", "value", "closed_form"], list(zip(g.x_grid, g.values, exact))), {}


@_command("dp-solve", "backward dynamic-programming value and policy", _ROW_KINDS,
          ("nx", int, 200), ("nt", int, None), ("eps", float, 1e-2),
          ("penalty_k", float, None), ("t0", float, 0.0))
def _cmd_dp_solve(args):
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
    return ((["t", "x", "value", "sigma_policy"], rows),
            {"nt": spec.n_t, "penalty_K": spec.resolved_penalty})


@_command("dp-refine", "refinement study of the DP scheme", _ROW_KINDS,
          ("levels", int, 3), ("nx0", int, 25), ("eps", float, 1e-2))
def _cmd_dp_refine(args):
    specs = pde.default_refinement_specs(args.levels, args.nx0, args.eps)
    rows = pde.dp_refinement_study(specs)
    for r in rows:
        print(f"n_x={r.n_x:5d} n_t={r.n_t:8d} gap_prev={r.gap_to_previous:.6g} "
              f"gap_exact={r.gap_to_closed_form:.6g}")
    return ((["n_x", "n_t", "gap_to_previous", "gap_to_closed_form"],
             [(r.n_x, r.n_t, r.gap_to_previous, r.gap_to_closed_form) for r in rows]), {})


def _build_scaled(args):
    return wright_fisher.simulate_scaled_wf(
        args.x0, args.t0, eps=args.eps, n_paths=args.paths, seed=args.seed,
        policy=StepPolicy(base_dt=args.base_dt, adaptive=not args.fixed_step,
                          shrink=args.shrink))


@_command("simulate", "simulate an ensemble and write it out", ("csv", "binary"),
          *_MC, ("scheme", ("scaled", "standard"), "scaled"),
          ("horizon", float, 1.0), ("dt", float, 1e-3))
def _cmd_simulate(args):
    if args.scheme == "scaled":
        ens = _build_scaled(args)
    else:
        ens = wright_fisher.simulate_standard_wf(
            args.x0, args.horizon, args.dt, n_paths=args.paths, seed=args.seed)
    if args.format == "binary":
        ens.to_binary(args.out)
    else:
        ens.to_csv(args.out)
    print(f"wrote {ens.n_paths} paths x {ens.n_times} times to {args.out}")
    return None, {}


@_command("entropy", "Monte Carlo divergence along scaled WF paths", _OBJECT_KINDS,
          *_MC, ("flavor", ("reciprocal", "specific", "log-moment"), "log-moment"))
def _cmd_entropy(args):
    ens = _build_scaled(args)
    fn = {"reciprocal": entropy.reciprocal_entropy_estimate,
          "specific": entropy.specific_entropy_estimate,
          "log-moment": entropy.entropy_log_moment_estimate}[args.flavor]
    est = fn(ens, args.eps)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    return dataclasses.asdict(est), {}


@_command("p-divergence", "Monte Carlo E[int S^{p/2} dt]", _OBJECT_KINDS,
          *_MC, ("p", float, REQUIRED))
def _cmd_p_divergence(args):
    ens = _build_scaled(args)
    est = entropy.p_divergence_estimate(ens, args.p, args.eps)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    return dataclasses.asdict(est), {}


@_command("p-derivative", "difference quotients toward the p=2 entropy", _ROW_KINDS,
          *_MC, ("ps", str, "2.1,2.05,2.01"))
def _cmd_p_derivative(args):
    ens = _build_scaled(args)
    ps = [float(p) for p in args.ps.split(",")]
    profile, lm = entropy.p_quotient_profile(ens, ps, args.eps)
    for p, q, se in profile:
        print(f"p={p}: quotient {q:.6g} +- {se:.3g}")
    print(f"entropy (p=2 limit): {lm.value:.6g} +- {lm.std_error:.3g}")
    return ((["p", "quotient", "std_error"], profile),
            {"entropy_value": lm.value, "entropy_std_error": lm.std_error})


@_command("sigma-martingale", "mean squared volatility at checkpoints", _ROW_KINDS,
          *_MC, ("checkpoints", str, "0.25,0.5,0.75,0.9"))
def _cmd_sigma_martingale(args):
    ens = _build_scaled(args)
    cps = [float(c) for c in args.checkpoints.split(",")]
    stats = wright_fisher.sigma_martingale_check(ens, cps)
    rows = [(s.t, s.mean_sigma, s.std_error, s.reference, s.z_score)
            for s in stats]
    for s in stats:
        print(f"t={s.t:.4g}: mean {s.mean_sigma:.5f} ref {s.reference:.5f} "
              f"z={s.z_score:+.2f}")
    return (["t", "mean_sigma", "std_error", "reference", "z"], rows), {}


@_command("density", "Jacobi-series transition density profile", _ROW_KINDS,
          *_TX, ("points", int, 99), ("terms", int, None))
def _cmd_density(args):
    ys = np.linspace(0.0, 1.0, args.points + 2)[1:-1]
    rho = wright_fisher.transition_density(args.t, args.x, ys, args.terms)
    mass = wright_fisher.transition_density_mass(args.t, args.x, args.terms)
    print(f"survival mass = {mass:.6f}")
    return (["y", "density"], list(zip(ys, rho))), {"mass": mass}


@_command("density-vs-mc", "binned density vs Monte Carlo survivors", _ROW_KINDS,
          ("t", float, 0.5), ("x0", float, 0.5), ("paths", int, 20000),
          ("dt", float, 5e-4), ("bins", int, 20), ("seed", int, 0))
def _cmd_density_vs_mc(args):
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
    return ((["bin_lo", "bin_hi", "observed", "expected", "std_error", "z"], rows),
            {"survivors": n_surv, "max_abs_z": max_z})


@_command("trinomial", "exact trinomial entropy and its scaling limit", _OBJECT_KINDS,
          ("sigma", float, REQUIRED), ("sigma0", float, 1.0),
          ("sigma_bar", float, REQUIRED), ("h", float, 1.0))
def _cmd_trinomial(args):
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
    return obj, {}


@_command("counterexample", "quadrature of a deterministic volatility", _OBJECT_KINDS,
          ("flavor", ("log-moment", "reciprocal", "specific", "p"), "log-moment"),
          ("delta", float, 1e-9), ("p", float, None))
def _cmd_counterexample(args):
    vol = entropy.inverse_t_log_cubed()
    flavor = {"log-moment": entropy.LOG_MOMENT,
              "reciprocal": entropy.RECIPROCAL,
              "specific": entropy.SPECIFIC,
              "p": entropy.P_WASSERSTEIN}[args.flavor]
    val = entropy.deterministic_divergence(vol, flavor, args.delta, p=args.p)
    print(_fmt(val))
    extras = {"volatility": vol.name}
    return {"value": val, "flavor": args.flavor, "delta": args.delta,
            "p": args.p, **extras}, extras


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


@_command("reciprocity", "both sides of the entropy reciprocity identity", _OBJECT_KINDS,
          ("sigma_spec", str, "one-plus-half-sin"), ("x0", float, 0.0),
          ("paths", int, 20000), ("dt", float, 1e-3), ("seed", int, 0))
def _cmd_reciprocity(args):
    sigma, smin, smax = _sigma_from_spec(args.sigma_spec)
    lhs, rhs = wright_fisher.reciprocity_check(
        sigma, args.x0, args.paths, args.seed,
        sigma_min=smin, sigma_max=smax, dt=args.dt)
    gap = abs(lhs.value - rhs.value)
    comb = math.hypot(lhs.std_error, rhs.std_error)
    print(f"lhs {lhs.value:.6f} +- {lhs.std_error:.2g}   "
          f"rhs {rhs.value:.6f} +- {rhs.std_error:.2g}   "
          f"|gap| = {gap:.2g} ({0 if comb == 0 else gap / comb:.2f} combined se)")
    return {"lhs": dataclasses.asdict(lhs), "rhs": dataclasses.asdict(rhs)}, {}


def _parse_x0_list(s, d):
    vals = [float(v) for v in s.split(",")]
    if len(vals) != d:
        raise ValueError(f"x0 needs {d} comma-separated coordinates")
    return vals


@_command("md-entropy", "matrix entropy rate along simplex WF paths", _OBJECT_KINDS,
          *_SIMPLEX, ("eps", float, 1e-2), ("paths", int, 2000),
          ("seed", int, 0), ("base_dt", float, 1e-3))
def _cmd_md_entropy(args):
    x0 = _parse_x0_list(args.x0, args.d)
    ens = multidim.simulate_simplex_wf(args.d, x0, eps=args.eps,
                                       n_paths=args.paths, seed=args.seed,
                                       policy=StepPolicy(base_dt=args.base_dt))
    est = multidim.md_reciprocal_entropy(ens)
    print(f"{est.value:.6g} +- {est.std_error:.3g}")
    return dataclasses.asdict(est), {}


@_command("md-search", "perturbation search against the WF baseline", _OBJECT_KINDS,
          *_SIMPLEX, ("budget", int, 18), ("paths", int, 2000),
          ("eps", float, 1e-2), ("seed", int, 0))
def _cmd_md_search(args):
    x0 = _parse_x0_list(args.x0, args.d)
    report = multidim.perturbation_search(
        args.d, x0, budget=args.budget, n_paths=args.paths,
        eps=args.eps, seed=args.seed)
    best = report.best
    print(f"baseline {report.baseline_value:.5f} +- {report.baseline_std_error:.2g}; "
          + (f"best {best.value:.5f} ({best.shape}, theta={best.theta:+.3g}); "
             if best else "no feasible candidate; ")
          + f"significant improvement: {report.improves_significantly}")
    return dataclasses.asdict(report), {}


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree of the table; a flag left out stays out of the
    namespace (SUPPRESS), so the explicit flags are known."""
    ap = argparse.ArgumentParser(
        prog="winentropy",
        description=("Entropy divergences between continuous martingales "
                     "and the Wright-Fisher win-martingale optimizer."))
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (_, help_, _, flags) in _TABLE.items():
        p = subparsers[name] = sub.add_parser(
            name, help=help_, argument_default=argparse.SUPPRESS)
        for dest, (kind, default) in flags.items():
            opts = ({"action": "store_true"} if kind is bool
                    else {"choices": kind} if isinstance(kind, tuple)
                    else {"type": kind})
            p.add_argument("--" + dest.replace("_", "-"), required=default is REQUIRED,
                           help=_HELP.get(dest), **opts)
    return ap, subparsers


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()[0]


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _config_value(key: str, kind, raw: str):
    """raw cast as the flag would cast it; ValueError names the key."""
    if kind is bool or isinstance(kind, tuple):
        word, choices = (raw.lower(), _TRUE + _FALSE) if kind is bool else (raw, kind)
        if word not in choices:
            raise ValueError(f"config key {key}: {raw!r} is not one of "
                             f"{', '.join(choices)}")
        return word in _TRUE if kind is bool else word
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key}: {raw!r} is not a valid "
                         f"{kind.__name__}") from exc


def _read_config(path: str, flags: dict) -> dict:
    """The key=value file's values for flags of the subcommand, each cast and
    checked as its flag would be, even where an explicit flag then wins."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            key = k.strip().replace("-", "_")
            if key in flags:
                values[key] = _config_value(key, flags[key][0], v.strip())
    return values


def main(argv=None) -> int:
    try:
        explicit = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    command = explicit.pop("command")
    body, _, kinds, flags = _TABLE[command]
    previous_workers = paths._MAX_WORKERS
    try:
        # table defaults, then the config file, then the explicit flags
        values = {dest: default for dest, (_, default) in flags.items()
                  if default is not REQUIRED}
        if explicit.get("config"):
            values.update(_read_config(explicit["config"], flags))
        values.update(explicit)
        args = argparse.Namespace(**values)
        if args.threads is not None:
            set_max_workers(args.threads)
        t_start = time.time()
        fmt = args.format = args.format or kinds[0]
        out = args.out = args.out or "{}.{}".format(
            command.replace("-", "_"), "bin" if fmt == "binary" else fmt)
        payload, extras = body(args)
        if fmt == "json" and kinds[0] == "csv":
            header, rows = payload
            payload = [dict(zip(header, r)) for r in rows]
        if fmt == "csv" and payload is not None:
            _write_csv(out, *payload)
        elif fmt == "json":
            _write_json(out, payload)
        wall = time.time() - t_start
        params = {k: v for k, v in values.items()
                  if k not in ("out", "format", "config", "threads", "seed")}
        _write_json(str(out) + ".manifest.json",
                    {"command": command, "parameters": {**params, **extras},
                     "seed": values.get("seed"), "version": __version__,
                     "wall_time_s": wall, "output": str(out)})
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
    finally:
        set_max_workers(previous_workers)   # --threads holds for this call only


if __name__ == "__main__":
    sys.exit(main())
