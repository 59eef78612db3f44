"""Wright-Fisher diffusions, generic scalar SDEs and the Jacobi density.

The scaled neutral Wright-Fisher diffusion
    dX = sqrt( X(1-X) / (1-t) ) dB  on [t0, 1),
is the entropy-minimal win-martingale; its squared volatility
S_t = X(1-X)/(1-t) is itself a martingale.  The standard diffusion
    dX = sqrt( X(1-X) ) dB  on [0, inf)
is its image under the clock change s(t) = 1 - exp(-t).

Scheme: Euler-Maruyama with states clamped to [0,1] after each step (so
the diffusion coefficient x(1-x) never turns negative), and states
within DEFAULT_ABSORB_TOL of a boundary snapped there and frozen.  The
clip gives a weak bias of about 4.3-4.9 x base_dt in the log-moment
estimate at x0 = 1/2, eps = 1e-4: at ACCURATE_POLICY +6.3e-4, 5.3 standard
errors over 1,048,576 paths, so not within Monte Carlo noise (ROADMAP
item 16).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .entropy import _mc_estimate, _StepSums, xlogx
from .paths import (NumericalError, PathEnsemble, Snapshots, StepPolicy,
                    _one_shot_streams, chunk_steps, draw_block_normals,
                    panel_steps, path_rng)

DEFAULT_ABSORB_TOL = 1e-6


def _check_seed(seed):
    s = int(seed)
    if not 0 <= s < (1 << 64):
        raise ValueError("seed must fit in 64 bits")
    return s


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def _normal_panels(seed, lo, hi, n_steps, abst=None, shape=()):
    """Yield (k0, z, live): normals of paths lo + live for steps k0..k0+m-1.

    Row j of z, a (len(live), m) + shape array, belongs to path lo + live[j];
    step k's d = prod(shape) normals are entries k*d..k*d+d-1 of its stream.
    Panels span panel_steps(bs*d, n_steps) steps, the last one fewer, and
    each is drawn only when the caller asks for it, into one buffer the
    caller must be done with by then.  A block that fits in one panel
    draws each path's stream once, from one re-keyed generator
    (_one_shot_streams); a longer one keeps a generator per path alive
    between panels.  Given the block's absorption times abst (NaN while
    a path is live), each panel after the first draws only for the paths
    still live at its start, into its top rows, and drops the other
    streams: an absorbed path's step variance is exactly 0, so no normal
    could move it again.  It draws through this module's
    draw_block_normals attribute, which benchmarks/tracing.py wraps to
    time the normals layer.
    """
    bs, d = hi - lo, math.prod(shape)
    width = panel_steps(bs * d, n_steps)
    streams = _one_shot_streams(seed, lo, hi) if width == n_steps else \
        [path_rng(seed, i) for i in range(lo, hi)]
    live = np.arange(bs)
    panel = np.empty((bs, width * d))
    for k0 in range(0, n_steps, width):
        if k0 and abst is not None:
            keep = np.isnan(abst[live])
            streams = [s for s, k in zip(streams, keep) if k]
            live = live[keep]
        m = min(width, n_steps - k0)
        z = draw_block_normals(streams, panel[:len(live), :m * d])
        yield k0, z.reshape((len(live), m) + shape), live


class _EulerRecipe:
    """Streaming block recipe: Euler-Maruyama stepped time-major.

    stream(lo, hi, observers) steps all of a block's paths together, one
    chunk of T = chunk_steps(bs*x0.size, n_steps) steps at a time, in
    preallocated (T+1, bs) + x0.shape state and (T, bs) variance buffers,
    and hands each chunk to the observers.  It holds one panel of the
    block's normals (_normal_panels), a whole number of chunks wide, and
    draws the next panel when the stepping reaches its end, only for the
    paths abst still marks live; absorbed paths step with normals of 0,
    which leave their states and zero variances exactly as they are.  It
    stops after a chunk for which every observer returned True.

    new_step(x, abst) sets up one block, given its first state x and its
    absorption times abst (all NaN), both of which it may edit.  It
    returns step(k, x, x_next, var, z), which writes the variance of
    step k and the state after it.
    """

    def __init__(self, times, x0, seed, new_step):
        self.times = times
        self.x0 = np.asarray(x0, dtype=float)
        self.seed = seed
        self.new_step = new_step

    def stream(self, lo, hi, observers):
        n_steps, bs, shape = len(self.times) - 1, hi - lo, self.x0.shape
        t_chunk = chunk_steps(bs * self.x0.size, n_steps)
        states = np.empty((t_chunk + 1, bs) + shape)
        stepvar = np.empty((t_chunk, bs))
        zt = np.empty((t_chunk, bs) + shape)
        states[0] = self.x0
        abst = np.full(bs, np.nan)
        step = self.new_step(states[0], abst)
        for p0, z, live in _normal_panels(self.seed, lo, hi, n_steps, abst, shape):
            zt.fill(0.0)    # the columns of absorbed paths
            for c0 in range(0, z.shape[1], t_chunk):
                k0, m = p0 + c0, min(t_chunk, z.shape[1] - c0)
                zt[:m, live] = z[:, c0:c0 + m].swapaxes(0, 1)
                for j in range(m):
                    step(k0 + j, states[j], states[j + 1], stepvar[j], zt[j])
                # a list, so that every observer sees the chunk
                if all([obs.chunk(k0, states[:m + 1], stepvar[:m]) for obs in observers]):
                    return abst
                states[0] = states[m]
        return abst


def _wf_step(times, scaled):
    """new_step of the scaled (S = X(1-X)/(1-t)) or standard (S = X(1-X)) diffusion."""
    dts = np.diff(times)
    denom = 1.0 - times[:-1] if scaled else None
    lo_edge, hi_edge = DEFAULT_ABSORB_TOL, 1.0 - DEFAULT_ABSORB_TOL

    def new_step(x, abst):
        alive = (x > lo_edge) & (x < hi_edge)
        x[~alive] = np.round(x[~alive])
        abst[~alive] = times[0]
        n_dead = np.count_nonzero(~alive)
        tmp = np.empty(len(x))
        edge = np.empty(len(x), dtype=bool)
        hit = np.empty(len(x), dtype=bool)

        def step(k, x, xn, var, zk):
            # x stays in [0, 1], so x(1-x) >= 0, and it is exactly 0 on
            # absorbed paths, which therefore never move again
            nonlocal n_dead
            np.subtract(1.0, x, out=var)
            var *= x
            if denom is not None:
                var /= denom[k]
            np.multiply(var, dts[k], out=tmp)
            np.sqrt(tmp, out=tmp)
            np.multiply(tmp, zk, out=tmp)
            np.add(x, tmp, out=xn)
            # only a path that lands on an edge can leave [0, 1], and
            # every absorbed path sits on one, so more edge entries than
            # absorbed paths means a live path hit
            np.less_equal(xn, lo_edge, out=edge)
            np.greater_equal(xn, hi_edge, out=hit)
            np.logical_or(edge, hit, out=edge)
            if np.count_nonzero(edge) > n_dead:
                np.logical_and(edge, alive, out=hit)
                xn[hit] = np.round(np.clip(xn[hit], 0.0, 1.0))
                abst[hit] = times[k + 1]
                alive[hit] = False
                n_dead += np.count_nonzero(hit)

        return step

    return new_step


def _sde_step(sigma, scale):
    """new_step of dX = sigma(X) dB, never absorbed: S = s*s, x moves by scale(k, s, S) * z."""
    def new_step(x, abst):
        def step(k, x, xn, var, zk):
            s = np.asarray(sigma(x), dtype=float)
            np.multiply(s, s, out=var)
            np.add(x, scale(k, s, var) * zk, out=xn)

        return step

    return new_step


def simulate_scaled_wf(x0: float, t0: float = 0.0, *, eps: float = 1e-3,
                       n_paths: int = 1000, seed: int = 0,
                       policy: Optional[StepPolicy] = None) -> PathEnsemble:
    """Paths of dX = sqrt(X(1-X)/(1-t)) dB from (t0, x0) up to 1-eps."""
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 must lie in [0, 1]")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if not t0 < 1.0 - eps:
        raise ValueError("t0 must be below 1 - eps")
    seed = _check_seed(seed)
    policy = policy or StepPolicy()
    times = policy.time_grid(t0, 1.0 - eps)
    scheme = (f"scaled_wf|base_dt={policy.base_dt}|adaptive={policy.adaptive}"
              f"|shrink={policy.shrink}|absorb_tol={DEFAULT_ABSORB_TOL}")
    return PathEnsemble(times, n_paths, seed, scheme, x0, t0, eps,
                        recipe=_EulerRecipe(times, x0, seed, _wf_step(times, True)))


def simulate_standard_wf(x0: float, horizon: float, dt: float, *,
                         n_paths: int = 1000, seed: int = 0) -> PathEnsemble:
    """Paths of dX = sqrt(X(1-X)) dB on [0, horizon] with a fixed step."""
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 must lie in [0, 1]")
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    seed = _check_seed(seed)
    if horizon == 0.0:
        # no time to evolve: every path is the constant x0, stepped once
        # with zero volatility
        times = np.array([0.0, 1e-12])
        step = _sde_step(np.zeros_like, lambda k, s, var: s)
        return PathEnsemble(times, n_paths, seed, "standard_wf|degenerate", float(x0), 0.0,
                            0.0, recipe=_EulerRecipe(times, x0, seed, step))
    if not (0 < dt <= horizon):
        raise ValueError("need 0 < dt <= horizon")
    n_steps = max(1, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n_steps + 1)
    scheme = f"standard_wf|dt={dt}|absorb_tol={DEFAULT_ABSORB_TOL}"
    return PathEnsemble(times, n_paths, seed, scheme, x0, 0.0, 0.0,
                        recipe=_EulerRecipe(times, x0, seed, _wf_step(times, False)))


def simulate_generic_sde(sigma: Callable[[np.ndarray], np.ndarray], x0: float,
                         horizon: float, dt: float, *, n_paths: int = 1000,
                         seed: int = 0, sigma_min: float = 1.0,
                         sigma_max: float = 1.0) -> PathEnsemble:
    """Euler-Maruyama paths of dX = sigma(X) dB on the real line.

    The caller asserts 0 < sigma_min <= sigma(x) <= sigma_max on the
    reachable range.  The horizon must satisfy horizon >= 1/sigma_min^2
    so the quadratic variation of every path exceeds 1.
    """
    if not sigma_min > 0:
        raise ValueError("sigma_min must be positive")
    if sigma_max < sigma_min:
        raise ValueError("sigma_max must be >= sigma_min")
    if horizon * sigma_min**2 < 1.0 - 1e-12:
        raise ValueError("horizon too short: need horizon >= 1/sigma_min^2")
    if not (0 < dt <= horizon < math.inf):
        raise ValueError("need 0 < dt <= horizon < inf")
    seed = _check_seed(seed)
    n_steps = max(1, int(round(horizon / dt)))
    times = np.linspace(0.0, horizon, n_steps + 1)
    sqrt_dts = np.sqrt(np.diff(times))
    return PathEnsemble(times, n_paths, seed, "generic_sde", x0, 0.0, 0.0, recipe=_EulerRecipe(
        times, x0, seed, _sde_step(sigma, lambda k, s, var: s * sqrt_dts[k])))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointStat:
    t: float
    mean_sigma: float
    std_error: float
    reference: float
    z_score: float


def sigma_martingale_check(ens: PathEnsemble,
                           checkpoints: Sequence[float]) -> list[CheckpointStat]:
    """Mean of S_t = X(1-X)/(1-t) at each checkpoint vs x0(1-x0)/(1-t0).

    The squared volatility of the scaled diffusion is a martingale, so
    its expectation is constant in t; the report carries a z-score per
    checkpoint.  A lazy ensemble is stepped only up to the last checkpoint.
    """
    cps = [float(c) for c in checkpoints]
    for c in cps:
        if c < ens.t0 - 1e-12 or c > ens.times[-1] + 1e-12:
            raise ValueError(f"checkpoint {c} outside the simulated horizon")
    idx = [int(np.argmin(np.abs(ens.times - c))) for c in cps]
    tgrid = ens.times[idx]

    xs = ens.observe(lambda bs: Snapshots(idx, bs))[:, :-1]
    vals = xs * (1.0 - xs) / (1.0 - tgrid)
    x0 = float(np.asarray(ens.x0).ravel()[0])
    ref = x0 * (1.0 - x0) / (1.0 - ens.t0)
    out = []
    for j, c in enumerate(cps):
        m = float(vals[:, j].mean())
        se = float(vals[:, j].std(ddof=1) / math.sqrt(ens.n_paths)) \
            if ens.n_paths > 1 else 0.0
        z = 0.0 if se == 0 else (m - ref) / se
        out.append(CheckpointStat(float(tgrid[j]), m, se, ref, z))
    return out


# ---------------------------------------------------------------------------
# Jacobi eigen-expansion of the standard diffusion's transition density
# ---------------------------------------------------------------------------

def jacobi_p11(n: int, z):
    """Jacobi (1,1) polynomial of degree n, normalized to 1 at z=1.

    Three-term recurrence; the unnormalized value at 1 is n+1, and the
    normalized recurrence (m+2) p_m = (2m+1) z p_{m-1} - (m-1) p_{m-2}
    yields exactly 1.0 at z=1 in floating point.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree must be a nonnegative integer")
    a = np.asarray(z, dtype=float)
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    pm2 = np.ones_like(a)
    if n == 0:
        return float(pm2) if np.ndim(z) == 0 else pm2
    pm1 = a.copy()
    for m in range(2, n + 1):
        pm1, pm2 = ((2 * m + 1) * a * pm1 - (m - 1) * pm2) / (m + 2), pm1
    return float(pm1) if np.ndim(z) == 0 else pm1


def _eigenmode(k: int, x):
    """phi_k(x) = x(1-x) * p11_{k-1}(1-2x), k >= 1."""
    xx = np.asarray(x, dtype=float)
    return xx * (1.0 - xx) * jacobi_p11(k - 1, 1.0 - 2.0 * xx)


def density_truncation_terms(t: float, tol: float = 1e-10) -> int:
    """Smallest n so the first omitted term bound drops below tol, at most 200.

    Term k of the density series is bounded in magnitude by
    exp(-k(k+1)t/2) k(k+1)(2k+1) / 4 for x, y in [0,1]; the cruder bound
    without the 1/4 is used here.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    for n in range(1, 201):
        k = n + 1
        if math.exp(-k * (k + 1) * t / 2.0) * k * (k + 1) * (2 * k + 1) < tol:
            return n
    return 200


def transition_density(t: float, x: float, y, n_terms: Optional[int] = None):
    """Sub-probability density of the standard diffusion at time t.

    rho(t, x, y) = sum_{k>=1} exp(-k(k+1)t/2) k(k+1)(2k+1)
                   phi_k(x) phi_k(y) / (y(1-y)),
    truncated at n_terms and floored at 0.  Mode k decays at rate
    k(k+1)/2, matching the heterozygosity law E[X(1-X)] = x(1-x)e^{-t}
    of dX = sqrt(X(1-X)) dB; the k=1 spatial factor is proportional to
    y(1-y).  Its integral over y is the survival probability, so it is
    at most 1 and decreasing in t.
    """
    if not t > 0:
        raise ValueError("the series only converges for t > 0")
    if not (0.0 < x < 1.0):
        raise ValueError("x must be interior")
    yy = np.asarray(y, dtype=float)
    if np.any(yy <= 0.0) or np.any(yy >= 1.0):
        raise ValueError("y must be interior")
    if n_terms is None:
        n_terms = density_truncation_terms(t)
    if n_terms < 1:
        raise ValueError("need at least one term")
    out = np.zeros_like(yy)
    for k in range(1, n_terms + 1):
        rate = 0.5 * k * (k + 1)
        coeff = math.exp(-rate * t) * k * (k + 1) * (2 * k + 1)
        out = out + coeff * float(_eigenmode(k, x)) * jacobi_p11(k - 1, 1.0 - 2.0 * yy)
    out = np.maximum(out, 0.0)
    return float(out) if np.ndim(y) == 0 else out


@functools.cache
def _unit_gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def transition_density_mass(t: float, x: float,
                            n_terms: Optional[int] = None) -> float:
    """int_0^1 rho(t, x, y) dy by Gauss-Legendre quadrature (survival mass)."""
    ynodes, w = _unit_gauss_legendre(128)
    return float(np.sum(transition_density(t, x, ynodes, n_terms) * w))


# ---------------------------------------------------------------------------
# reciprocity between the specific and reciprocal entropies
# ---------------------------------------------------------------------------

class _CostToUnitQv:
    """Observer: per-path int (1 + S log S - S) ds up to <X> = 1; done once all are."""

    def __init__(self, dt, bs):
        self.dt, self.acc = dt, np.zeros(bs)
        self.q = np.zeros(bs)           # running quadratic variation
        self.running = np.ones(bs, dtype=bool)

    def chunk(self, k0, states, step_variance):
        qv = np.vstack([self.q, step_variance])
        qv[1:] *= self.dt
        np.cumsum(qv, axis=0, out=qv)               # <X> after each step, in time order
        reached = qv[1:] >= 1.0
        cross = np.flatnonzero(self.running & reached.any(0))
        r = reached[:, cross].argmax(0)             # the step at which each one crosses
        self.q, q_cross = qv[-1].copy(), qv[r, cross]
        del qv                                      # one chunk-sized array alive at a time
        cost = xlogx(step_variance)
        cost += 1.0
        cost -= step_variance
        # partial step: only the time needed to bring <X> to 1
        part = cost[r, cross] * ((1.0 - q_cross) / step_variance[r, cross])
        cost *= self.dt
        cost[:, ~self.running] = 0.0
        cost[:, cross] = np.where(np.arange(len(cost))[:, None] < r, cost[:, cross], 0.0)
        cost[r, cross] = part
        for cost_k in cost:
            self.acc += cost_k
        self.running[cross] = False
        return not self.running.any()

    def result(self, absorption_time, times):
        if self.running.any():
            raise NumericalError("some paths never exhausted quadratic "
                                 "variation 1; enlarge the horizon")
        return self.acc


def reciprocity_check(sigma: Callable, x0: float, n_paths: int, seed: int, *,
                      sigma_min: float, sigma_max: float, dt: float = 1e-3,
                      horizon: Optional[float] = None):
    """Both sides of h(W|Q) for Q the law of dX = sigma(X) dB.

    lhs: (1/2) E over Brownian paths Y of
         int_0^1 [1/sigma(Y)^2 + log sigma(Y)^2 - 1] dt.
    rhs: (1/2) E over SDE paths X of
         int_0^tau [1 + S log S - S] ds,  S = sigma(X)^2,
    where tau is the first time the running quadratic variation hits 1.
    The time change tau = <X>^{-1}(1) makes the two expectations equal.

    Returns (lhs, rhs) as DivergenceEstimate values; they must agree
    within combined Monte Carlo error.  sigma_max, the caller's upper
    bound on sigma, is only validated; it changes no result.  dt must divide [0, 1] into a
    whole number of steps.  The SDE side stops stepping at the end of the
    chunk in which its last path exhausts quadratic variation 1, so it
    draws no normals after that chunk's panel.
    """
    if not 0 < sigma_min <= sigma_max:
        raise ValueError("need 0 < sigma_min <= sigma_max")
    if not (0.0 < dt <= 1.0 and math.isfinite(1.0 / dt)):
        raise ValueError(f"dt must satisfy 0 < dt <= 1 with 1/dt finite, got {dt!r}")
    n_steps_l = round(1.0 / dt)
    if abs(1.0 / dt - n_steps_l) > 1e-9 * n_steps_l:
        raise ValueError(f"1/dt must be a whole number of steps, got "
                         f"1/{dt!r} = {1.0 / dt!r}")
    seed = _check_seed(seed)
    if horizon is None:
        horizon = 1.05 / sigma_min**2
    if horizon * sigma_min**2 < 1.0 - 1e-12:
        raise ValueError("horizon too short to exhaust quadratic variation 1")

    def observe(n_steps, seed, scale, make_observer):
        times = dt * np.arange(n_steps + 1)
        recipe = _EulerRecipe(times, x0, seed, _sde_step(sigma, scale))
        return PathEnsemble(times, n_paths, seed, "reciprocity", x0, 0.0, 0.0,
                            recipe=recipe).observe(make_observer)

    rhs_vals = observe(math.ceil(horizon / dt), seed, lambda k, s, var: np.sqrt(var * dt),
                       lambda bs: _CostToUnitQv(dt, bs))
    # lhs: Brownian paths, under the reference measure
    w = np.full(n_steps_l, dt)
    lhs_vals = observe(n_steps_l, (seed + 1) % (1 << 64), lambda k, s, var: math.sqrt(dt),
                       lambda bs: _StepSums([lambda s2: 1.0 / s2 + np.log(s2) - 1.0], w, bs))
    return (_mc_estimate(lhs_vals[:, 0], 0.5, 0.0, "reciprocity_lhs"),
            _mc_estimate(rhs_vals, 0.5, 0.0, "reciprocity_rhs"))
