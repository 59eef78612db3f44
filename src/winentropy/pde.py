"""Grid rediscovery of the value function without using its closed form.

Two independent numerical routes:

* a second-difference solve of the stationary two-point boundary-value
  problem w''(x) = -log(x(1-x)) - 1, w(0) = w(1) = 0, whose solution is
  the stationary profile f, summed through the discrete Green's function;

* an explicit monotone dynamic-programming scheme for the full control
  problem, run backward from a penalty approximation of the infinite
  terminal condition.

One DP step at an interior node minimizes over the control S in
[0, S_max]:

    V(t,x) = min_S  dt*S*log(S)/2
             + (S dt / 2 dx^2) (V(t+dt, x+dx) + V(t+dt, x-dx))
             + (1 - S dt / dx^2) V(t+dt, x),

which equals V(t+dt,x) + dt*( S log S + S D_xx V(t+dt,x) )/2.  The
interior minimizer is S = exp(-D_xx V - 1), clamped to the CFL cap
S_max = dx^2/dt that keeps every stencil weight nonnegative (hence the
scheme monotone).  Boundary rows stay pinned at zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .closed_form import GridFunction, value_function


def solve_stationary(n: int) -> GridFunction:
    """Second-difference solve of w'' = -log(x(1-x)) - 1 with zero ends.

    The grid has n >= 8 intervals.  The right-hand side is evaluated at
    interior nodes only; the log singularity at the endpoints is
    integrable and covered by the Dirichlet data.  The [1, -2, 1] system
    with w_0 = w_n = 0 has the exact inverse -min(i,j) (n - max(i,j)) / n,
    so with g the right-hand side and f_j = h^2 g(x_j)

        w_i = -[(n-i) sum_{j<=i} j f_j + i sum_{j>i} (n-j) f_j] / n,

    two cumulative sums.  g >= log 4 - 1 > 0, so every term of a sum has
    the same sign and nothing cancels.
    """
    if n < 8:
        raise ValueError("n_x must be at least 8")
    x = np.linspace(0.0, 1.0, n + 1)
    xi = x[1:-1]
    f = (-(np.log(xi * (1.0 - xi))) - 1.0) * (x[1] - x[0]) ** 2
    j = np.arange(1, n)
    below = np.cumsum(j * f)                         # sum_{j' <= j} j' f_j'
    above = np.cumsum(((n - j) * f)[::-1])[::-1]     # sum_{j' >= j} (n - j') f_j'
    w = np.zeros(n + 1)
    w[1:-1] = (n - j) * below
    w[1:-2] += j[:-1] * above[1:]
    w[1:-1] /= -n                                    # the ends stay +0.0
    return GridFunction(x_grid=x, values=w)


@dataclass(frozen=True)
class DpSpec:
    """Grid and penalty parameters of the backward DP scheme.

    The control cap is tied to the grid by the CFL rule
    sigma_max = dx^2/dt; the terminal condition at t = 1-eps is
    penalty_K * x(1-x), and penalty_K defaults to -log(eps)/2 so the
    penalty mimics the exact value's -log(1-t)x(1-x)/2 blow-up term.
    """

    n_x: int = 200
    n_t: int = 100_000
    eps: float = 1e-2
    penalty_K: Optional[float] = None
    t0: float = 0.0

    def __post_init__(self):
        if self.n_x < 8 or self.n_t < 1:
            raise ValueError("grid too small")
        if not (0.0 < self.eps < 0.5):
            raise ValueError("eps must lie in (0, 0.5)")
        if not (0.0 <= self.t0 < 1.0 - self.eps):
            raise ValueError("t0 must lie in [0, 1-eps)")
        if self.resolved_penalty < 0:
            raise ValueError("penalty_K must be nonnegative")

    @property
    def resolved_penalty(self) -> float:
        if self.penalty_K is None:
            return -0.5 * math.log(self.eps)
        return float(self.penalty_K)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def dt(self) -> float:
        return (1.0 - self.eps - self.t0) / self.n_t

    @property
    def sigma_max(self) -> float:
        return self.dx**2 / self.dt

    @classmethod
    def balanced(cls, n_x: int = 200, eps: float = 1e-2, t0: float = 0.0,
                 penalty_K: Optional[float] = None) -> "DpSpec":
        """Pick n_t so the CFL cap covers the optimal control everywhere.

        The optimal squared volatility is at most 0.25/eps on the
        domain; the cap is 0.3/eps for headroom.
        """
        if not 0.0 < eps < 0.5:
            raise ValueError("eps must lie in (0, 0.5)")
        dx2 = (1.0 / n_x) ** 2
        n_t = int(math.ceil((1.0 - eps - t0) * (0.3 / eps) / dx2))
        return cls(n_x=n_x, n_t=n_t, eps=eps, penalty_K=penalty_K, t0=t0)


@dataclass
class ControlPolicy:
    """Optimal-control surface S(t, x) on snapshot time rows."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    sigma: np.ndarray   # (len(t_grid), len(x_grid))
    sigma_max: float

    def __post_init__(self):
        if np.any(self.sigma < 0) or np.any(self.sigma > self.sigma_max * (1 + 1e-12)):
            raise ValueError("policy values must lie in [0, sigma_max]")


@dataclass
class DpSolution:
    value: GridFunction       # V(t0, .)
    policy: ControlPolicy
    spec: DpSpec


def dp_workspace(n: int) -> tuple[np.ndarray, ...]:
    """Rows (v, sigma, D, tmp) that dp_step fills for a grid of n nodes."""
    return np.empty(n), np.empty(n - 2), np.empty(n - 2), np.empty(n - 2)


def dp_step(v_next: np.ndarray, dx: float, dt: float, sigma_max: float, *,
            work: Optional[tuple] = None) -> tuple[np.ndarray, np.ndarray]:
    """One backward step of the monotone scheme.

    Returns (v, sigma) with v the updated row (boundary entries 0) and
    sigma the minimizing control on the interior nodes.  Given a
    workspace from dp_workspace, both are written into it in place; it
    must not hold v_next.
    """
    if sigma_max * dt > dx * dx * (1.0 + 1e-9):
        raise ValueError("CFL violated: sigma_max * dt must not exceed dx^2")
    v, sig, D, tmp = dp_workspace(len(v_next)) if work is None else work
    vi = v[1:-1]
    # D = (v[x+dx] - 2 v[x] + v[x-dx]) / dx^2, one rounding per operation
    np.multiply(v_next[1:-1], 2.0, out=D)
    np.subtract(v_next[2:], D, out=D)
    D += v_next[:-2]
    D /= dx * dx
    np.subtract(-1.0, D, out=tmp)                  # arg = -D - 1
    # arg @ arg < 4.8e5 bounds |arg| by 693, so no check is due (notes/decisions.md §14)
    exact = not (tmp @ tmp < 4.8e5 and math.log(sigma_max) > -700.0)
    if exact and tmp.max() > 700.0:
        warnings.warn("exp overflow in the control formula; clamped to the cap")
    np.minimum(tmp, math.log(sigma_max), out=sig)
    np.exp(sig, out=sig)
    if exact and sig.min() == 0.0:                 # exp(arg) is 0; 0 log 0 = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(sig, out=tmp)
            tmp *= sig
        tmp[sig == 0.0] = 0.0
    else:
        np.log(sig, out=tmp)
        tmp *= sig
    np.multiply(sig, D, out=vi)
    tmp += vi
    tmp *= 0.5 * dt                                # dt (S log S + S D) / 2, exactly
    np.add(v_next[1:-1], tmp, out=vi)
    v[0] = v[-1] = 0.0
    return v, sig


def solve_dp(spec: DpSpec) -> DpSolution:
    """Backward induction from V(1-eps, x) = penalty_K * x(1-x).

    The policy surface is recorded on at most 65 evenly spaced time
    rows (the full surface would be n_t rows).
    """
    x = np.linspace(0.0, 1.0, spec.n_x + 1)
    dx, dt, sigma_max = spec.dx, spec.dt, spec.sigma_max
    V = spec.resolved_penalty * x * (1.0 - x)

    n_rows = min(65, spec.n_t)
    # time indices (in backward step count) at which to keep the policy
    snap_steps = sorted(set(np.linspace(1, spec.n_t, n_rows, dtype=int)))
    snap_at = {s: i for i, s in enumerate(snap_steps)}
    pol = np.zeros((len(snap_steps), spec.n_x + 1))
    pol_t = np.empty(len(snap_steps))

    work = (dp_workspace(spec.n_x + 1), dp_workspace(spec.n_x + 1))
    for step in range(1, spec.n_t + 1):
        V, sig = dp_step(V, dx, dt, sigma_max, work=work[step % 2])
        if step in snap_at:
            i = snap_at[step]
            pol[i, 1:-1] = sig
            pol_t[i] = 1.0 - spec.eps - step * dt

    order = np.argsort(pol_t)
    policy = ControlPolicy(t_grid=pol_t[order], x_grid=x,
                           sigma=pol[order], sigma_max=sigma_max)
    return DpSolution(value=GridFunction(x_grid=x, values=V),
                      policy=policy, spec=spec)


@dataclass(frozen=True)
class RefinementRow:
    n_x: int
    n_t: int
    gap_to_previous: float    # nan on the first row
    gap_to_closed_form: float


def dp_refinement_study(specs: Sequence[DpSpec]) -> list[RefinementRow]:
    """Max-norm gaps between successive DP solves and the exact value.

    Each spec must double n_x over its predecessor (so coarse nodes are
    shared); the gap sequences must not increase under refinement.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("need at least two refinement levels")
    for a, b in zip(specs, specs[1:]):
        if b.n_x != 2 * a.n_x:
            raise ValueError("each refinement level must double n_x")
        if (b.eps, b.t0) != (a.eps, a.t0):
            raise ValueError("refinement levels must share eps and t0")
    sols = [solve_dp(s) for s in specs]
    rows = []
    prev = None
    for s, sol in zip(specs, sols):
        exact = value_function(s.t0, sol.value.x_grid)
        gap_exact = float(np.max(np.abs(sol.value.values - exact)))
        if prev is None:
            gap_prev = math.nan
        else:
            stride = s.n_x // prev[0].n_x
            gap_prev = float(np.max(np.abs(
                sol.value.values[::stride] - prev[1].value.values)))
        rows.append(RefinementRow(s.n_x, s.n_t, gap_prev, gap_exact))
        prev = (s, sol)
    return rows


def default_refinement_specs(n_levels: int = 3, n_x0: int = 25,
                             eps: float = 1e-2) -> list[DpSpec]:
    """Doubling n_x per level; n_t scales 4x so the CFL cap stays fixed.

    Scaling n_t by 2 only would halve the control cap each level and
    change the limiting problem, defeating the refinement comparison.
    """
    out = []
    for lev in range(n_levels):
        out.append(DpSpec.balanced(n_x=n_x0 * 2**lev, eps=eps))
    return out
