"""Closed-form value function of the win-martingale control problem.

The entropy-minimal win-martingale has an explicit value function
    vbar(t, x) = f(x) - (1/2) log(1-t) x(1-x),
with stationary profile
    f(x) = -( x^2 log(x^2)/4 + (1-x)^2 log((1-x)^2)/4 + x(1-x) ),
optimal squared volatility x(1-x)/(1-t), and Bellman equation
    dv/dt = (1/2) exp(-d2v/dx2 - 1).
This module evaluates these objects exactly and verifies the PDE and a
time-shift identity by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class GridFunction:
    """Values of a scalar function on a uniform spatial (and time) grid."""

    x_grid: np.ndarray
    values: np.ndarray
    t_grid: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_uniform(self.x_grid, "x_grid")
        if self.t_grid is not None:
            self.t_grid = np.asarray(self.t_grid, dtype=float)
            _check_uniform(self.t_grid, "t_grid")
            expected = (len(self.t_grid), len(self.x_grid))
        else:
            expected = (len(self.x_grid),)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match grid shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")


def _check_uniform(g, name):
    if g.ndim != 1 or len(g) < 2:
        raise ValueError(f"{name} must be 1-d with at least two nodes")
    d = np.diff(g)
    if np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if np.max(d) - np.min(d) > 1e-9 * np.max(d):
        raise ValueError(f"{name} must be uniform")


def _check_x(x):
    a = np.asarray(x, dtype=float)
    if np.any(np.isnan(a)) or np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError("x must lie in [0, 1]")
    return a


def _check_t(t):
    a = np.asarray(t, dtype=float)
    if np.any(np.isnan(a)) or np.any(a >= 1.0):
        raise ValueError("t must be < 1 (the value blows up at t=1)")
    return a


def _sq_log_sq(x):
    # x^2 * log(x^2), continuous at 0 by the 0*log(0)=0 convention
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, 2.0 * x * x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def _profile(a):
    return -(0.25 * _sq_log_sq(a) + 0.25 * _sq_log_sq(1.0 - a) + a * (1.0 - a))


def stationary_profile(x):
    """f(x); f(0)=f(1)=0 and f<0 inside the interval."""
    a = _check_x(x)
    out = _profile(a)
    if np.ndim(x) == 0:
        return float(out)
    return out


def value_function(t, x):
    """vbar(t, x) = f(x) - (1/2) log(1-t) x(1-x), exact."""
    tt = _check_t(t)
    a = _check_x(x)
    out = _profile(a) - 0.5 * np.log1p(-tt) * a * (1.0 - a)
    if np.ndim(t) == 0 and np.ndim(x) == 0:
        return float(out)
    return out


def optimal_volatility(t, x):
    """Sigma*(t, x) = x(1-x)/(1-t), zero exactly on the boundary."""
    tt = _check_t(t)
    a = _check_x(x)
    out = a * (1.0 - a) / (1.0 - tt)
    if np.ndim(t) == 0 and np.ndim(x) == 0:
        return float(out)
    return out


def hjb_residual(t0: float = 0.0, eps: float = 0.1,
                 n_x: int = 64, n_t: int = 64) -> GridFunction:
    """Finite-difference Bellman residual of the exact value function.

    R(t,x) = D_t vbar - (1/2) exp(-D_xx vbar - 1) on the interior nodes
    of [t0, 1-eps] x (0, 1), with second-order central stencils in both
    directions.  The analytic residual is identically zero, so R is the
    pure discretization error of the stencils.
    """
    if n_x < 4 or n_t < 4:
        raise ValueError("need at least 4 grid intervals in each direction")
    if not eps > 0:
        raise ValueError("eps must be positive (no evaluation at t=1)")
    if not 0.0 <= t0 < 1.0 - eps:
        raise ValueError("t0 must lie in [0, 1-eps)")
    t = np.linspace(t0, 1.0 - eps, n_t + 1)
    x = np.linspace(0.0, 1.0, n_x + 1)
    V = value_function(t[:, None], x[None, :])
    dt = t[1] - t[0]
    dx = x[1] - x[0]
    Dt = (V[2:, 1:-1] - V[:-2, 1:-1]) / (2.0 * dt)
    Dxx = (V[1:-1, 2:] - 2.0 * V[1:-1, 1:-1] + V[1:-1, :-2]) / dx**2
    R = Dt - 0.5 * np.exp(-Dxx - 1.0)
    return GridFunction(x_grid=x[1:-1], values=R, t_grid=t[1:-1])


def time_shift_check(x: float, t: float, s: float) -> float:
    """|[vbar(t,x) + L(t)x(1-x)] - [vbar(s,x) + L(s)x(1-x)]|, L=log(1-.)/2.

    Both bracketed quantities equal f(x), so the return value is zero up
    to rounding.
    """
    a = float(_check_x(x))
    tt = float(_check_t(t))
    ss = float(_check_t(s))
    lhs = value_function(tt, a) + 0.5 * np.log1p(-tt) * a * (1.0 - a)
    rhs = value_function(ss, a) + 0.5 * np.log1p(-ss) * a * (1.0 - a)
    return abs(lhs - rhs)
