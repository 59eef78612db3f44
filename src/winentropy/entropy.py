"""Divergences of a martingale's instantaneous variance from Brownian motion.

Pointwise integrands, Monte Carlo estimators over path ensembles, the
difference-quotient machinery that links the p-Wasserstein family to the
entropy at p=2, and quadrature for deterministic volatilities.

Conventions: 0*log(0) = 0, so the reciprocal integrand is 1 at zero
variance while the specific integrand is +inf there.  Infinite results
are returned as float('inf'), never as large finite sentinels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .paths import PathEnsemble

RECIPROCAL = "reciprocal"
SPECIFIC = "specific"
LOG_MOMENT = "log_moment"
P_WASSERSTEIN = "p_wasserstein"

_FLAVORS = (RECIPROCAL, SPECIFIC, LOG_MOMENT, P_WASSERSTEIN)


def _check_sigma(s):
    a = np.asarray(s, dtype=float)
    if np.any(np.isnan(a)):
        raise ValueError("sigma_sq must not be NaN")
    if np.any(a < 0):
        raise ValueError("sigma_sq must be nonnegative")
    return a


def xlogx(s):
    """s*log(s) with the 0*log(0)=0 convention, elementwise."""
    a = np.asarray(s, dtype=float)
    # log(1) * 0 = +0.0; NaN and negative inputs give NaN
    out = np.where(a == 0, 1.0, a)
    np.log(out, out=out)
    out *= a
    if np.ndim(s) == 0:
        return float(out)
    return out


def integrand_reciprocal(sigma_sq):
    """sigma^2*log(sigma^2) + 1 - sigma^2, nonnegative, zero only at 1."""
    a = _check_sigma(sigma_sq)
    out = xlogx(a) + 1.0 - a
    # the analytic integrand is >= 0; rounding can leave -1e-17 near 1
    out = np.maximum(out, 0.0)
    if np.ndim(sigma_sq) == 0:
        return float(out)
    return out


def integrand_specific(sigma_sq):
    """sigma^2 - log(sigma^2) - 1, +inf at zero variance."""
    a = _check_sigma(sigma_sq)
    with np.errstate(divide="ignore"):
        out = np.where(a > 0, a - np.log(np.where(a > 0, a, 1.0)) - 1.0, np.inf)
    out = np.where(a > 0, np.maximum(out, 0.0), np.inf)
    if np.ndim(sigma_sq) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DivergenceEstimate:
    """Monte Carlo point estimate with its sampling error."""

    value: float
    std_error: float
    n_paths: int
    time_cutoff_eps: float
    flavor: str

    def __post_init__(self):
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if not self.time_cutoff_eps < 1.0:
            raise ValueError("time cutoff eps must be < 1")
        if not (self.std_error >= 0 or math.isnan(self.std_error)):
            raise ValueError("std_error must be nonnegative")


def _resolve_eps(ens, eps):
    # eps=None inherits the ensemble's own terminal offset
    return float(ens.eps) if eps is None else float(eps)


def _step_weights(ens: PathEnsemble, eps: float) -> np.ndarray:
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must lie in [0, 1)")
    tcut = 1.0 - eps
    if ens.times[-1] < tcut - 1e-12:
        raise ValueError(
            f"ensemble grid ends at {ens.times[-1]:.6g}, before cutoff {tcut:.6g}")
    w = np.minimum(ens.times[1:], tcut) - ens.times[:-1]
    return np.maximum(w, 0.0)


class _StepSums:
    """Observer: per-path sums over steps of f(S) * w for each f, in time order.

    Steps past the cutoff (w = 0, a suffix of the grid) are skipped, so an
    infinite integrand there contributes nothing.  Each step is added on
    its own, so the sums do not depend on block size or chunk length.
    When every f is 0 at 0, a path whose variances in a chunk are all
    exactly 0 (an absorbed one) is skipped for that chunk: it would only
    add zeros.
    """

    def __init__(self, fs, w, bs):
        self.fs = fs
        self.w = w
        self.n_used = int(np.count_nonzero(w > 0))
        self.acc = np.zeros((len(fs), bs))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.skip_zeros = not any(np.any(f(np.array([0.0, -0.0]))) for f in fs)

    def chunk(self, k0, states, step_variance):
        k1 = min(k0 + len(step_variance), self.n_used)
        if k1 <= k0:
            return
        sv, acc = step_variance[:k1 - k0], self.acc
        cols = np.flatnonzero(sv.any(axis=0)) if self.skip_zeros else None
        if cols is not None and len(cols) < acc.shape[1]:
            # take, not sv[:, cols]: that gather is Fortran-ordered, and
            # every integrand and add below would then mix two layouts
            sv, acc = sv.take(cols, axis=1), acc.take(cols, axis=1)
        contrib = np.empty((k1 - k0,) + acc.shape)
        for i, f in enumerate(self.fs):
            np.multiply(f(sv), self.w[k0:k1, None], out=contrib[:, i])
        for row in contrib:
            acc += row
        if acc is not self.acc:
            self.acc[:, cols] = acc

    def result(self, absorption_time, times):
        return self.acc.T


def _step_sums(ens: PathEnsemble, fs: Sequence[Callable], eps: float) -> np.ndarray:
    """(n_paths, len(fs)) per-path integrals of each f(S) up to 1 - eps."""
    w = _step_weights(ens, eps)
    return ens.observe(lambda bs: _StepSums(fs, w, bs))


def _per_path_integrals(ens: PathEnsemble, f: Callable, eps: float) -> np.ndarray:
    return _step_sums(ens, [f], eps)[:, 0]


def _mc_estimate(vals: np.ndarray, factor: float, eps, flavor) -> DivergenceEstimate:
    n = len(vals)
    if np.any(np.isinf(vals)):
        return DivergenceEstimate(math.inf, math.inf, n, eps, flavor)
    mean = float(vals.mean()) * factor
    se = 0.0 if n < 2 else float(vals.std(ddof=1) / math.sqrt(n)) * factor
    return DivergenceEstimate(mean, se, n, eps, flavor)


def reciprocal_entropy_estimate(ens: PathEnsemble, eps: float | None = None) -> DivergenceEstimate:
    """(1/2) E[int (S log S + 1 - S) dt] over [t0, 1-eps]."""
    eps = _resolve_eps(ens, eps)
    vals = _per_path_integrals(ens, integrand_reciprocal, eps)
    return _mc_estimate(vals, 0.5, eps, RECIPROCAL)


def specific_entropy_estimate(ens: PathEnsemble, eps: float | None = None) -> DivergenceEstimate:
    """(1/2) E[int (S - log S - 1) dt]; +inf if any path sits at S=0."""
    eps = _resolve_eps(ens, eps)
    vals = _per_path_integrals(ens, integrand_specific, eps)
    return _mc_estimate(vals, 0.5, eps, SPECIFIC)


def entropy_log_moment_estimate(ens: PathEnsemble, eps: float | None = None) -> DivergenceEstimate:
    """(1/2) E[int S log S dt], the win-martingale value functional."""
    eps = _resolve_eps(ens, eps)
    vals = _per_path_integrals(ens, xlogx, eps)
    return _mc_estimate(vals, 0.5, eps, LOG_MOMENT)


def p_divergence_estimate(ens: PathEnsemble, p: float,
                          eps: float | None = None) -> DivergenceEstimate:
    """E[int S^{p/2} dt] for p > 0 (no 1/2 factor)."""
    if not p > 0:
        raise ValueError("p must be positive")
    eps = _resolve_eps(ens, eps)
    vals = _per_path_integrals(ens, lambda s: np.power(s, p / 2.0), eps)
    return _mc_estimate(vals, 1.0, eps, f"{P_WASSERSTEIN}({p})")


def p_quotient_profile(ens: PathEnsemble, ps: Sequence[float], eps: float | None = None):
    """Difference quotients for several p > 2 plus the p=2 entropy, one sweep.

    Returns ([(p, quotient_mean, quotient_std_error), ...], log_moment_estimate)
    with every statistic computed from the same paths.
    """
    ps = list(ps)
    if any(p <= 2.0 for p in ps):
        raise ValueError("difference quotients need p > 2")
    eps = _resolve_eps(ens, eps)
    # each p, then int S, then int S log S
    fs = [lambda s, q=p / 2.0: np.power(s, q) for p in ps] + [lambda s: s, xlogx]
    cols = _step_sums(ens, fs, eps)
    n = ens.n_paths
    rows = []
    for i, p in enumerate(ps):
        q = (cols[:, i] - cols[:, -2]) / (p - 2.0)
        se = 0.0 if n < 2 else float(q.std(ddof=1) / math.sqrt(n))
        rows.append((p, float(q.mean()), se))
    lm = _mc_estimate(cols[:, -1], 0.5, eps, LOG_MOMENT)
    return rows, lm


@dataclass(frozen=True)
class DeterministicVolatility:
    """A named, evaluable map t in (0,1] -> sigma^2(t) >= 0.

    integrable_hint records what is known about behavior near t=0.
    log_time_form, when present, evaluates the pair
        (t * sigma^2(t), log sigma^2(t))  at  u = ln(e/t);
    this representation stays finite long after t itself underflows, and
    is what makes the improper integral over (0, 1] computable.
    """

    name: str
    sigma_sq: Callable[[float], float]
    integrable_hint: str = ""
    log_time_form: Optional[Callable[[float], tuple]] = None


def inverse_t_log_cubed() -> DeterministicVolatility:
    """sigma^2(t) = 1/(t * ln(e/t)^3): S log S integrable, S^{1+e} not."""
    return DeterministicVolatility(
        name="inverse_t_log_cubed",
        sigma_sq=lambda t: 1.0 / (t * math.log(math.e / t) ** 3),
        integrable_hint=("int S log S converges (to -1/4) while "
                         "int S^(1+e) diverges for every e > 0"),
        # t*sigma^2 = u^-3 and log sigma^2 = (u-1) - 3 log u at u = ln(e/t)
        log_time_form=lambda u: (u ** -3.0, (u - 1.0) - 3.0 * math.log(u)),
    )


def _log_time_integrand(vol, flavor, p):
    """Integrand in u = ln(e/t) of  f(sigma^2(t)) dt  over one of the flavors.

    With A(u) = t*sigma^2 and L(u) = log sigma^2 (t = exp(1-u)):
        log_moment:   A*L        (0 when A = 0)
        reciprocal:   A*L + t - A
        specific:     A - (L+1)*t
        p_wasserstein: A^{p/2} * t^{1-p/2}
    """
    lt = vol.log_time_form

    def from_pair(u, A, L, t):
        AL = A * L if A > 0 else 0.0
        if flavor == LOG_MOMENT:
            return AL
        if flavor == RECIPROCAL:
            return AL + t - A
        if flavor == SPECIFIC:
            if A == 0.0:
                return math.inf
            return A - (L + 1.0) * t
        return A ** (p / 2.0) * math.exp((1.0 - u) * (1.0 - p / 2.0))

    if lt is not None:
        def integrand(u):
            A, L = lt(u)
            return from_pair(u, A, L, math.exp(1.0 - u) if u < 745 else 0.0)
        return integrand

    def integrand(u):
        t = math.exp(1.0 - u)
        if t == 0.0:
            raise ValueError(
                f"{vol.name} has no log-time form; cannot reach t below "
                "the floating-point range")
        s = vol.sigma_sq(t)
        if not np.isfinite(s) or s < 0:
            raise ValueError(f"volatility {vol.name} not evaluable at t={t!r}")
        ls = math.log(s) if s > 0 else -math.inf
        return from_pair(u, t * s, ls, t)

    return integrand


def deterministic_divergence(vol: DeterministicVolatility, flavor: str,
                             delta: float, p: float | None = None) -> float:
    """Quadrature of the chosen integrand of sigma^2(t) over [delta, 1].

    Integrates in the substituted variable u = ln(e/t), which removes
    the integrable singularity at t=0, to relative tolerance 1e-8.
    delta=0 evaluates the improper integral over (0, 1]; that needs the
    volatility's log_time_form, and it is the caller's business that the
    chosen flavor converges there.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
    if flavor == P_WASSERSTEIN and (p is None or not p > 0):
        raise ValueError("p_wasserstein flavor needs p > 0")
    if delta == 0.0 and vol.log_time_form is None:
        raise ValueError("delta=0 (improper integral) requires a volatility "
                         "with a log_time_form")
    integrand = _log_time_integrand(vol, flavor, p)
    upper = math.inf if delta == 0.0 else 1.0 + math.log(1.0 / delta)
    from scipy import integrate   # before errstate: an FP event on import is no divergence
    with np.errstate(over="raise"):
        try:
            val, _ = integrate.quad(integrand, 1.0, upper,
                                    epsrel=1e-8, epsabs=0.0, limit=400)
        except (FloatingPointError, OverflowError) as exc:
            raise ValueError(
                f"quadrature of {vol.name} failed (divergent flavor at delta={delta}?)"
            ) from exc
    return val
