"""Matrix-valued entropy rate and simplex-valued diffusions (exploratory).

The scalar reciprocal integrand S log S + 1 - S generalizes, for
positive semidefinite matrix rates, to the von Neumann form
    tr(M (log M - log N) + N - M),
which for N = I_d reads tr(S log S) + d - tr(S) = the scalar integrand
summed over eigenvalues.  A d-dimensional win-martingale lives on the
sub-probability simplex {x_i >= 0, sum x_i <= 1} and terminates at its
vertices; the candidate optimizer simulated here is the multi-allele
neutral Wright-Fisher diffusion with covariance
    (diag(x) - x x^T) / (1 - t),
and a local perturbation search probes whether nearby feasible
volatility surfaces beat it; a covariance that is not positive
semidefinite on a path is refused, not clamped.  The Euler kernel of
wright_fisher steps the paths, and the matrix entropy observes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .entropy import DivergenceEstimate, _mc_estimate, _step_weights, integrand_reciprocal, xlogx
# draw_block_normals draws nothing here; benchmarks/tracing.py wraps this name
from .paths import NumericalError, PathEnsemble, StepPolicy, draw_block_normals  # noqa: F401
from .wright_fisher import DEFAULT_ABSORB_TOL, _check_seed, _EulerRecipe

SYMMETRY_TOL = 1e-12
EIG_NEG_TOL = 1e-10


def _check_symmetric(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (a + a.T)


def _psd_eigh(m, name="matrix"):
    """The symmetrized matrix and its eigenvalues, those in [-EIG_NEG_TOL * max, 0) set to 0."""
    a = _check_symmetric(m, name)
    w = np.linalg.eigh(a)[0]     # not eigvalsh, which rounds differently
    if w.min() < -EIG_NEG_TOL * w.max():
        raise ValueError(f"{name} is not positive semidefinite "
                         f"(min eigenvalue {w.min():.3e})")
    return a, np.maximum(w, 0.0)


def matrix_log(m):
    """Logarithm of a symmetric positive definite matrix via eigh."""
    a = _check_symmetric(m)
    w, v = np.linalg.eigh(a)
    if w.min() <= 1e-12:
        raise ValueError(f"matrix_log needs eigenvalues > 1e-12; "
                         f"got min eigenvalue {w.min():.3e}")
    return (v * np.log(w)) @ v.T


def quantum_entropy_rate(m, n) -> float:
    """tr(M(log M - log N) + N - M); >= 0, zero only at M = N.

    M may be merely positive semidefinite: zero eigenvalues contribute
    nothing to tr(M log M) by the spectral 0*log(0) = 0 convention.  N
    must be strictly positive definite.
    """
    a, wm = _psd_eigh(m, "M")
    log_n = matrix_log(n)
    tr_mlogm = float(xlogx(wm).sum())
    tr_mlogn = float(np.trace(a @ log_n))
    tr_n = float(np.trace(np.asarray(n, dtype=float)))
    tr_m = float(np.trace(a))
    return tr_mlogm - tr_mlogn + tr_n - tr_m


# ---------------------------------------------------------------------------
# simplex-valued simulation
# ---------------------------------------------------------------------------

def wf_covariance(x: np.ndarray, t: float) -> np.ndarray:
    """Batched (diag(x) - x x^T)/(1-t) for states x of shape (..., d)."""
    xi = np.asarray(x, dtype=float)
    outer = xi[..., :, None] * xi[..., None, :]
    diag = np.zeros_like(outer)
    idx = np.arange(xi.shape[-1])
    diag[..., idx, idx] = xi
    return (diag - outer) / (1.0 - t)


def _is_vertex(x, tol):
    # a vertex of the sub-simplex: every coordinate 0 or a single 1
    near_int = np.all((x <= tol) | (x >= 1.0 - tol), axis=-1)
    return near_int & (x.sum(axis=-1) <= 1.0 + tol)


def _project_simplex(x):
    np.maximum(x, 0.0, out=x)
    s = x.sum(axis=-1)
    over = s > 1.0
    if np.any(over):
        x[over] /= s[over, None]
    return x


def _batched_psd_sqrt(C):
    w, v = np.linalg.eigh(C)   # eigenvalues ascending
    if w[..., 0].min() < -EIG_NEG_TOL * w[..., -1].max():
        raise NumericalError(f"covariance is not positive semidefinite "
                             f"(min eigenvalue {w[..., 0].min():.3e})")
    w = np.maximum(w, 0.0)   # rounding only
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def _simplex_step(times, cov):
    """new_step of the simplex diffusion with covariance cov(x, t); var holds tr C(x, t)."""
    dts = np.diff(times)

    def new_step(x, abst):
        alive = np.ones(len(x), dtype=bool)

        def step(k, x, xn, var, zk):
            xn[:] = x
            var.fill(0.0)   # stays 0 for a path at a vertex, which moves no more
            if alive.any():
                xa = x[alive]
                c = cov(xa, times[k])
                var[alive] = np.einsum("bii->b", c)
                root = _batched_psd_sqrt(c * dts[k])
                xa = xa + np.einsum("bij,bj->bi", root, zk[alive])
                _project_simplex(xa)
                # faces are absorbing: snap coordinates within tolerance;
                # a coordinate snapped to 1 forces its siblings to 0
                xa[xa <= DEFAULT_ABSORB_TOL] = 0.0
                big = xa >= 1.0 - DEFAULT_ABSORB_TOL
                has_big = big.any(axis=-1)
                if has_big.any():
                    xa[has_big] = np.where(big[has_big], 1.0, 0.0)
                xn[alive] = xa
                newly = alive & _is_vertex(xn, DEFAULT_ABSORB_TOL)
                abst[newly] = times[k + 1]
                alive[newly] = False

        return step

    return new_step


def simulate_simplex_wf(d: int, x0, *, eps: float = 1e-2, n_paths: int = 1000,
                        seed: int = 0, policy: Optional[StepPolicy] = None,
                        cov_fn: Optional[Callable] = None) -> PathEnsemble:
    """Euler-Maruyama on the sub-probability simplex up to 1-eps, materialized.

    Per step the covariance (cov_fn(x, t), default the Wright-Fisher
    covariance) is square-rooted by eigendecomposition; proposals are
    projected back onto the simplex, coordinates within
    DEFAULT_ABSORB_TOL of a face are snapped, and a path freezes once it
    reaches a vertex.  States have shape (n_paths, n_times, d), step
    variances tr C.  NumericalError is raised for non-finite states (a
    cov_fn giving NaN) and when a live path's covariance has an
    eigenvalue below -EIG_NEG_TOL times the step's largest.
    """
    if not 1 <= d <= 4:
        raise ValueError("d must lie in 1..4")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have {d} coordinates")
    if np.any(x0 <= 0) or x0.sum() >= 1.0:
        raise ValueError("x0 must be interior to the sub-probability simplex")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    seed = _check_seed(seed)
    policy = policy or StepPolicy()
    times = policy.time_grid(0.0, 1.0 - eps)
    scheme = (f"simplex_wf|d={d}|base_dt={policy.base_dt}"
              f"|shrink={policy.shrink}|absorb_tol={DEFAULT_ABSORB_TOL}")
    recipe = _EulerRecipe(times, x0, seed, _simplex_step(times, cov_fn or wf_covariance))
    # materialized: callers read the states after reducing them, and a
    # recipe would step the paths again for that
    ens = PathEnsemble(times, n_paths, seed, scheme, x0, 0.0, eps, recipe=recipe).materialize()
    if not np.isfinite(ens.states).all():
        raise NumericalError("simplex WF states are not finite; "
                             "the covariance function returned NaN or inf")
    return ens


def scalar_view(ens: PathEnsemble) -> PathEnsemble:
    """d=1 simplex ensemble reinterpreted as a scalar path ensemble (same paths)."""
    if np.shape(ens.x0) != (1,):
        raise ValueError("scalar_view needs d = 1")
    states = ens.states[:, :, 0]
    sv = states[:, :-1] * (1.0 - states[:, :-1]) / (1.0 - ens.times[:-1])
    return PathEnsemble.from_arrays(
        ens.times, states, sv, absorption_time=ens.absorption_time,
        master_seed=ens.master_seed, scheme=ens.scheme + "|scalar_view",
        x0=float(ens.x0[0]), t0=ens.t0, eps=ens.eps)


class _MatrixCost:
    """Observer: per-path sums of (tr(S log S) + d - tr(S)) * w, S = cov(x, t), in time order.

    One eigvalsh call per chunk, then the steps are added one at a time,
    as _StepSums adds them, so the sums do not depend on the chunk length.
    """

    def __init__(self, times, w, cov, bs):
        self.times, self.w, self.cov = times, w, cov
        self.acc = np.zeros(bs)

    def chunk(self, k0, states, step_variance):
        ks = [k for k in range(k0, k0 + len(step_variance)) if self.w[k] > 0]
        if not ks:
            return
        C = np.stack([self.cov(states[k - k0], self.times[k]) for k in ks])
        lam = np.maximum(np.linalg.eigvalsh(C), 0.0)
        for k, row in zip(ks, integrand_reciprocal(lam).sum(axis=-1)):
            self.acc += row * self.w[k]

    def result(self, absorption_time):
        return self.acc


def md_reciprocal_entropy(ens: PathEnsemble,
                          cov_fn: Optional[Callable] = None) -> DivergenceEstimate:
    """(1/2) E[int tr(S log S) + d - tr(S) dt] along simplex paths, up to 1 - ens.eps.

    The integrand equals the scalar reciprocal integrand summed over the
    eigenvalues of the step covariance rate cov_fn(x, t), from the states.
    """
    w = _step_weights(ens, ens.eps)
    vals = ens.observe(lambda bs: _MatrixCost(ens.times, w, cov_fn or wf_covariance, bs))
    return _mc_estimate(vals, 0.5, ens.eps, "md_reciprocal")


# ---------------------------------------------------------------------------
# perturbation search
# ---------------------------------------------------------------------------

def _shape_flat(x):
    return np.ones(x.shape[:-1])


def _shape_balance(x):
    # largest where the state is balanced, zero toward the faces
    return np.prod(4.0 * x * (1.0 - x), axis=-1)


def _shape_tilt(x):
    return x[..., 0] - x[..., -1] if x.shape[-1] > 1 else x[..., 0] - 0.5


SEARCH_SHAPES = (("flat", _shape_flat),
                 ("balance", _shape_balance),
                 ("tilt", _shape_tilt))


def perturbed_covariance(theta: float, g: Callable) -> Callable:
    """WF covariance plus theta * diag(x_i(1-x_i)) * g(x) / (1-t).

    The diagonal perturbation vanishes at the vertices but need not keep
    the matrix PSD (at d = 2, flat theta = -0.75 is not PSD at the
    centroid); simulating such a candidate raises NumericalError.
    """
    def cov(x, t):
        base = wf_covariance(x, t)
        xi = np.asarray(x, dtype=float)
        bump = (theta * g(xi))[..., None] * (xi * (1.0 - xi)) / (1.0 - t)
        idx = np.arange(xi.shape[-1])
        base[..., idx, idx] += bump
        return base
    return cov


@dataclass
class SearchCandidate:
    shape: str
    theta: float
    value: float
    std_error: float
    feasible: bool
    vertex_fraction: float


@dataclass
class SearchReport:
    d: int
    x0: list
    baseline_value: float
    baseline_std_error: float
    best: Optional[SearchCandidate]
    improves_significantly: bool
    candidates: list = field(default_factory=list)
    n_paths: int = 0
    seed: int = 0


def perturbation_search(d: int, x0, budget: int = 18, *, n_paths: int = 2000,
                        eps: float = 1e-2, seed: int = 0,
                        policy: Optional[StepPolicy] = None) -> SearchReport:
    """Local search over perturbed volatilities against the WF baseline.

    Candidates are SEARCH_SHAPES at six thetas in [-0.75, 0.75], in order
    until the budget is spent.  Each runs on the same seed (common random
    numbers), must end at vertices (90% of paths absorbed or within 1e-2
    of one) and stay PSD along its paths; infeasible members are
    excluded but reported, a non-PSD one with NaN value, std_error and
    vertex_fraction.  The best is compared to the baseline at 3
    combined standard errors.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    policy = policy or StepPolicy()

    def evaluate(cov_fn):
        ens = simulate_simplex_wf(d, x0, eps=eps, n_paths=n_paths, seed=seed,
                                  policy=policy, cov_fn=cov_fn)
        done = ~np.isnan(ens.absorption_time)
        near_vertex = _is_vertex(ens.states[:, -1, :], 1e-2)
        vfrac = float((done | near_vertex).mean())
        est = md_reciprocal_entropy(ens, cov_fn=cov_fn)
        return est, vfrac

    base_est, base_vfrac = evaluate(None)
    report = SearchReport(d=d, x0=list(map(float, x0)),
                          baseline_value=base_est.value,
                          baseline_std_error=base_est.std_error,
                          best=None, improves_significantly=False,
                          n_paths=n_paths, seed=int(seed))

    thetas = [th for th in np.linspace(-0.75, 0.75, 7) if th != 0.0]
    evals = 0
    for name, g in SEARCH_SHAPES:
        for theta in thetas:
            if evals >= budget:
                break
            evals += 1
            try:
                est, vfrac = evaluate(perturbed_covariance(float(theta), g))
                value, se = est.value, est.std_error
            except NumericalError:
                value = se = vfrac = math.nan
            cand = SearchCandidate(name, float(theta), value, se,
                                   feasible=vfrac >= 0.9,
                                   vertex_fraction=vfrac)
            report.candidates.append(cand)
            if not cand.feasible:
                continue
            if report.best is None or cand.value < report.best.value:
                report.best = cand
    if report.best is not None:
        margin = 3.0 * math.hypot(report.best.std_error, base_est.std_error)
        report.improves_significantly = \
            report.best.value < base_est.value - margin
    return report
