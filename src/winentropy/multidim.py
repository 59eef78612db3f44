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
volatility surfaces beat it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .entropy import DivergenceEstimate, _mc_estimate, _step_weights, integrand_reciprocal, xlogx
from .paths import (NumericalError, PathEnsemble, StepPolicy, _one_shot_streams,
                    draw_block_normals)
from .wright_fisher import DEFAULT_ABSORB_TOL

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
    """The symmetrized matrix and its eigenvalues, small negative ones clamped to 0."""
    a = _check_symmetric(m, name)
    w = np.linalg.eigh(a)[0]     # not eigvalsh, which rounds differently
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -EIG_NEG_TOL * scale:
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


@dataclass
class MdEnsemble:
    """Simplex-valued paths on a shared grid; states shape (n, T, d)."""

    times: np.ndarray
    states: np.ndarray
    absorption_time: np.ndarray
    master_seed: int
    scheme: str
    x0: np.ndarray
    t0: float
    eps: float

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.times)


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
    w, v = np.linalg.eigh(C)
    w = np.maximum(w, 0.0)   # tolerated numerical negativity
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def simulate_simplex_wf(d: int, x0, *, eps: float = 1e-2, n_paths: int = 1000,
                        seed: int = 0, policy: Optional[StepPolicy] = None,
                        cov_fn: Optional[Callable] = None) -> MdEnsemble:
    """Euler-Maruyama on the sub-probability simplex up to 1-eps.

    Per step the covariance (cov_fn(x, t), default the Wright-Fisher
    covariance) is square-rooted by eigendecomposition; proposals are
    projected back onto the simplex, coordinates within
    DEFAULT_ABSORB_TOL of a face are snapped, and a path freezes once it
    reaches a vertex.  A block whose states are not all finite, as a
    cov_fn that returns NaN or inf leaves them, raises NumericalError.
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
    policy = policy or StepPolicy()
    cov = cov_fn or wf_covariance
    times = policy.time_grid(0.0, 1.0 - eps)
    n_steps = len(times) - 1
    dts = np.diff(times)

    states = np.empty((n_paths, n_steps + 1, d))
    abst = np.full(n_paths, np.nan)
    block = 2048
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        bs = hi - lo
        # one panel spans the horizon: every state is stored anyway
        z = draw_block_normals(_one_shot_streams(seed, lo, hi),
                               np.empty((bs, n_steps * d))).reshape(bs, n_steps, d)
        x = np.tile(x0, (bs, 1))
        states[lo:hi, 0] = x
        alive = np.ones(bs, dtype=bool)
        for k in range(n_steps):
            if alive.any():
                xa = x[alive]
                root = _batched_psd_sqrt(cov(xa, times[k]) * dts[k])
                xa = xa + np.einsum("bij,bj->bi", root, z[alive, k])
                _project_simplex(xa)
                # faces are absorbing: snap coordinates within tolerance;
                # a coordinate snapped to 1 forces its siblings to 0
                xa[xa <= DEFAULT_ABSORB_TOL] = 0.0
                big = xa >= 1.0 - DEFAULT_ABSORB_TOL
                has_big = big.any(axis=-1)
                if has_big.any():
                    xa[has_big] = np.where(big[has_big], 1.0, 0.0)
                x[alive] = xa
                newly = alive & _is_vertex(x, DEFAULT_ABSORB_TOL)
                abst[lo:hi][newly] = times[k + 1]
                alive &= ~newly
            states[lo:hi, k + 1] = x
        if not np.isfinite(states[lo:hi]).all():
            raise NumericalError("simplex WF states are not finite; "
                                 "the covariance function returned NaN or inf")
    scheme = (f"simplex_wf|d={d}|base_dt={policy.base_dt}"
              f"|shrink={policy.shrink}|absorb_tol={DEFAULT_ABSORB_TOL}")
    return MdEnsemble(times, states, abst, int(seed), scheme, x0, 0.0, eps)


def scalar_view(ens: MdEnsemble) -> PathEnsemble:
    """d=1 ensemble reinterpreted as a scalar path ensemble (same paths)."""
    if ens.d != 1:
        raise ValueError("scalar_view needs d = 1")
    states = ens.states[:, :, 0]
    sv = states[:, :-1] * (1.0 - states[:, :-1]) / (1.0 - ens.times[:-1])
    return PathEnsemble.from_arrays(
        ens.times, states, sv, absorption_time=ens.absorption_time,
        master_seed=ens.master_seed, scheme=ens.scheme + "|scalar_view",
        x0=float(ens.x0[0]), t0=ens.t0, eps=ens.eps)


def md_reciprocal_entropy(ens: MdEnsemble,
                          cov_fn: Optional[Callable] = None) -> DivergenceEstimate:
    """(1/2) E[int tr(S log S) + d - tr(S) dt] along simplex paths, up to 1 - ens.eps.

    The integrand equals the scalar reciprocal integrand summed over the
    eigenvalues of the step covariance rate, recomputed from the stored
    states, so ensembles stay light in memory.
    """
    eps = float(ens.eps)
    w = _step_weights(ens, eps)
    cov = cov_fn or wf_covariance
    n = ens.n_paths
    vals = np.zeros(n)
    chunk = max(1, 2_000_000 // (ens.states.shape[1] * ens.d * ens.d))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        xs = ens.states[lo:hi, :-1, :]
        used = w > 0
        C = np.empty((hi - lo, used.sum(), ens.d, ens.d))
        tsel = np.where(used)[0]
        for j, k in enumerate(tsel):
            C[:, j] = cov(xs[:, k, :], ens.times[k])
        lam = np.maximum(np.linalg.eigvalsh(C), 0.0)
        integrand = integrand_reciprocal(lam).sum(axis=-1)
        vals[lo:hi] = (integrand * w[used]).sum(axis=1)
    return _mc_estimate(vals, 0.5, eps, "md_reciprocal")


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

    The diagonal perturbation vanishes at the vertices and keeps the
    matrix PSD for moderate theta; residual negativity is clamped in the
    square root.
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def perturbation_search(d: int, x0, budget: int = 18, *, n_paths: int = 2000,
                        eps: float = 1e-2, seed: int = 0,
                        policy: Optional[StepPolicy] = None) -> SearchReport:
    """Local search over perturbed volatilities against the WF baseline.

    Candidates are SEARCH_SHAPES at six thetas in [-0.75, 0.75], in order
    until the budget is spent.  Each runs on the same seed (common random
    numbers), must end at vertices (90% of paths absorbed or within 1e-2
    of one; infeasible members are excluded but reported), and is
    compared to the baseline at 3 combined standard errors.
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
            est, vfrac = evaluate(perturbed_covariance(float(theta), g))
            cand = SearchCandidate(name, float(theta), est.value,
                                   est.std_error,
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
