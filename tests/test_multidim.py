import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ortho_group

import winentropy as we
from winentropy.entropy import integrand_reciprocal
from winentropy.multidim import (matrix_log, md_reciprocal_entropy,
                                 perturbation_search, perturbed_covariance,
                                 quantum_entropy_rate, scalar_view,
                                 simulate_simplex_wf, wf_covariance)
from winentropy import paths
from winentropy.paths import NumericalError, PathEnsemble, StepPolicy, panel_steps


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.1 * np.eye(d))


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------

def test_matrix_log_identity_and_diag():
    assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)
    got = matrix_log(np.diag([math.e, 1.0]))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-14)


def test_matrix_log_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = rng.integers(2, 5)
        m = random_spd(rng, d)
        assert np.abs(expm(matrix_log(m)) - m).max() <= 1e-8 * max(1, np.abs(m).max())


def test_matrix_log_rejects_singular_and_asymmetric():
    with pytest.raises(ValueError):
        matrix_log(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        matrix_log(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quantum_entropy_examples():
    assert quantum_entropy_rate(np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    got = quantum_entropy_rate(np.diag([math.e, 1.0]), np.eye(2))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_quantum_entropy_scalar_reduction():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = rng.uniform(0.0, 6.0)
        got = quantum_entropy_rate(np.array([[s]]), np.array([[1.0]]))
        assert got == pytest.approx(float(integrand_reciprocal(s)), abs=1e-12)


def test_quantum_entropy_nonnegative_and_faithful():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        m = random_spd(rng, d)
        n = random_spd(rng, d)
        v = quantum_entropy_rate(m, n)
        assert v >= -1e-10
    for _ in range(50):
        d = int(rng.integers(2, 5))
        m = random_spd(rng, d)
        assert quantum_entropy_rate(m, m) == pytest.approx(0.0, abs=1e-9)


def test_quantum_entropy_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        m = random_spd(rng, d)
        n = random_spd(rng, d)
        u = ortho_group.rvs(d, random_state=rng)
        a = quantum_entropy_rate(m, n)
        b = quantum_entropy_rate(u @ m @ u.T, u @ n @ u.T)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_quantum_entropy_psd_m_allowed():
    # zero eigenvalues of M contribute nothing to tr(M log M)
    m = np.diag([2.0, 0.0])
    got = quantum_entropy_rate(m, np.eye(2))
    assert got == pytest.approx(2 * math.log(2) + 2 - 2, abs=1e-12)
    with pytest.raises(ValueError):
        quantum_entropy_rate(np.eye(2), m)   # singular reference


def test_quantum_entropy_psd_check_is_relative_to_the_largest_eigenvalue():
    # eigenvalues 1e-11 and -5e-12: not PSD, however small
    with pytest.raises(ValueError):
        quantum_entropy_rate(1e-11 * np.diag([1.0, -0.5]), np.eye(2))
    m = random_spd(np.random.default_rng(3), 3)
    lam = np.linalg.eigvalsh(1e-11 * m)
    want = float(np.sum(lam * np.log(lam))) + 3.0 - float(lam.sum())
    assert quantum_entropy_rate(1e-11 * m, np.eye(3)) == pytest.approx(want, abs=1e-14)
    assert quantum_entropy_rate(np.zeros((2, 2)), np.eye(2)) == 2.0


# ---------------------------------------------------------------------------
# simplex simulation
# ---------------------------------------------------------------------------

POL = StepPolicy(base_dt=2e-3)


def test_simplex_constraints_and_martingale():
    ens = simulate_simplex_wf(2, [0.3, 0.4], eps=1e-2, n_paths=600, seed=3,
                              policy=POL)
    assert np.all(ens.states >= -1e-12)
    assert np.all(ens.states.sum(axis=2) <= 1.0 + 1e-9)
    term = ens.states[:, -1, :]
    for j, x0 in enumerate((0.3, 0.4)):
        se = term[:, j].std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(term[:, j].mean() - x0) <= 3.0 * se


def test_simplex_vertex_termination():
    ens = simulate_simplex_wf(2, [1 / 3, 1 / 3], eps=1e-3, n_paths=400, seed=4,
                              policy=StepPolicy(base_dt=1e-3, shrink=0.05))
    term = ens.states[:, -1, :]
    vertices = np.vstack([np.zeros(2), np.eye(2)])
    dist = np.min(np.linalg.norm(term[:, None, :] - vertices[None], axis=2), axis=1)
    assert (dist <= 1e-2).mean() >= 0.95


# sha256 of states.tobytes() + absorption_time.tobytes(), recorded when the
# simplex WF had its own stepping loop (one panel per path, blocks of 2048)
SIMPLEX_PINS = {
    2: ([0.3, 0.4], 600, 3,
        "7cb45b39ab5c83c82f2611d9eece2cc32c0ad1d5dcb95aaf1ca0ccab1c4be061"),
    3: ([0.2, 0.3, 0.25], 300, 11,
        "4ecfa35d5baf33df219ee5a634f28c846f2751c9ae5e8f71330bdfc0b1c9e62b"),
}


@pytest.mark.parametrize("cut", ["default", "panels_and_blocks_of_7"])
@pytest.mark.parametrize("d", sorted(SIMPLEX_PINS))
def test_simplex_paths_are_pinned(monkeypatch, d, cut):
    x0, n, seed, digest = SIMPLEX_PINS[d]
    if cut != "default":
        monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
        monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 7)
        assert panel_steps(7 * d, 497) < 497    # several panels per block
    ens = simulate_simplex_wf(d, x0, eps=1e-2, n_paths=n, seed=seed, policy=POL)
    assert ens.states.shape == (n, 498, d)
    got = hashlib.sha256(ens.states.tobytes() + ens.absorption_time.tobytes())
    assert got.hexdigest() == digest


def test_simplex_step_variance_is_trace_until_a_vertex():
    ens = simulate_simplex_wf(2, [0.3, 0.4], eps=1e-2, n_paths=50, seed=3, policy=POL)
    x = ens.states[:, :-1]
    trace = (x * (1.0 - x)).sum(axis=-1) / (1.0 - ens.times[:-1])
    at_vertex = ens.times[None, :-1] >= ens.absorption_time[:, None]   # False for NaN
    assert at_vertex.any() and not at_vertex.all()
    assert np.allclose(ens.step_variance, np.where(at_vertex, 0.0, trace), rtol=1e-12)


def test_exporters_refuse_simplex_ensembles_before_opening(tmp_path):
    ens = simulate_simplex_wf(2, [0.3, 0.3], eps=0.1, n_paths=3, seed=4,
                              policy=StepPolicy(base_dt=0.05))
    for write, name in ((ens.to_csv, "e.csv"), (ens.to_binary, "e.bin")):
        with pytest.raises(ValueError, match="scalar paths only"):
            write(str(tmp_path / name))
    assert list(tmp_path.iterdir()) == []


def test_simplex_d1_matches_scalar_estimator():
    ens = simulate_simplex_wf(1, [0.5], eps=1e-2, n_paths=300, seed=5, policy=POL)
    sv = scalar_view(ens)
    a = md_reciprocal_entropy(ens)
    b = we.reciprocal_entropy_estimate(sv)
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
    assert a.std_error == pytest.approx(b.std_error, rel=1e-10, abs=1e-12)


def test_simplex_validation():
    with pytest.raises(ValueError):
        simulate_simplex_wf(5, [0.2] * 5, eps=1e-2, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate_simplex_wf(2, [0.6, 0.6], eps=1e-2, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate_simplex_wf(2, [0.3], eps=1e-2, n_paths=2, seed=0)


def test_simplex_nonfinite_covariance_raises():
    # eigh returns NaN for a NaN matrix instead of raising, so without a
    # check the NaN states would come back silently
    def cov(x, t):
        c = wf_covariance(x, t)
        return c * np.nan if t >= 0.5 else c

    with pytest.raises(NumericalError, match="not finite"):
        simulate_simplex_wf(2, [0.3, 0.3], eps=0.1, n_paths=5, seed=0,
                            policy=StepPolicy(base_dt=0.05), cov_fn=cov)


def test_md_entropy_identity_covariance_is_zero():
    # unit-rate matrix volatility has zero divergence
    ens = simulate_simplex_wf(2, [1 / 3, 1 / 3], eps=1e-2, n_paths=4, seed=6,
                              policy=POL)
    est = md_reciprocal_entropy(ens, cov_fn=lambda x, t: np.broadcast_to(
        np.eye(2), x.shape[:-1] + (2, 2)).copy())
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.std_error == 0.0


def test_md_entropy_stable_across_eps():
    pol = StepPolicy(base_dt=1e-3, shrink=0.05)
    a = md_reciprocal_entropy(simulate_simplex_wf(
        2, [1 / 3, 1 / 3], eps=1e-2, n_paths=1500, seed=7, policy=pol))
    b = md_reciprocal_entropy(simulate_simplex_wf(
        2, [1 / 3, 1 / 3], eps=1e-3, n_paths=1500, seed=8, policy=pol))
    assert math.isfinite(a.value) and math.isfinite(b.value)
    assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error) + 0.05


def test_wf_covariance_shape_and_psd():
    x = np.array([[0.2, 0.3], [0.5, 0.25]])
    c = wf_covariance(x, 0.5)
    assert c.shape == (2, 2, 2)
    evals = np.linalg.eigvalsh(c)
    assert np.all(evals >= -1e-12)
    # rows sum to x_i(1 - sum x)/(1-t)
    s = x.sum(axis=1)
    expect = x * (1 - s[:, None]) / 0.5
    assert np.allclose(c.sum(axis=2), expect)


# ---------------------------------------------------------------------------
# perturbation search
# ---------------------------------------------------------------------------

def test_perturbed_covariance_zero_theta_is_baseline():
    x = np.array([[0.25, 0.3]])
    base = wf_covariance(x, 0.3)
    pert = perturbed_covariance(0.0, lambda y: np.ones(y.shape[:-1]))(x, 0.3)
    assert np.allclose(base, pert)


def test_non_psd_covariance_raises():
    # eigenvalues (1 + theta) 2/9 +- 1/9 at the centroid: -1/18 at theta = -0.75
    cov = perturbed_covariance(-0.75, lambda y: np.ones(y.shape[:-1]))
    assert np.linalg.eigvalsh(cov(np.array([1 / 3, 1 / 3]), 0.0))[0] < 0
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        simulate_simplex_wf(2, [1 / 3, 1 / 3], eps=1e-2, n_paths=4, seed=0,
                            policy=POL, cov_fn=cov)


def test_search_marks_non_psd_candidates_infeasible():
    # every tilt candidate leaves the PSD cone on some path at d = 2
    report = perturbation_search(2, [1 / 3, 1 / 3], budget=18, n_paths=300,
                                 eps=1e-2, seed=0, policy=POL)
    tilts = [c for c in report.candidates if c.shape == "tilt"]
    assert len(tilts) == 6
    for c in tilts:
        assert not c.feasible
        assert math.isnan(c.value) and math.isnan(c.std_error)
        assert math.isnan(c.vertex_fraction)
    assert report.best is None or math.isfinite(report.best.value)


def test_search_d1_baseline_not_beaten():
    report = perturbation_search(1, [0.5], budget=8, n_paths=800, eps=1e-2,
                                 seed=9, policy=POL)
    assert report.best is None or not report.improves_significantly
    assert report.baseline_value > 0.0
    assert len(report.candidates) == 8


def test_search_report_is_json():
    import dataclasses
    import json
    report = perturbation_search(2, [1 / 3, 1 / 3], budget=4, n_paths=300,
                                 eps=1e-2, seed=10, policy=POL)
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert payload["d"] == 2
    assert "baseline_value" in payload and "improves_significantly" in payload
    assert len(payload["candidates"]) == 4


# ---------------------------------------------------------------------------
# the first-order condition (ROADMAP item 9(a))
# ---------------------------------------------------------------------------

def _hessian_asymmetry(field, x, h=1e-5):
    """max |d_k F_ij - d_j F_ik| by central differences: 0 for a Hessian field."""
    x = np.asarray(x, dtype=float)
    grad = np.stack([(field(x + h * e) - field(x - h * e)) / (2.0 * h)
                     for e in np.eye(len(x))])         # grad[k, i, j] = d_k F_ij
    return float(np.abs(grad - grad.transpose(2, 1, 0)).max())


def test_log_wf_covariance_is_not_a_hessian_field_for_d2():
    # an optimal rate exp(-D^2 v) would make log C(x) a Hessian field up to c(t) I
    def log_cov(x):
        return matrix_log(wf_covariance(x, 0.0))

    for x in ([0.2], [0.5], [0.7]):
        assert _hessian_asymmetry(log_cov, x) <= 1e-6
    for x in ([0.3, 0.3], [1 / 3, 1 / 3], [0.2, 0.5]):
        assert _hessian_asymmetry(log_cov, x) > 0.5
    # negative control: a diagonal field diag(g_i(x_i)) is a Hessian field
    assert _hessian_asymmetry(lambda x: np.diag(np.log(x) + x * x), [0.2, 0.5]) == 0.0
