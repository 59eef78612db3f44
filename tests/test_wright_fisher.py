import math

import numpy as np
import pytest
from scipy import special

import winentropy as we
from winentropy import paths, wright_fisher
from winentropy.paths import NumericalError, StepPolicy
from winentropy.wright_fisher import (jacobi_p11, moment_series_bound,
                                      density_truncation_terms,
                                      p_moment_estimate, reciprocity_check,
                                      sigma_martingale_check,
                                      simulate_generic_sde, simulate_scaled_wf,
                                      simulate_standard_wf, time_change_map,
                                      transition_density,
                                      transition_density_mass)

FAST = StepPolicy(base_dt=2e-3)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def test_scaled_wf_from_boundary_is_frozen():
    ens = simulate_scaled_wf(0.0, eps=0.1, n_paths=8, seed=1, policy=FAST).materialize()
    assert np.all(ens._states == 0.0)
    assert np.all(ens._step_variance == 0.0)
    assert np.all(ens._absorption_time == 0.0)


def test_scaled_wf_martingale_and_bounds():
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=4000, seed=20,
                             policy=FAST).materialize()
    assert np.all(ens._states >= 0.0) and np.all(ens._states <= 1.0)
    term = ens._states[:, -1]
    se = term.std(ddof=1) / math.sqrt(ens.n_paths)
    assert abs(term.mean() - 0.5) <= 3.0 * se


def test_scaled_wf_absorption_is_permanent():
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=300, seed=3, policy=FAST).materialize()
    for i in range(ens.n_paths):
        at = ens._absorption_time[i]
        if np.isnan(at):
            continue
        k = int(np.searchsorted(ens.times, at))
        tail = ens._states[i, k:]
        assert np.all(tail == tail[0])
        assert tail[0] in (0.0, 1.0)
        assert np.all(ens._step_variance[i, k:] == 0.0)


def test_scaled_wf_absorbed_fraction_grows_as_eps_shrinks():
    fracs = []
    for eps in (1e-1, 1e-2, 1e-3):
        ens = simulate_scaled_wf(0.5, eps=eps, n_paths=2000, seed=4,
                                 policy=StepPolicy(base_dt=1e-3, shrink=0.05)).materialize()
        fracs.append(np.isfinite(ens._absorption_time).mean())
    assert fracs[0] < fracs[1] < fracs[2]
    # terminal law is two-point, so nearly everything is absorbed late
    assert fracs[2] >= 0.97


def test_standard_wf_heterozygosity_decay():
    ens = simulate_standard_wf(0.5, 1.0, 1e-3, n_paths=4000, seed=5).materialize()
    for t in (0.5, 1.0):
        k = int(np.argmin(np.abs(ens.times - t)))
        h = ens._states[:, k] * (1.0 - ens._states[:, k])
        se = h.std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(h.mean() - 0.25 * math.exp(-t)) <= 3.0 * se + 1e-3


def test_standard_wf_zero_horizon():
    ens = simulate_standard_wf(0.3, 0.0, 1e-3, n_paths=6, seed=6).materialize()
    assert np.all(ens._states == 0.3)


def test_simulator_validation():
    with pytest.raises(ValueError):
        simulate_scaled_wf(1.5, eps=0.1, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate_scaled_wf(0.5, t0=0.95, eps=0.1, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate_standard_wf(0.5, -1.0, 1e-3, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        simulate_scaled_wf(0.5, eps=0.1, n_paths=2, seed=-1)


def test_time_change_map():
    assert time_change_map(0.0) == 0.0
    assert time_change_map(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        time_change_map(-0.1)


def test_time_change_conjugation_moments():
    # scaled paths sampled at s(t) share marginal moments with standard
    # paths at t
    taus = [0.25, 0.5, 1.0]
    s_times = [time_change_map(t) for t in taus]
    scaled = simulate_scaled_wf(0.5, eps=1.0 - s_times[-1] - 1e-4,
                                n_paths=4000, seed=7,
                                policy=StepPolicy(base_dt=1e-3)).materialize()
    standard = simulate_standard_wf(0.5, taus[-1], 1e-3, n_paths=4000,
                                    seed=8).materialize()
    for tau, s in zip(taus, s_times):
        ks = int(np.argmin(np.abs(scaled.times - s)))
        kt = int(np.argmin(np.abs(standard.times - tau)))
        a = scaled._states[:, ks]
        b = standard._states[:, kt]
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(4000)
        assert abs(a.mean() - b.mean()) <= 3.0 * se + 1e-3
        va, vb = a.var(ddof=1), b.var(ddof=1)
        # variance of the variance estimate, normal-ish approximation
        se_v = math.hypot(va, vb) * math.sqrt(2.0 / 4000)
        assert abs(va - vb) <= 3.0 * se_v + 1e-3


def test_sigma_martingale_check_small():
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=5000, seed=9, policy=FAST)
    stats = sigma_martingale_check(ens, [0.25, 0.5, 0.75])
    for s in stats:
        assert s.reference == 0.25
        assert abs(s.z_score) <= 4.0
    with pytest.raises(ValueError):
        sigma_martingale_check(ens, [0.999])


def test_sigma_martingale_zero_start():
    ens = simulate_scaled_wf(0.0, eps=0.1, n_paths=16, seed=10, policy=FAST)
    stats = sigma_martingale_check(ens, [0.25, 0.5])
    assert all(s.mean_sigma == 0.0 for s in stats)


def test_p_moment_estimate_q1():
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=4000, seed=11, policy=FAST)
    est = p_moment_estimate(ens, 1.0)
    assert abs(est.value - 0.25 * (1 - 1e-2)) <= 3.0 * est.std_error + 2e-3
    zero = simulate_scaled_wf(0.0, eps=1e-2, n_paths=8, seed=12, policy=FAST)
    assert p_moment_estimate(zero, 1.5).value == 0.0


# ---------------------------------------------------------------------------
# Jacobi machinery
# ---------------------------------------------------------------------------

def test_jacobi_low_orders():
    z = np.linspace(-1.0, 1.0, 21)
    assert np.allclose(jacobi_p11(0, z), 1.0)
    assert np.allclose(jacobi_p11(1, z), z)


@pytest.mark.parametrize("n", range(0, 21))
def test_jacobi_against_scipy_and_endpoints(n):
    z = np.linspace(-1.0, 1.0, 41)
    ours = jacobi_p11(n, z)
    ref = special.eval_jacobi(n, 1.0, 1.0, z) / (n + 1.0)
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)
    assert jacobi_p11(n, 1.0) == 1.0
    assert abs(jacobi_p11(n, -1.0)) == 1.0
    assert np.all(np.abs(ours) <= 1.0 + 1e-9)


def test_jacobi_validation():
    with pytest.raises(ValueError):
        jacobi_p11(-1, 0.0)
    with pytest.raises(ValueError):
        jacobi_p11(2, 1.5)


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------

def test_density_reversibility():
    # detailed balance w.r.t. the speed measure 2/(y(1-y)):
    # rho(t,x,y) y(1-y) = rho(t,y,x) x(1-x), both equal the symmetric
    # eigenfunction kernel
    rng = np.random.default_rng(123)
    for _ in range(25):
        x, y = rng.uniform(0.05, 0.95, size=2)
        t = rng.uniform(0.2, 2.0)
        lhs = transition_density(t, x, y) * y * (1.0 - y)
        rhs = transition_density(t, y, x) * x * (1.0 - x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_density_mass_decreasing_and_below_one():
    masses = [transition_density_mass(t, 0.5) for t in (0.25, 0.5, 1.0, 2.0)]
    assert all(0.0 < m <= 1.0 for m in masses)
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_density_heterozygosity_consistency():
    # int y(1-y) rho(t,x,y) dy must reproduce x(1-x) e^{-t}
    nodes, weights = np.polynomial.legendre.leggauss(128)
    y = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for t, x in ((0.5, 0.5), (1.0, 0.3)):
        het = float(np.sum(y * (1 - y) * transition_density(t, x, y) * w))
        assert het == pytest.approx(x * (1 - x) * math.exp(-t), rel=1e-8)


def test_density_truncation_rule():
    n = density_truncation_terms(0.5, tol=1e-10)
    k = n + 1
    bound = math.exp(-k * (k + 1) * 0.5 / 2.0) * k * (k + 1) * (2 * k + 1)
    assert bound < 1e-10
    with pytest.raises(ValueError):
        transition_density(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        transition_density(0.5, 0.5, 1.0)


def test_moment_series_bound_values():
    assert moment_series_bound(1.0, 1) == pytest.approx(6.0 * math.exp(-2.0),
                                                        abs=1e-12)
    # large t: first term dominates
    assert moment_series_bound(5.0, 30) == pytest.approx(6.0 * math.exp(-10.0),
                                                         rel=1e-6)
    with pytest.raises(ValueError):
        moment_series_bound(0.0, 3)


def test_moment_series_bound_dominates_mc():
    ens = simulate_standard_wf(0.5, 2.0, 1e-3, n_paths=4000,
                               seed=13).materialize()
    for t in (0.5, 1.0, 2.0):
        k = int(np.argmin(np.abs(ens.times - t)))
        g = np.sqrt(ens._states[:, k] * (1.0 - ens._states[:, k]))
        se = g.std(ddof=1) / math.sqrt(ens.n_paths)
        assert g.mean() <= moment_series_bound(t, 30) + 3.0 * se


# ---------------------------------------------------------------------------
# generic SDE and reciprocity
# ---------------------------------------------------------------------------

def test_generic_sde_brownian_quadratic_variation():
    ens = simulate_generic_sde(lambda x: np.ones_like(x), 0.0, 1.0, 1e-2,
                               n_paths=16, seed=14, sigma_min=1.0,
                               sigma_max=1.0).materialize()
    qv = (ens._step_variance * ens.dts).sum(axis=1)
    assert np.allclose(qv, 1.0, atol=1e-12)


def test_generic_sde_records_variance_exactly():
    sig = lambda x: 1.0 + 0.5 * np.sin(x)
    ens = simulate_generic_sde(sig, 0.0, 4.0, 1e-2, n_paths=8, seed=15,
                               sigma_min=0.5, sigma_max=1.5).materialize()
    expect = sig(ens._states[:, :-1]) ** 2
    assert np.array_equal(ens._step_variance, expect)
    # quadratic variation of every path exceeds 1 by the horizon rule
    qv = (ens._step_variance * ens.dts).sum(axis=1)
    assert np.all(qv >= 1.0)


def test_generic_sde_validation():
    with pytest.raises(ValueError):
        simulate_generic_sde(lambda x: x, 0.0, 4.0, 1e-2, n_paths=2, seed=0,
                             sigma_min=0.0, sigma_max=1.0)
    with pytest.raises(ValueError):
        simulate_generic_sde(lambda x: x, 0.0, 0.5, 1e-2, n_paths=2, seed=0,
                             sigma_min=1.0, sigma_max=1.0)


def test_reciprocity_constant_volatility_exact():
    sq_e = math.sqrt(math.e)
    lhs, rhs = reciprocity_check(
        lambda x: np.full_like(x, sq_e), 0.0, 64, 16,
        sigma_min=sq_e, sigma_max=sq_e)
    target = 1.0 / (2.0 * math.e)
    assert lhs.value == pytest.approx(target, abs=1e-12)
    assert rhs.value == pytest.approx(target, abs=1e-12)
    assert lhs.std_error == 0.0 and rhs.std_error == 0.0


def test_reciprocity_unit_volatility_zero():
    lhs, rhs = reciprocity_check(lambda x: np.ones_like(x), 0.0, 32, 17,
                                 sigma_min=1.0, sigma_max=1.0)
    assert lhs.value == 0.0 and rhs.value == 0.0


def test_reciprocity_sine_volatility_moderate_n():
    lhs, rhs = reciprocity_check(lambda x: 1.0 + 0.5 * np.sin(x), 0.0,
                                 20000, 18, sigma_min=0.5, sigma_max=1.5)
    comb = math.hypot(lhs.std_error, rhs.std_error)
    assert abs(lhs.value - rhs.value) <= 3.0 * comb


def test_reciprocity_horizon_errors():
    with pytest.raises(ValueError):
        reciprocity_check(lambda x: np.ones_like(x), 0.0, 8, 0,
                          sigma_min=1.0, sigma_max=1.0, horizon=0.5)


def _sine(x):
    return 1.0 + 0.5 * np.sin(x)


# (x0, n_paths, seed, dt, block_size) -> (lhs, rhs), recorded when each
# side still drew its whole horizon of normals before stepping
RECIPROCITY_PINS = {
    (0.0, 64, 0, 1e-3, 8192): (0.1435246952411196, 0.11372858832585103),
    (0.0, 64, 1, 1e-3, 8192): (0.11404141638381367, 0.14481060412319977),
    (0.0, 64, 2, 1e-3, 8192): (0.12389266928893432, 0.12455346224930719),
    (0.25, 50, 3, 2e-3, 16): (0.06342509651856858, 0.09970398788164408),
}


def _pinned_reciprocity(key):
    x0, n, seed, dt, block = key
    lhs, rhs = reciprocity_check(_sine, x0, n, seed, sigma_min=0.5,
                                 sigma_max=1.5, dt=dt, block_size=block)
    return lhs.value, rhs.value


@pytest.mark.parametrize("key", sorted(RECIPROCITY_PINS))
def test_reciprocity_matches_pinned_values(key):
    assert _pinned_reciprocity(key) == RECIPROCITY_PINS[key]


@pytest.mark.parametrize("key", sorted(RECIPROCITY_PINS))
def test_reciprocity_in_many_panels_matches_pinned_values(monkeypatch, key):
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    assert _pinned_reciprocity(key) == RECIPROCITY_PINS[key]



def test_reciprocity_blocks_on_two_workers_match_pinned_values():
    key = (0.25, 50, 3, 2e-3, 16)       # four blocks
    paths.set_max_workers(2)
    try:
        assert _pinned_reciprocity(key) == RECIPROCITY_PINS[key]
    finally:
        paths.set_max_workers(None)

def test_reciprocity_stops_drawing_after_the_last_crossing(monkeypatch):
    # one chunk of 256 steps per panel; 4,200 SDE steps, then 1,000 Brownian
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    drawn, calls = [], [0]
    real = wright_fisher.draw_block_normals

    def counting_draw(streams, out):
        drawn.append(out.shape)
        return real(streams, out)

    def counting_sigma(x):
        calls[0] += 1
        return _sine(x)

    monkeypatch.setattr(wright_fisher, "draw_block_normals", counting_draw)
    lhs, rhs = reciprocity_check(counting_sigma, 0.0, 64, 0, sigma_min=0.5,
                                 sigma_max=1.5)
    assert (lhs.value, rhs.value) == RECIPROCITY_PINS[(0.0, 64, 0, 1e-3, 8192)]
    width = paths.panel_steps(64, 4200)
    assert width == 256
    assert drawn[-4:] == [(64, 256)] * 3 + [(64, 232)]
    sde_panels, sde_steps = drawn[:-4], calls[0] - 1000
    assert sde_steps < 4200
    assert sde_panels == [(64, 256)] * math.ceil(sde_steps / width)


@pytest.mark.parametrize("dt", [0.0, -1e-3, 5.0, 1.5, 0.3, 3e-3,
                                float("nan"), float("inf"), 1e-320])
def test_reciprocity_rejects_dt_that_does_not_divide_the_unit_interval(dt):
    with pytest.raises(ValueError, match="dt"):
        reciprocity_check(_sine, 0.0, 8, 0, sigma_min=0.5, sigma_max=1.5, dt=dt)


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1, 0.01, 1e-3])
def test_reciprocity_accepts_dt_that_divides_the_unit_interval(dt):
    sq_e = math.sqrt(math.e)
    lhs, rhs = reciprocity_check(lambda x: np.full_like(x, sq_e), 0.0, 4, 0,
                                 sigma_min=sq_e, sigma_max=sq_e, dt=dt)
    assert lhs.value == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)
    assert rhs.value == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)
