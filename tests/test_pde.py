import hashlib
import math
import warnings

import numpy as np
import pytest

from winentropy import pde
from winentropy.closed_form import stationary_profile, value_function
from winentropy.entropy import xlogx
from winentropy.pde import (ControlPolicy, DpSpec,
                            default_refinement_specs, dp_refinement_study,
                            dp_step, dp_workspace, solve_dp, solve_stationary)


# ---------------------------------------------------------------------------
# stationary two-point boundary-value problem
# ---------------------------------------------------------------------------

def test_stationary_matches_profile():
    g = solve_stationary(500)
    exact = stationary_profile(g.x_grid)
    assert np.abs(g.values - exact).max() <= 5e-3
    assert g.values[0] == 0.0 and g.values[-1] == 0.0


def test_stationary_fine_grid_accuracy():
    g = solve_stationary(1000)
    exact = stationary_profile(g.x_grid)
    assert np.abs(g.values - exact).max() <= 1e-3
    assert abs(g.values[500] - stationary_profile(0.5)) <= 1e-4


def _stationary_by_lapack(n):
    # the banded LAPACK solve the Green's-function sum replaced, kept as the reference
    from scipy.linalg import solve_banded
    x = np.linspace(0.0, 1.0, n + 1)
    xi = x[1:-1]
    rhs = (-(np.log(xi * (1.0 - xi))) - 1.0) * (x[1] - x[0]) ** 2
    ab = np.repeat([[1.0], [-2.0], [1.0]], n - 1, axis=1)   # upper, diagonal, lower
    return np.concatenate(([0.0], solve_banded((1, 1), ab, rhs), [0.0]))


@pytest.mark.parametrize("n, tol", [(8, 1e-13), (64, 1e-13), (1000, 1e-13), (100_000, 1e-10)])
def test_stationary_matches_the_banded_solve(n, tol):
    g = solve_stationary(n)
    ref = _stationary_by_lapack(n)
    assert np.abs(g.values - ref).max() <= tol
    assert g.values[0] == g.values[-1] == 0.0
    assert not np.signbit(g.values[[0, -1]]).any()
    if n == 100_000:   # no less accurate than the banded solve
        exact = stationary_profile(g.x_grid)
        assert np.abs(g.values - exact).max() <= np.abs(ref - exact).max()


def test_stationary_symmetry_exact():
    g = solve_stationary(256)
    assert np.allclose(g.values, g.values[::-1], atol=1e-13)


def test_stationary_spec_validation():
    with pytest.raises(ValueError):
        solve_stationary(4)


# ---------------------------------------------------------------------------
# one backward DP step
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:exp overflow in the control formula")
def test_dp_step_monotone_in_continuation():
    # raising any continuation value never lowers the updated row;
    # random continuation rows legitimately hit the control cap
    rng = np.random.default_rng(7)
    n = 41
    dx = 1.0 / (n - 1)
    dt = dx * dx / 10.0
    smax = dx * dx / dt
    for _ in range(200):
        v = rng.normal(size=n)
        v[0] = v[-1] = 0.0
        base, _ = dp_step(v, dx, dt, smax)
        bump = np.zeros(n)
        j = rng.integers(0, n)
        bump[j] = rng.uniform(0.0, 0.5)
        pert, _ = dp_step(v + bump, dx, dt, smax)
        assert np.all(pert >= base - 1e-12)


def test_dp_step_rejects_cfl_violation():
    v = np.zeros(9)
    with pytest.raises(ValueError):
        dp_step(v, 0.1, 1.0, sigma_max=1.0)   # sigma_max*dt > dx^2


def test_dp_step_policy_formula():
    # wherever the cap is inactive the control is exp(-D_xx V - 1) exactly
    rng = np.random.default_rng(11)
    n = 33
    dx = 1.0 / (n - 1)
    dt = dx * dx / 50.0
    smax = dx * dx / dt
    v = rng.uniform(-0.05, 0.05, size=n)
    v[0] = v[-1] = 0.0
    _, sig = dp_step(v, dx, dt, smax)
    D = (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
    free = np.exp(-D - 1.0) < smax
    assert np.any(free)
    assert np.allclose(sig[free], np.exp(-D - 1.0)[free], rtol=1e-14)
    assert np.all(sig <= smax * (1 + 1e-12))


def test_dp_step_exp_underflow_costs_zero():
    # a convex kink with D_xx V > 745 underflows exp(-D_xx V - 1) to exactly
    # 0; the running cost 0 log 0 is 0, so the node keeps its continuation
    n = 21
    x = np.linspace(0.0, 1.0, n)
    dx = 1.0 / (n - 1)
    dt = dx * dx / 10.0
    v_next = -100.0 * np.minimum(x, 1.0 - x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, sig = dp_step(v_next, dx, dt, dx * dx / dt)
    assert np.flatnonzero(sig == 0.0).tolist() == [9]     # node x = 0.5
    assert np.all(np.isfinite(v))
    assert v[10] == v_next[10]
    assert np.allclose(sig[np.arange(n - 2) != 9], np.exp(-1.0), rtol=1e-9)


def _dp_step_formula(v_next, dx, dt, sigma_max):
    # the step written out as expressions, without workspaces; the running
    # cost S log S + S D is S (log S + D), with log S the clamped argument
    D = (v_next[2:] - 2.0 * v_next[1:-1] + v_next[:-2]) / (dx * dx)
    log_sig = np.minimum(-D - 1.0, math.log(sigma_max))
    sig = np.exp(log_sig)
    v = np.zeros_like(v_next)
    v[1:-1] = v_next[1:-1] + (log_sig + D) * sig * (0.5 * dt)
    return v, sig


@pytest.mark.filterwarnings("ignore:exp overflow in the control formula")
def test_dp_step_workspace_gives_same_bits():
    # chained steps from rows with capped and underflowing nodes; the two
    # workspaces are reused alternately, as solve_dp reuses them
    rng = np.random.default_rng(5)
    n = 41
    dx = 1.0 / (n - 1)
    dt = dx * dx / 10.0
    smax = dx * dx / dt
    work = (dp_workspace(n), dp_workspace(n))
    for trial in range(5):
        v0 = rng.normal(size=n) - 100.0 * np.minimum(
            np.abs(np.linspace(0.0, 1.0, n) - rng.uniform(0.2, 0.8)), 0.1)
        v0[0] = v0[-1] = 0.0
        ref = plain = ws = v0
        for step in range(30):
            ref, ref_sig = _dp_step_formula(ref, dx, dt, smax)
            plain, plain_sig = dp_step(plain, dx, dt, smax)
            ws, ws_sig = dp_step(ws, dx, dt, smax, work=work[step % 2])
            assert ws is work[step % 2][0] and ws_sig is work[step % 2][1]
            for got, got_sig in ((plain, plain_sig), (ws, ws_sig)):
                assert got.tobytes() == ref.tobytes()
                assert got_sig.tobytes() == ref_sig.tobytes()


def _kink_row(n, dx, j, arg):
    # zero row but for node j, whose control argument -D - 1 is about arg
    v = np.zeros(n)
    v[j + 1] = 0.5 * (arg + 1.0) * dx * dx
    return v


def _range_rows(n, dx):
    zigzag = 27.8 * dx * dx * (-1.0) ** np.arange(n)    # args 110.2 and -112.2
    nan_row = np.linspace(0.0, 0.3, n)
    nan_row[7] = np.nan
    return {"699.9": _kink_row(n, dx, 12, 699.9), "700.1": _kink_row(n, dx, 12, 700.1),
            "sum": zigzag, "underflow": _kink_row(n, dx, 20, -745.5), "nan": nan_row,
            "plain": 0.1 * np.sin(np.pi * np.linspace(0.0, 1.0, n))}


def test_dp_step_range_check_branches():
    # rows on both sides of the overflow warning (arg > 700), a row whose
    # sum of squared arguments passes 4.8e5 with every |arg| < 700, an
    # underflowing node and a NaN; each step gives the formula's bytes,
    # and only the 700.1 row warns
    n = 41
    dx = 1.0 / (n - 1)
    dt = dx * dx / 10.0
    smax = dx * dx / dt
    rows = _range_rows(n, dx)
    arg = {k: -(v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx) - 1.0 for k, v in rows.items()}
    assert 699.8 < arg["699.9"].max() < 700.0 < arg["700.1"].max() < 700.2
    assert 4.8e5 < arg["sum"] @ arg["sum"] < 4.9e5 and np.abs(arg["sum"]).max() < 700.0
    assert np.exp(arg["underflow"].min()) == 0.0
    work = dp_workspace(n)
    for name, v_next in rows.items():
        ref, ref_sig = _dp_step_formula(v_next, dx, dt, smax)
        for kw in ({}, {"work": work}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                v, sig = dp_step(v_next, dx, dt, smax, **kw)
            assert [str(w.message) for w in caught] == (
                ["exp overflow in the control formula; clamped to the cap"]
                if name == "700.1" else []), name
            for got, want in ((v, ref), (sig, ref_sig)):
                # NaN in the same places (its sign bit is not meaningful), else the same bytes
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), name
                assert got[~nan].tobytes() == want[~nan].tobytes(), name
            # NaN out only where the NaN node enters the stencil
            assert np.flatnonzero(np.isnan(v)).tolist() == ([6, 7, 8] if name == "nan" else [])


@pytest.mark.filterwarnings("ignore:exp overflow in the control formula")
def test_dp_step_matches_the_xlogx_form():
    # the step before notes/decisions.md §18 took log S back from S:
    # v_next + dt (xlogx(S) + S D) / 2.  From the same row S keeps its bits,
    # and v stays within 8u (dt/2 S (|log S| + |D| + 1) + |v|) of it, u = 2^-53
    n = 41
    dx = 1.0 / (n - 1)
    dt = dx * dx / 10.0
    smax = dx * dx / dt
    rng = np.random.default_rng(23)
    rows = list(_range_rows(n, dx).values())
    for scale in (1e-4, 1e-3, 1e-2, 1.0):     # from all free to mostly capped
        for _ in range(50):
            v0 = scale * rng.normal(size=n)
            v0[0] = v0[-1] = 0.0
            rows.append(v0)
    moved = 0
    for v_next in rows:
        D = (v_next[2:] - 2.0 * v_next[1:-1] + v_next[:-2]) / (dx * dx)
        log_sig = np.minimum(-D - 1.0, math.log(smax))
        old_sig = np.exp(log_sig)
        old = v_next[1:-1] + dt * (0.5 * xlogx(old_sig) + 0.5 * old_sig * D)
        v, sig = dp_step(v_next, dx, dt, smax)
        nan = np.isnan(old)     # a NaN's sign bit is not meaningful
        assert np.array_equal(np.isnan(sig), np.isnan(old_sig))
        assert sig[~nan].tobytes() == old_sig[~nan].tobytes()
        assert np.array_equal(np.isnan(v[1:-1]), nan)
        bound = 2.0**-50 * (0.5 * dt * sig * (np.abs(log_sig) + np.abs(D) + 1.0) + np.abs(old))
        assert np.all(np.abs(v[1:-1] - old)[~nan] <= bound[~nan])
        moved += int(np.count_nonzero(v[1:-1][~nan] != old[~nan]))
    assert moved > 0     # the bound is exercised, not met by equal bits


# ---------------------------------------------------------------------------
# full backward solves
# ---------------------------------------------------------------------------

def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("spec, digests", [
    (DpSpec.balanced(16, 5e-2),
     ("4354007a567bfaf744ce214ccb791cd0b31b7979995451482deb00ad5a63c47c",
      "bf498fa9d2fb37d63657fd37e1c314400769ca63063b13cba42da49571eb69e8",
      "29d58c8ad6001e94ffc871e0498e9f9ee9d7f3a0a97a0cc1d85ad4084a66f676")),
    (DpSpec(n_x=12, n_t=700, eps=2e-2, penalty_K=3.0, t0=0.1),
     ("49e566bb93d16039870e746810c1055d9e96b34aca4eb861ab8849a3c8f48f66",
      "ea87c7611f8263044f9d0b0e58409f0c9a15a008c88baf2150565a7769cf1f97",
      "ac7f170bd35dc75702730eb37ecdcc60e59af06236ad6223aeccffce97ae5e32")),
    # the three levels of default_refinement_specs(3, 10, 1e-2), which the
    # pde-routes benchmark solves
    (DpSpec.balanced(10, 1e-2),
     ("ac481c2843c84125c4276ec7e2b4c733fcf235ac4bb7c929fbfde18e449bed0d",
      "c368d60623decff4f958b52653f7ffa8291c39c3e968b3b3388389a3f4dbd909",
      "1e269882f46372639c8bd806d9563a8a71c6fa7dc5bc870f3993c0cfda4d3f65")),
    (DpSpec.balanced(20, 1e-2),
     ("37d4a286e3948eb94954b776f3cdc0ea788f019dd0da4268ba75e2dbb6b2b4eb",
      "075772fff858da33e676f621a3f386079e2336e1b18a227e957b0389339631e6",
      "1d5e0f39e99930594766da4b4de8a3f859e680d10ebe0cd2c70ba76fe2684c8f")),
    (DpSpec.balanced(40, 1e-2),
     ("d819c4d1df033b7d1f0b0fca24c84e5b9f66f5b216467292f54968e534439764",
      "34ae6819b63d07940e3d00dcecf6aaff5b4f2c633fb093e67b379056f3b0f7b5",
      "197e3b37995c7cc408371d2cdfe4925a62b37d0c86c8235c881d2411122e96d1")),
])
def test_dp_solution_matches_golden(spec, digests):
    # SHA-256 of the value row, the policy surface and the policy times,
    # re-recorded when the step took log S from its clamp (notes/decisions.md
    # §18): 9 of the 15 digests moved in the last bits, no t-grid among them
    sol = solve_dp(spec)
    got = (_sha(sol.value.values), _sha(sol.policy.sigma), _sha(sol.policy.t_grid))
    assert got == digests


def test_solve_dp_calls_dp_step_once_per_step(monkeypatch):
    # solve_dp looks dp_step up on the module at every step, so a wrapper
    # installed there (as the benchmark's tracer does) sees every call
    calls = []
    step = pde.dp_step

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(pde, "dp_step", counting)
    spec = DpSpec(n_x=10, n_t=37, eps=5e-2)
    solve_dp(spec)
    assert len(calls) == spec.n_t


def test_dp_zero_penalty_nonpositive():
    spec = DpSpec.balanced(n_x=40, eps=5e-2, penalty_K=0.0)
    sol = solve_dp(spec)
    assert np.all(sol.value.values <= 1e-12)
    assert sol.value.values[0] == 0.0 and sol.value.values[-1] == 0.0


def test_dp_matches_closed_form_midscale():
    spec = DpSpec.balanced(n_x=100, eps=1e-2)
    sol = solve_dp(spec)
    exact = value_function(0.0, sol.value.x_grid)
    for xv in (0.1, 0.25, 0.5, 0.75, 0.9):
        j = int(round(xv * spec.n_x))
        tol = 0.05 * abs(exact[j]) + 1e-2
        assert abs(sol.value.values[j] - exact[j]) <= tol


def test_dp_symmetry_and_lower_bound():
    spec = DpSpec.balanced(n_x=60, eps=2e-2)
    sol = solve_dp(spec)
    v = sol.value.values
    assert np.allclose(v, v[::-1], atol=1e-12)
    x = sol.value.x_grid
    assert np.all(v >= (x * (1 - x) - 1.0) / 2.0 - 1e-6)


def test_dp_policy_tracks_optimal_volatility():
    spec = DpSpec.balanced(n_x=100, eps=1e-2)
    sol = solve_dp(spec)
    # pick a policy row in the bulk of the time interval
    tm = sol.policy.t_grid
    i = int(np.argmin(np.abs(tm - 0.5)))
    t = tm[i]
    x = sol.policy.x_grid
    interior = (x >= 0.2) & (x <= 0.8)
    ref = x[interior] * (1 - x[interior]) / (1 - t)
    got = sol.policy.sigma[i][interior]
    assert np.all(np.abs(got - ref) <= 0.10 * ref)


def test_dp_spec_validation():
    with pytest.raises(ValueError):
        DpSpec(n_x=4, n_t=10, eps=1e-2)
    with pytest.raises(ValueError):
        DpSpec(n_x=50, n_t=10, eps=0.7)
    with pytest.raises(ValueError):
        DpSpec(n_x=50, n_t=10, eps=1e-2, penalty_K=-1.0)
    with pytest.raises(ValueError):
        ControlPolicy(np.array([0.0, 1.0]), np.linspace(0, 1, 3),
                      -np.ones((2, 3)), sigma_max=1.0)


def test_refinement_study_gaps_decrease():
    rows = dp_refinement_study(default_refinement_specs(3, 25, 1e-2))
    assert math.isnan(rows[0].gap_to_previous)
    gaps = [r.gap_to_previous for r in rows[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    exact_gaps = [r.gap_to_closed_form for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(exact_gaps, exact_gaps[1:]))


def test_refinement_study_validation():
    with pytest.raises(ValueError):
        dp_refinement_study([DpSpec.balanced(25), DpSpec.balanced(75)])
    with pytest.raises(ValueError):
        dp_refinement_study([DpSpec.balanced(25)])
