import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from winentropy.entropy import (LOG_MOMENT, P_WASSERSTEIN, RECIPROCAL, SPECIFIC,
                                DeterministicVolatility, _StepSums, deterministic_divergence,
                                entropy_log_moment_estimate, integrand_reciprocal,
                                integrand_specific, inverse_t_log_cubed,
                                p_divergence_estimate, p_quotient_profile,
                                reciprocal_entropy_estimate,
                                specific_entropy_estimate, xlogx)
from winentropy.paths import (PathEnsemble, constant_variance_ensemble,
                              piecewise_constant_ensemble)

E = math.e


# ---------------------------------------------------------------------------
# pointwise integrands
# ---------------------------------------------------------------------------

def test_integrand_reciprocal_values():
    assert integrand_reciprocal(1.0) == 0.0
    assert integrand_reciprocal(0.0) == 1.0          # 0*log0 = 0 convention
    assert integrand_reciprocal(E) == pytest.approx(1.0, abs=1e-14)


def test_integrand_specific_values():
    assert integrand_specific(1.0) == 0.0
    assert integrand_specific(0.0) == math.inf
    assert integrand_specific(E) == pytest.approx(E - 2.0, abs=1e-14)


def test_xlogx_values():
    a = np.array([0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 1e300, np.inf])
    out = xlogx(a)
    assert np.array_equal(out, a * np.log(np.where(a > 0, a, 1.0)))
    assert out[0] == 0.0 and not np.signbit(out[0])
    assert xlogx(0.0) == 0.0 and xlogx(1.0) == 0.0
    assert xlogx(E) == pytest.approx(E, rel=1e-15)
    assert math.isnan(xlogx(math.nan))
    with np.errstate(invalid="ignore"):
        assert np.isnan(xlogx(np.array([-1.0, -1e-300]))).all()


def test_nan_step_variance_makes_log_moment_nan():
    # one path's variance is NaN on one step: its integral, and so the
    # estimate, must be NaN rather than a finite number that dropped it
    sv = np.full((3, 40), 0.5)
    sv[1, 7] = math.nan
    ens = PathEnsemble.from_arrays(np.linspace(0.0, 1.0, 41),
                                   np.full((3, 41), 0.5), sv)
    assert math.isnan(entropy_log_moment_estimate(ens).value)
    rows, lm = p_quotient_profile(ens, [2.5])
    assert math.isnan(lm.value) and math.isnan(rows[0][1])


@pytest.mark.parametrize("fn", [integrand_reciprocal, integrand_specific])
def test_integrands_reject_bad_input(fn):
    with pytest.raises(ValueError):
        fn(-0.1)
    with pytest.raises(ValueError):
        fn(float("nan"))


sigmas = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@given(sigmas)
def test_nonnegativity_with_equality_only_at_one(s):
    r = integrand_reciprocal(s)
    q = integrand_specific(s)
    assert r >= 0.0
    assert q >= 0.0
    if abs(s - 1.0) > 1e-6:
        assert r > 0.0
        assert q > 0.0


@given(sigmas, st.floats(min_value=2.0 + 1e-6, max_value=12.0))
def test_convexity_difference_quotient_bound(s, p):
    # (S^{p/2} - S)/(p-2) dominates S log(S)/2 for every p > 2
    lhs = (s ** (p / 2.0) - s) / (p - 2.0)
    rhs = 0.5 * (s * math.log(s) if s > 0 else 0.0)
    assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))


@given(sigmas, st.floats(min_value=2.0 + 1e-6, max_value=8.0),
       st.floats(min_value=1e-6, max_value=4.0))
def test_quotient_monotone_in_p(s, p, bump):
    q1 = (s ** (p / 2.0) - s) / (p - 2.0)
    q2 = (s ** ((p + bump) / 2.0) - s) / (p + bump - 2.0)
    assert q2 >= q1 - 1e-9 * max(1.0, abs(q1))


# ---------------------------------------------------------------------------
# ensemble estimators on deterministic ensembles
# ---------------------------------------------------------------------------

def test_reciprocal_estimate_constants():
    unit = constant_variance_ensemble(1.0, n_steps=64, n_paths=5)
    est = reciprocal_entropy_estimate(unit)
    assert est.value == 0.0 and est.std_error == 0.0

    ens_e = constant_variance_ensemble(E, n_steps=64, n_paths=5)
    est = reciprocal_entropy_estimate(ens_e)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.std_error == 0.0


def test_specific_estimate_constants():
    unit = constant_variance_ensemble(1.0, n_steps=32, n_paths=3)
    assert specific_entropy_estimate(unit).value == 0.0

    ens_e = constant_variance_ensemble(E, n_steps=32, n_paths=3)
    assert specific_entropy_estimate(ens_e).value == pytest.approx(
        0.5 * (E - 2.0), abs=1e-12)


def test_specific_estimate_infinite_on_flat_step():
    # positive time at zero variance before the cutoff means +inf
    times = np.linspace(0.0, 1.0, 5)
    ens = piecewise_constant_ensemble(times, [1.0, 0.0, 1.0, 1.0], n_paths=2)
    est = specific_entropy_estimate(ens)
    assert est.value == math.inf
    assert est.std_error == math.inf


def test_p_divergence_constants():
    unit = constant_variance_ensemble(1.0, n_steps=40, n_paths=3)
    assert p_divergence_estimate(unit, 2.0).value == pytest.approx(1.0, abs=1e-12)
    four = constant_variance_ensemble(4.0, n_steps=40, n_paths=3)
    assert p_divergence_estimate(four, 3.0).value == pytest.approx(8.0, abs=1e-12)


def test_estimator_consistency_piecewise_constant():
    # estimators reproduce the closed-form integral exactly, std error 0
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    sv = np.array([1.0, 4.0, 0.25, 1.0])
    ens = piecewise_constant_ensemble(times, sv, n_paths=7)
    expected = 0.5 * float(np.sum(integrand_reciprocal(sv) * 0.25))
    est = reciprocal_entropy_estimate(ens)
    assert est.value == expected
    assert est.std_error == 0.0
    expected_p = float(np.sum(sv ** 1.5 * 0.25))
    assert p_divergence_estimate(ens, 3.0).value == expected_p


def test_time_cutoff_truncates_partial_step():
    # constant variance e on [0,1], cutoff at 1-0.125 lands mid-step
    ens = constant_variance_ensemble(E, n_steps=4, n_paths=2)
    est = reciprocal_entropy_estimate(ens, eps=0.125)
    assert est.value == pytest.approx(0.5 * 0.875, rel=1e-12)


def test_difference_quotient_constants():
    unit = constant_variance_ensemble(1.0, n_steps=16, n_paths=4)
    for p in (2.5, 3.0, 4.0):
        assert p_quotient_profile(unit, [p])[0][0][1] == pytest.approx(0.0, abs=1e-14)

    four = constant_variance_ensemble(4.0, n_steps=16, n_paths=4)
    q = p_quotient_profile(four, [3.0])[0][0][1]
    assert q == pytest.approx(4.0, abs=1e-12)
    assert q >= 0.5 * 4.0 * math.log(4.0)   # convexity lower bound


def test_quotient_profile_monotone_and_matches_single():
    times = np.linspace(0.0, 1.0, 9)
    ens = piecewise_constant_ensemble(times, [0.5, 2.0, 1.0, 3.0, 4.0, 0.25, 1.5, 1.0])
    rows, lm = p_quotient_profile(ens, [2.1, 2.05, 2.01])
    vals = [q for _, q, _ in rows]
    assert vals[0] > vals[1] > vals[2] > lm.value
    single = p_quotient_profile(ens, [2.05])[0][0][1]
    assert rows[1][1] == pytest.approx(single, rel=1e-13)


def _chunked_variances(rng):
    """(n_steps, n_paths) time-major variances; paths absorbed at and inside chunk edges."""
    sv = rng.uniform(0.01, 2.5, (70, 9))
    sv[40:, 0] = 0.0          # absorbed at a chunk edge
    sv[23:, 1] = 0.0          # absorbed inside a chunk
    sv[47:, 2] = -0.0
    sv[:, 3] = 0.0            # absorbed from the start
    sv[5:9, 4] = 0.0          # zero for a stretch, then live again
    sv[61:, 5] = 0.0
    return sv


def _time_order_sums(fs, w, sv):
    """Per path and f, sum of f(S_k) * w_k over the steps with w_k > 0, added in time order."""
    out = np.zeros((sv.shape[1], len(fs)))
    for i in range(sv.shape[1]):
        col = np.ascontiguousarray(sv[:, i])
        for j, f in enumerate(fs):
            acc = 0.0
            for c, wk in zip(f(col), w):
                if wk > 0:
                    acc += c * wk
            out[i, j] = acc
    return out


@pytest.mark.parametrize("with_f0", [False, True])
def test_step_sums_on_partly_live_chunks_are_time_order_sums(with_f0):
    # with an integrand that is not 0 at 0 no column is skipped
    rng = np.random.default_rng(31)
    sv = _chunked_variances(rng)
    w = rng.uniform(0.001, 0.02, len(sv))
    w[66:] = 0.0              # steps past the cutoff
    fs = [xlogx, lambda s: s, lambda s: np.power(s, 1.05)]
    if with_f0:
        fs.append(integrand_reciprocal)
    want = _time_order_sums(fs, w, sv)
    for lengths in ([70], [8] * 9, [3, 17, 20, 5, 25], [1] * 70):
        sums = _StepSums(fs, w, sv.shape[1])
        assert sums.skip_zeros is not with_f0
        k0 = 0
        for m in lengths:
            sums.chunk(k0, None, np.ascontiguousarray(sv[k0:k0 + m]))
            k0 += m
        got = sums.result(None)
        assert got.tobytes() == want.tobytes(), lengths


def test_step_sums_hand_integrands_c_ordered_live_columns():
    seen = []

    def f(s):
        seen.append((s.shape, s.flags.c_contiguous))
        return s

    sv = _chunked_variances(np.random.default_rng(32))[16:32]
    sums = _StepSums([f], np.full(32, 0.01), sv.shape[1])
    seen.clear()
    sums.chunk(16, None, sv)
    # the chunk's live columns: all but path 3, absorbed from the start
    assert seen == [((16, 8), True)]


def test_quotient_requires_p_above_two():
    ens = constant_variance_ensemble(1.0, n_steps=4, n_paths=2)
    with pytest.raises(ValueError):
        p_quotient_profile(ens, [2.0])
    with pytest.raises(ValueError):
        p_divergence_estimate(ens, -1.0)


def test_estimator_rejects_grid_short_of_cutoff():
    ens = constant_variance_ensemble(1.0, n_steps=8, n_paths=2, t_end=0.5)
    with pytest.raises(ValueError):
        entropy_log_moment_estimate(ens, eps=0.0)


# ---------------------------------------------------------------------------
# deterministic volatility quadrature
# ---------------------------------------------------------------------------

def test_unit_volatility_all_flavors():
    unit = DeterministicVolatility("unit", lambda t: 1.0)
    for flavor in (RECIPROCAL, SPECIFIC, LOG_MOMENT):
        assert deterministic_divergence(unit, flavor, 0.1) == pytest.approx(0.0, abs=1e-12)
    for p in (2.0, 3.0, 5.0):
        val = deterministic_divergence(unit, P_WASSERSTEIN, 1e-6, p=p)
        assert val == pytest.approx(1.0 - 1e-6, rel=1e-9)


def test_counterexample_log_moment_limit():
    # substitution u = ln(e/t) gives int_1^inf (u-1-3 ln u) u^-3 du = -1/4
    vol = inverse_t_log_cubed()
    assert deterministic_divergence(vol, LOG_MOMENT, 0.0) == pytest.approx(-0.25, abs=1e-9)
    vals = [deterministic_divergence(vol, LOG_MOMENT, d) for d in (1e-3, 1e-6, 1e-9)]
    errs = [abs(v + 0.25) for v in vals]
    assert errs[0] > errs[1] > errs[2]   # monotone approach to the limit


def test_counterexample_log_time_form_matches_direct():
    vol = inverse_t_log_cubed()
    bare = DeterministicVolatility(vol.name, vol.sigma_sq)
    for flavor, p in ((LOG_MOMENT, None), (P_WASSERSTEIN, 2.2)):
        for delta in (1e-2, 1e-5):
            a = deterministic_divergence(vol, flavor, delta, p=p)
            b = deterministic_divergence(bare, flavor, delta, p=p)
            assert a == pytest.approx(b, rel=1e-9)


def test_counterexample_super_quadratic_divergence():
    # int sigma^{2.2} dt grows without bound as the cutoff shrinks; the
    # growth only becomes numerically dramatic at extremely small delta
    vol = inverse_t_log_cubed()
    vals = [deterministic_divergence(vol, P_WASSERSTEIN, d, p=2.2)
            for d in (1e-3, 1e-6, 1e-9, 1e-100, 1e-300)]
    # int_1^{1+ln(1/delta)} e^{0.1(u-1)} u^-3.3 du by independent
    # 40-digit mpmath quadrature: only ~1.02x growth from 1e-3 to 1e-9
    assert vals[0] == pytest.approx(0.46264626047741, rel=1e-12)
    assert vals[2] == pytest.approx(0.47270835290680, rel=1e-12)
    assert all(b > a for a, b in zip(vals, vals[1:]))   # strictly increasing
    assert vals[-1] > 1e10 * vals[0]                    # unbounded in practice


def test_improper_integral_requires_log_time_form():
    bare = DeterministicVolatility("bare", lambda t: 1.0 / math.sqrt(t))
    with pytest.raises(ValueError):
        deterministic_divergence(bare, LOG_MOMENT, 0.0)


def test_bad_delta_rejected():
    vol = inverse_t_log_cubed()
    with pytest.raises(ValueError):
        deterministic_divergence(vol, LOG_MOMENT, 1.0)
    with pytest.raises(ValueError):
        deterministic_divergence(vol, "nonsense", 0.5)
