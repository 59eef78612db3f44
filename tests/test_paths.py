import hashlib
import struct

import numpy as np
import pytest

from winentropy import wright_fisher
from winentropy.entropy import (_step_sums, _step_weights,
                                entropy_log_moment_estimate,
                                integrand_reciprocal, integrand_specific,
                                p_divergence_estimate, p_quotient_profile,
                                reciprocal_entropy_estimate,
                                specific_entropy_estimate, xlogx)
from winentropy.paths import (CHUNK_STEPS, PathEnsemble, Snapshots, StepPolicy,
                              chunk_steps, constant_variance_ensemble,
                              path_rng, piecewise_constant_ensemble,
                              set_max_workers)
from winentropy.wright_fisher import (p_moment_estimate, sigma_martingale_check,
                                      simulate_generic_sde, simulate_scaled_wf,
                                      simulate_standard_wf)


def teardown_function(_):
    set_max_workers(None)


def test_step_policy_grid():
    pol = StepPolicy(base_dt=0.1, adaptive=False)
    g = pol.time_grid(0.0, 1.0)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)

    pol = StepPolicy(base_dt=1e-2, adaptive=True, shrink=0.1)
    g = pol.time_grid(0.0, 1.0 - 1e-3)
    assert g[-1] == 1.0 - 1e-3
    d = np.diff(g)
    assert d.max() <= 1e-2 + 1e-15
    # steps shrink approaching the terminal time
    assert d[-1] < d[0]


def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy(base_dt=0.0)
    with pytest.raises(ValueError):
        StepPolicy(base_dt=1e-3).time_grid(0.5, 0.5)


def test_path_rng_streams_are_stable_and_distinct():
    a1 = path_rng(123, 0).standard_normal(8)
    a2 = path_rng(123, 0).standard_normal(8)
    b = path_rng(123, 1).standard_normal(8)
    c = path_rng(124, 0).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_ensemble_validation():
    times = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        PathEnsemble(times, 0, 0, "s", 0.5, 0.0, 0.0,
                     states=np.zeros((0, 5)), step_variance=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        PathEnsemble(times, 2, 0, "s", 0.5, 0.0, 0.0,
                     states=np.zeros((2, 4)), step_variance=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        PathEnsemble(times[::-1], 1, 0, "s", 0.5, 0.0, 0.0,
                     states=np.zeros((1, 5)), step_variance=np.zeros((1, 4)))


def test_sample_path_accessor():
    ens = simulate_scaled_wf(0.5, eps=0.1, n_paths=5, seed=7)
    p = ens.path(3)
    assert p.times is ens.times or np.array_equal(p.times, ens.times)
    assert p.states.shape == (ens.n_times,)
    assert p.step_variance.shape == (ens.n_steps,)
    with pytest.raises(IndexError):
        ens.path(5)


def test_lazy_blocks_match_materialized():
    # same recipe evaluated lazily and densely must agree bit for bit
    pol = StepPolicy(base_dt=5e-3)
    a = simulate_scaled_wf(0.4, eps=0.05, n_paths=300, seed=99, policy=pol)
    assert a.is_materialized
    b = PathEnsemble(a.times, a.n_paths, a.master_seed, a.scheme, a.x0,
                     a.t0, a.eps, block_fn=lambda lo, hi: (
                         a._states[lo:hi].copy(),
                         a._step_variance[lo:hi].copy(),
                         a._absorption_time[lo:hi].copy()))
    for bs in (32, 77, 300):
        got = b.reduce_paths(lambda blk: blk.states[:, -1], block_size=bs)
        assert np.array_equal(got, a._states[:, -1])


def test_reduction_independent_of_workers():
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=500, seed=21)
    set_max_workers(1)
    v1 = reciprocal_entropy_estimate(ens)
    set_max_workers(4)
    v2 = reciprocal_entropy_estimate(ens)
    assert v1.value == v2.value and v1.std_error == v2.std_error


def test_simulation_determinism_same_seed():
    a = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=5)
    b = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=5)
    assert np.array_equal(a._states, b._states)
    assert np.array_equal(a._step_variance, b._step_variance)
    c = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=6)
    assert not np.array_equal(a._states, c._states)


def test_prefix_stability_across_ensemble_size():
    # per-path streams: the first paths do not depend on ensemble size
    a = simulate_scaled_wf(0.5, eps=0.05, n_paths=16, seed=11)
    b = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=11)
    assert np.array_equal(a._states, b._states[:16])


def test_csv_roundtrip_content(tmp_path):
    ens = constant_variance_ensemble(2.0, n_steps=3, n_paths=2)
    out = tmp_path / "ens.csv"
    ens.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,x,sigma_sq"
    assert len(lines) == 1 + 2 * 4
    # final grid time carries no step, variance written as 0
    assert lines[4].split(",")[3] == "0"


def test_binary_roundtrip(tmp_path):
    ens = simulate_scaled_wf(0.3, eps=0.1, n_paths=17, seed=13,
                             policy=StepPolicy(base_dt=2e-2))
    out = tmp_path / "ens.bin"
    ens.to_binary(out)
    back = PathEnsemble.from_binary(out)
    assert np.array_equal(back.times, ens.times)
    assert np.array_equal(back._states, ens._states)
    assert np.array_equal(back._step_variance, ens._step_variance)
    assert np.array_equal(np.isnan(back._absorption_time),
                          np.isnan(ens._absorption_time))
    assert back.scheme == ens.scheme
    assert back.master_seed == ens.master_seed
    assert back.eps == ens.eps


def test_binary_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        PathEnsemble.from_binary(bad)


def _tiny_binary(tmp_path):
    ens = simulate_scaled_wf(0.3, eps=0.1, n_paths=3, seed=13,
                             policy=StepPolicy(base_dt=0.1))
    out = tmp_path / "ens.bin"
    ens.to_binary(out)
    return out.read_bytes()


def test_binary_rejects_every_truncation(tmp_path):
    data = _tiny_binary(tmp_path)
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError, match="truncated|bad magic"):
            PathEnsemble.from_binary(cut)
    cut.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        PathEnsemble.from_binary(cut)


def test_binary_rejects_short_cut_and_forged_files(tmp_path):
    data = _tiny_binary(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data[:20])
    with pytest.raises(ValueError, match="shorter than the 52-byte header"):
        PathEnsemble.from_binary(bad)
    bad.write_bytes(data[:len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        PathEnsemble.from_binary(bad)
    # header forged to 4e9 paths x 4e9 times: refused before any allocation
    bad.write_bytes(data[:8] + struct.pack("<II", 4_000_000_000, 4_000_000_000)
                    + data[16:])
    with pytest.raises(ValueError, match="4000000000 paths x 4000000000 times"):
        PathEnsemble.from_binary(bad)
    bad.write_bytes(data[:8] + struct.pack("<II", 0, 1) + data[16:])
    with pytest.raises(ValueError, match="need at least 1 and 2"):
        PathEnsemble.from_binary(bad)


def test_synthetic_builders_validate():
    with pytest.raises(ValueError):
        constant_variance_ensemble(-1.0)
    with pytest.raises(ValueError):
        piecewise_constant_ensemble(np.linspace(0, 1, 4), [1.0, 2.0])


# SHA-256 of to_binary and to_csv for fixed-seed ensembles, recorded before
# the simulators were rewritten as a time-major streaming kernel: the
# kernel must reproduce every exported byte.
GOLDEN_EXPORTS = {
    "scaled_adaptive": (
        "1e1185dd8939e93278e0047a73809fef13a6d85f69afad5b28afd3282e79e28b",
        "5b0fc447e80e3098ee16b7e5a2f24273f09add08fe6e2894898ae08af1c255d8"),
    "standard": (
        "1040992fc2f246472df1235bdec6c9c8656222b32e95e6d80ec6679a9cb8fb0b",
        "bd72d728ae26877553f0e836865cf92cebc3b0ed3d4321b9ceba9c84140811a4"),
    "generic_sde": (
        "09296f24973137706f3a67175e67409376e2b3bddf44d6cc225d80a3ffc17fe1",
        "2b643d1da435dec8b9dc61240b09d45604a5e94d55a14f63b1338353ef0e1e78"),
    "x0_zero": (
        "944a3955da9269bb293334066ddafa5b9fc814f954bf35c2d1f9f152cf2190d2",
        "d0a5679ed10e94625109c591aec8167f799f771bcb4c8ac27e5441a2f8e0a138"),
}


def _golden_ensemble(name):
    if name == "scaled_adaptive":
        # 490 steps, 39 of 40 paths absorbed
        return simulate_scaled_wf(
            0.5, eps=2e-2, n_paths=40, seed=2024,
            policy=StepPolicy(base_dt=2e-3, adaptive=True, shrink=0.1))
    if name == "standard":
        # 400 steps, 24 of 30 paths absorbed
        return simulate_standard_wf(0.2, 2.0, 5e-3, n_paths=30, seed=7)
    if name == "generic_sde":
        return simulate_generic_sde(
            lambda x: 1.0 + 0.5 * np.sin(x), 0.0, 4.0, 1e-2, n_paths=20,
            seed=3, sigma_min=0.5, sigma_max=1.5)
    return simulate_scaled_wf(0.0, eps=0.1, n_paths=5, seed=1,
                              policy=StepPolicy(base_dt=0.05))


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_export_bytes_match_golden(tmp_path, name):
    ens = _golden_ensemble(name)
    ens.to_binary(tmp_path / "e.bin")
    ens.to_csv(tmp_path / "e.csv")
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("e.bin", "e.csv"))
    assert digests == GOLDEN_EXPORTS[name]


# -- invariance of the streamed reductions -----------------------------------

_INV_POLICY = StepPolicy(base_dt=1.5e-3, adaptive=True, shrink=0.1)
_INV_FS = [integrand_reciprocal, integrand_specific, xlogx, lambda s: s,
           lambda s: np.power(s, 1.05), lambda s: np.power(s, 1.5)]


def _inv_ensemble(storage, monkeypatch):
    """The same 12 seeded scaled-WF paths, stored three ways.

    661 steps; 10 of the paths are absorbed before t = 0.6 and 2 after.
    """
    if storage == "lazy":
        monkeypatch.setattr(wright_fisher, "DENSE_ELEMENT_LIMIT", 0)
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=12, seed=17,
                             policy=_INV_POLICY)
    assert ens.is_materialized == (storage != "lazy")
    if storage == "user_block_fn":
        dense = ens
        ens = PathEnsemble(dense.times, dense.n_paths, dense.master_seed,
                           dense.scheme, dense.x0, dense.t0, dense.eps,
                           block_fn=lambda lo, hi: (
                               dense._states[lo:hi].copy(),
                               dense._step_variance[lo:hi].copy(),
                               dense._absorption_time[lo:hi].copy()))
    return ens


def _all_reductions(ens):
    """Per-path results of every library reduction, and their estimates."""
    # grid nodes on both chunk edges, and the last node
    edges = [CHUNK_STEPS, 2 * CHUNK_STEPS]
    cps = [float(ens.times[k]) for k in edges] + [0.5]
    out = {"snapshots": ens.observe(lambda bs: Snapshots(edges + [ens.n_steps], bs)),
           "sigma": [(s.t, s.mean_sigma, s.std_error)
                     for s in sigma_martingale_check(ens, cps)]}
    for eps in (ens.eps, 0.4):
        out[f"sums{eps}"] = _step_sums(ens, _INV_FS, eps)
    out["profile"] = p_quotient_profile(ens, [2.1, 2.01])
    # at the 0.6 cutoff the specific entropy is +inf
    out["estimates"] = [f(ens, 0.4).value for f in (
        reciprocal_entropy_estimate, specific_entropy_estimate,
        entropy_log_moment_estimate)]
    out["estimates"] += [p_divergence_estimate(ens, 3.0, 0.4).value,
                         p_moment_estimate(ens, 1.5, 0.4).value]
    return out


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], np.ndarray):
            assert np.array_equal(a[k], b[k], equal_nan=True), k
        else:
            assert a[k] == b[k], k


def test_streamed_reductions_are_time_order_sums(monkeypatch):
    ens = _inv_ensemble("materialized", monkeypatch)
    # chunks of CHUNK_STEPS steps, the last one shorter
    assert chunk_steps(ens.n_paths, ens.n_steps) == CHUNK_STEPS
    assert ens.n_steps > 2 * CHUNK_STEPS and ens.n_steps % CHUNK_STEPS != 0
    for eps in (ens.eps, 0.4):
        w = _step_weights(ens, eps)
        sums = _step_sums(ens, _INV_FS, eps)
        for i in range(ens.n_paths):
            for j, f in enumerate(_INV_FS):
                acc = 0.0
                for c, wk in zip(f(ens._step_variance[i]), w):
                    if wk > 0:
                        acc += c * wk
                assert sums[i, j] == acc
    # the specific entropy is +inf on paths absorbed before the cutoff
    spec = sums[:, 1]
    assert np.isinf(spec).any() and np.isfinite(spec).any()
    snaps = ens.observe(lambda bs: Snapshots([0, CHUNK_STEPS, ens.n_steps], bs))
    assert np.array_equal(snaps[:, :3], ens._states[:, [0, CHUNK_STEPS, -1]])
    assert np.array_equal(snaps[:, 3], ens._absorption_time, equal_nan=True)


def test_reductions_independent_of_storage_blocks_and_workers(monkeypatch):
    ref = _all_reductions(_inv_ensemble("materialized", monkeypatch))
    assert ref["estimates"][1] == np.inf
    for storage in ("lazy", "user_block_fn", "materialized"):
        ens = _inv_ensemble(storage, monkeypatch)
        for bs in (1, 7, ens.n_paths):
            for workers in (1, 4):
                monkeypatch.setattr(PathEnsemble, "_default_block_size",
                                    lambda self, bs=bs: bs)
                set_max_workers(workers)
                _assert_same(_all_reductions(ens), ref)
        monkeypatch.undo()
