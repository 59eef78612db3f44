import csv
import hashlib
import io
import os
import struct
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from winentropy import paths, wright_fisher
from winentropy.entropy import (_step_sums, _step_weights, _StepSums,
                                entropy_log_moment_estimate,
                                integrand_reciprocal, integrand_specific,
                                p_divergence_estimate, p_quotient_profile,
                                reciprocal_entropy_estimate,
                                specific_entropy_estimate, xlogx)
from winentropy.paths import (ACCURATE_POLICY, CHUNK_STEPS, PathEnsemble,
                              Snapshots, StepPolicy, chunk_steps,
                              constant_variance_ensemble, draw_block_normals,
                              panel_steps, path_rng,
                              piecewise_constant_ensemble, set_max_workers)
from winentropy.multidim import simulate_simplex_wf
from winentropy.wright_fisher import (sigma_martingale_check, simulate_generic_sde,
                                      simulate_scaled_wf, simulate_standard_wf)


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


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, (1 << 64) - 1])
@pytest.mark.parametrize("index", [0, 1, 1 << 32, (1 << 64) - 1])
def test_path_rng_is_the_keyed_philox_stream(seed, index):
    got = path_rng(seed, index)
    want = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    for _ in range(2):      # fresh, and after 1,000 normals
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()


def test_panel_draws_continue_each_stream():
    whole = np.stack([path_rng(9, i).standard_normal(700) for i in range(3)])
    streams = [path_rng(9, i) for i in range(3)]
    panel = np.empty((3, 256))
    got = [draw_block_normals(streams, panel[:, :m]).copy()
           for m in (7, 256, 37, 256, 144)]
    assert [g.shape for g in got] == [(3, 7), (3, 256), (3, 37), (3, 256), (3, 144)]
    assert np.array_equal(np.concatenate(got, axis=1), whole)


def test_draw_block_normals_needs_one_stream_per_row():
    with pytest.raises(ValueError):
        draw_block_normals([path_rng(9, i) for i in range(2)], np.empty((3, 5)))
    with pytest.raises(ValueError):
        draw_block_normals([path_rng(9, i) for i in range(4)], np.empty((3, 5)))


@pytest.mark.parametrize("seed, lo", [(77, 5), ((1 << 64) - 1, 1 << 40)])
def test_single_panel_rows_are_fresh_path_streams(seed, lo):
    hi, n = lo + 7, 40
    (k0, z, live), = wright_fisher._normal_panels(seed, lo, hi, n)
    assert k0 == 0 and np.array_equal(live, np.arange(hi - lo))
    assert np.array_equal(z, np.stack([path_rng(seed, i).standard_normal(n)
                                       for i in range(lo, hi)]))
    rows = []
    for rng in paths._one_shot_streams(seed, lo, hi):
        rng.standard_normal(3)      # each stream drawn in two calls
        rows.append(rng.standard_normal(n))
    assert np.array_equal(np.stack(rows), np.stack(
        [path_rng(seed, i).standard_normal(3 + n)[3:] for i in range(lo, hi)]))


def _count_philox(monkeypatch):
    made = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return made


def test_one_philox_per_single_panel_block(monkeypatch):
    dense = _inv_ensemble("materialized").states
    ens = _inv_ensemble("lazy")
    made = _count_philox(monkeypatch)
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 5)
    nodes = range(ens.n_times)
    assert np.array_equal(ens.observe(lambda bs: Snapshots(nodes, bs))[:, :-1], dense)
    assert len(made) == 3
    # several panels per block: each path keeps its own generator
    made.clear()
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    assert panel_steps(5, ens.n_steps) < ens.n_steps
    assert np.array_equal(ens.observe(lambda bs: Snapshots(nodes, bs))[:, :-1], dense)
    assert len(made) == ens.n_paths
    # the simplex WF runs on the same kernel: one generator per block of 5
    made.clear()
    simulate_simplex_wf(2, [0.3, 0.3], eps=0.1, n_paths=9, seed=4,
                        policy=StepPolicy(base_dt=0.05))
    assert len(made) == 2


def test_two_workers_draw_single_panel_blocks_bit_identically(monkeypatch):
    dense = _inv_ensemble("materialized")
    lazy = _inv_ensemble("lazy")
    assert panel_steps(3, lazy.n_steps) == lazy.n_steps
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 3)
    made = _count_philox(monkeypatch)

    class Tagged(Snapshots):
        # a block's rows end with its pid and, on its first row, the
        # generators it made: a child's count never reaches this process
        def __init__(self, bs):
            super().__init__(range(lazy.n_times), bs)
            self.made_before = len(made)

        def result(self, absorption_time, times):
            rows = super().result(absorption_time, times)
            tags = np.zeros((len(rows), 2))
            tags[:, 0], tags[0, 1] = os.getpid(), len(made) - self.made_before
            return np.column_stack([rows, tags])

    for workers, n_pids in [(1, 1), (2, 2)]:
        set_max_workers(workers)
        got = lazy.observe(Tagged)
        assert len(set(got[:, -2])) == n_pids and got[:, -1].sum() == 4
        assert got[:, :-3].tobytes() == dense.states.tobytes()
        assert np.array_equal(got[:, -3], dense.absorption_time, equal_nan=True)


def test_panel_steps_are_whole_chunks_within_budget(monkeypatch):
    assert panel_steps(2048, 8381) == 1024
    assert panel_steps(12, 661) == 661
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    assert panel_steps(12, 661) == chunk_steps(12, 661) == CHUNK_STEPS
    for bs, n, budget in [(12, 661, 3600), (7, 661, 3600), (2048, 8381, 1 << 20),
                          (8192, 4200, 1 << 21), (1, 5, 1 << 21)]:
        monkeypatch.setattr(paths, "PANEL_ELEMENTS", budget)
        width = panel_steps(bs, n)
        assert width == n or (width % chunk_steps(bs, n) == 0
                              and width * bs <= budget)


def test_ensemble_validation():
    times = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        PathEnsemble.from_arrays(times, np.zeros((0, 5)), np.zeros((0, 4)))
    with pytest.raises(ValueError):
        PathEnsemble.from_arrays(times, np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        PathEnsemble.from_arrays(times[::-1], np.zeros((1, 5)), np.zeros((1, 4)))


def test_lazy_blocks_match_materialized(monkeypatch):
    # the same recipe streamed block by block and materialized agrees bit for bit
    ens = simulate_scaled_wf(0.4, eps=0.05, n_paths=300, seed=99,
                             policy=StepPolicy(base_dt=5e-3))

    def rows(blk):
        return np.column_stack([blk.states, blk.step_variance, blk.absorption_time])

    def reduce_in_blocks_of(bs):
        monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: bs)
        return ens.reduce_paths(rows)

    lazy = {bs: reduce_in_blocks_of(bs) for bs in (32, 77, 300)}
    assert not ens.is_materialized
    ens.materialize()
    for bs, got in lazy.items():
        assert got.tobytes() == reduce_in_blocks_of(bs).tobytes()


_SIMULATIONS = {
    "scaled": lambda: simulate_scaled_wf(0.2, eps=0.05, n_paths=3, seed=41,
                                         policy=StepPolicy(base_dt=0.01)),
    "standard": lambda: simulate_standard_wf(0.2, 1.0, 0.01, n_paths=3, seed=42),
    "standard_zero_horizon": lambda: simulate_standard_wf(0.2, 0.0, 0.01,
                                                          n_paths=3, seed=43),
    "generic_sde": lambda: simulate_generic_sde(
        lambda x: 1.0 + 0.5 * np.sin(x), 0.0, 4.0, 0.01, n_paths=3, seed=44,
        sigma_min=0.5, sigma_max=1.5),
}


@pytest.mark.parametrize("name", sorted(_SIMULATIONS))
def test_simulators_return_recipes(monkeypatch, name):
    ens = _SIMULATIONS[name]()
    assert not ens.is_materialized
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 2)
    blocks = list(ens.iter_blocks())
    assert not ens.is_materialized
    ens.materialize()
    for field in ("states", "step_variance", "absorption_time"):
        streamed = np.concatenate([getattr(b, field) for b in blocks])
        assert getattr(ens, field).tobytes() == streamed.tobytes(), field


def test_materialize_refuses_more_than_the_dense_limit():
    # 1e6 paths x 121 times: 242M states and step variances, over the 240M limit
    ens = simulate_standard_wf(0.5, 1.2, 0.01, n_paths=1_000_000, seed=1)
    assert ens.n_times == 121
    assert 2 * ens.n_paths * ens.n_times > paths.DENSE_ELEMENT_LIMIT
    with pytest.raises(MemoryError, match="too large to materialize"):
        ens.materialize()
    assert not ens.is_materialized


def test_reduction_independent_of_workers():
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=500, seed=21)
    set_max_workers(1)
    v1 = reciprocal_entropy_estimate(ens)
    set_max_workers(4)
    v2 = reciprocal_entropy_estimate(ens)
    assert v1.value == v2.value and v1.std_error == v2.std_error


@pytest.mark.parametrize("n_blocks", [2, 3])
def test_two_workers_run_every_block_on_the_pool(monkeypatch, n_blocks):
    # each block's rows end with the pid of the process that ran it
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=3 * n_blocks, seed=8)

    def fn(blk):
        rows = blk.states[:, -3:] * blk.step_variance[:, :1]
        return np.column_stack([rows, np.full(len(rows), os.getpid())])

    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 3)
    set_max_workers(1)
    serial = ens.reduce_paths(fn)
    assert set(serial[:, -1]) == {os.getpid()}
    set_max_workers(2)
    pooled = ens.reduce_paths(fn)
    # dealt round-robin: the caller runs the even blocks, one child the odd
    pids = pooled[::3, -1]
    assert len(set(pids)) == 2 and pids[0] == os.getpid() != pids[1]
    assert list(pids[::2]) == [os.getpid()] * len(pids[::2])
    assert pooled[:, :-1].tobytes() == serial[:, :-1].tobytes()


def test_two_workers_split_a_one_block_sweep_with_the_same_bits():
    # 600 paths fit one block; w workers cut it into blocks of at least 256
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=600, seed=23,
                             policy=StepPolicy(base_dt=2e-3))
    assert ens._ranges() == [(0, 600)]

    def sweeps():
        return [repr(p_quotient_profile(ens, [2.1, 2.01])),
                repr(sigma_martingale_check(ens, [0.25, 0.5, 0.9])),
                ens.reduce_paths(lambda blk: blk.states[:, ::7] * blk.step_variance[:, -1:])
                .tobytes()]

    ref, pids = None, {}
    for workers in (1, 2, 4):
        set_max_workers(workers)
        pids[workers] = ens.reduce_paths(lambda blk: np.full(blk.hi - blk.lo, os.getpid()))
        got = sweeps()
        ref = ref or got
        assert got == ref, workers
    assert set(pids[1]) == {os.getpid()}
    assert set(pids[2][:300]) == {os.getpid()} and len(set(pids[2][300:])) == 1
    assert pids[2][300] != os.getpid()
    assert len(set(pids[4])) == 3     # blocks of 256, 256 and 88


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [paths.NumericalError, ValueError])
def test_an_error_in_a_childs_block_reaches_the_caller(monkeypatch, error):
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=6, seed=8)
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 3)
    set_max_workers(2)
    caller = os.getpid()

    def fn(blk):
        if blk.lo and os.getpid() != caller:
            raise error(f"block at {blk.lo}")
        return blk.states

    with pytest.raises(error, match="block at 3"):
        ens.reduce_paths(fn)
    _assert_no_child_left()


def test_a_child_that_dies_without_its_rows_raises(monkeypatch):
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=6, seed=8)
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 3)
    set_max_workers(2)
    caller = os.getpid()

    def fn(blk):
        if os.getpid() != caller:
            os._exit(1)
        return blk.states

    with pytest.raises(ChildProcessError, match="ended without its rows"):
        ens.reduce_paths(fn)
    _assert_no_child_left()


def test_an_error_in_the_callers_block_ends_the_children(monkeypatch):
    ens = simulate_scaled_wf(0.5, eps=0.05, n_paths=9, seed=8)
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 3)
    set_max_workers(3)
    caller = os.getpid()

    def fn(blk):
        if os.getpid() == caller:
            raise paths.NumericalError("the caller's block failed")
        time.sleep(60)      # a child left running would hold up the reaping
        return blk.states

    start = time.monotonic()
    with pytest.raises(paths.NumericalError, match="caller's block"):
        ens.reduce_paths(fn)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_simulation_determinism_same_seed():
    a = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=5).materialize()
    b = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=5).materialize()
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.step_variance, b.step_variance)
    c = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=6).materialize()
    assert not np.array_equal(a.states, c.states)


def test_prefix_stability_across_ensemble_size():
    # per-path streams: the first paths do not depend on ensemble size
    a = simulate_scaled_wf(0.5, eps=0.05, n_paths=16, seed=11).materialize()
    b = simulate_scaled_wf(0.5, eps=0.05, n_paths=64, seed=11).materialize()
    assert np.array_equal(a.states, b.states[:16])


def test_csv_roundtrip_content(tmp_path):
    ens = constant_variance_ensemble(2.0, n_steps=3, n_paths=2)
    out = tmp_path / "ens.csv"
    ens.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,x,sigma_sq"
    assert len(lines) == 1 + 2 * 4
    # final grid time carries no step, variance written as 0
    assert lines[4].split(",")[3] == "0"


def _csv_by_rows(ens, fh):
    """CSV export with one csv.writer row and three format(v, ".17g") calls per row."""
    w = csv.writer(fh)
    w.writerow(["path_id", "t", "x", "sigma_sq"])
    for blk in ens.iter_blocks():
        for j in range(blk.hi - blk.lo):
            pid = blk.lo + j
            for k in range(ens.n_times):
                sv = blk.step_variance[j, k] if k < ens.n_steps else 0.0
                w.writerow([pid, format(ens.times[k], ".17g"),
                            format(blk.states[j, k], ".17g"),
                            format(sv, ".17g")])


_CSV_EDGES = [-0.0, 5e-324, 1e16, 0.1, 1 - 2**-53]
_csv_times = st.one_of(st.sampled_from(_CSV_EDGES),
                       st.floats(-1e300, 1e300))   # grid steps stay finite
_csv_values = st.one_of(st.sampled_from(_CSV_EDGES + [np.nan, np.inf, -np.inf]),
                        st.floats())


@st.composite
def _csv_case(draw):
    n_paths, n_times = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    times = sorted(draw(st.lists(_csv_times, min_size=n_times,
                                 max_size=n_times, unique=True)))
    values = st.lists(_csv_values, min_size=n_paths * n_times,
                      max_size=n_paths * n_times)
    states = np.reshape(draw(values), (n_paths, n_times))
    stepvar = np.reshape(draw(values), (n_paths, n_times))[:, 1:]
    return (times, states, stepvar, draw(st.integers(1, n_paths)),
            draw(st.booleans()), draw(st.booleans()))


class _ArrayRecipe:
    """A streaming recipe that hands stored arrays to the observers."""

    def __init__(self, times, states, step_variance):
        self.stored = paths._Stored(np.asarray(times), 0, len(states), states,
                                    step_variance, np.full(len(states), np.nan))

    def stream(self, lo, hi, observers):
        return self.stored.stream(lo, hi, observers)


@settings(max_examples=300)
@given(_csv_case())
def test_csv_bytes_match_the_csv_module(case):
    times, states, stepvar, block, lazy, to_file = case
    if lazy:
        ens = PathEnsemble(times, len(states), 0, "s", 0.5, times[0], 0.0,
                           recipe=_ArrayRecipe(times, states, stepvar))
    else:
        ens = PathEnsemble.from_arrays(times, states, stepvar)
    # blocks of `block` paths, so path ids run on across blocks
    ens._default_block_size = lambda: block
    ref = io.StringIO()
    _csv_by_rows(ens, ref)
    if to_file:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "e.csv")
            ens.to_csv(out)
            with open(out, "rb") as fh:
                got = fh.read()
    else:
        buf = io.StringIO()
        ens.to_csv(buf)
        got = buf.getvalue().encode()
    assert got == ref.getvalue().encode()


class _RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def test_csv_writes_at_most_128_rows_of_one_path_at_a_time(monkeypatch):
    # a lazy ensemble of 10 paths over 318 times, streamed in blocks of 4
    ens = simulate_scaled_wf(0.3, eps=0.05, n_paths=10, seed=31,
                             policy=StepPolicy(base_dt=0.003, shrink=0.2))
    monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self: 4)
    n = ens.n_times
    assert not ens.is_materialized and len(ens._ranges()) == 3 and n == 318
    rec = _RecordingFile()
    ens.to_csv(rec)
    ref = io.StringIO()
    _csv_by_rows(ens, ref)
    lines = ref.getvalue().splitlines(keepends=True)
    pieces = ["".join(lines[1 + i * n + k:1 + i * n + min(k + 128, n)])
              for i in range(ens.n_paths) for k in range(0, n, 128)]
    assert rec.writes == [lines[0]] + pieces
    assert lines[-1].startswith("9,") and lines[-1].endswith(",0\r\n")


def test_binary_roundtrip(tmp_path):
    ens = simulate_scaled_wf(0.3, eps=0.1, n_paths=17, seed=13,
                             policy=StepPolicy(base_dt=2e-2))
    out = tmp_path / "ens.bin"
    ens.to_binary(out)
    back = PathEnsemble.from_binary(out)
    ens.materialize()
    assert np.array_equal(back.times, ens.times)
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.step_variance, ens.step_variance)
    assert np.array_equal(np.isnan(back.absorption_time),
                          np.isnan(ens.absorption_time))
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


def test_scheme_strings_are_pinned():
    # the scheme string is written into every binary header
    pol = StepPolicy(base_dt=0.05)
    assert simulate_scaled_wf(0.5, eps=0.1, n_paths=1, policy=pol).scheme == \
        "scaled_wf|base_dt=0.05|adaptive=True|shrink=0.1|absorb_tol=1e-06"
    assert simulate_standard_wf(0.2, 1.0, 0.01, n_paths=1).scheme == \
        "standard_wf|dt=0.01|absorb_tol=1e-06"
    assert simulate_simplex_wf(2, [0.3, 0.3], eps=0.1, n_paths=1, policy=pol).scheme == \
        "simplex_wf|d=2|base_dt=0.05|shrink=0.1|absorb_tol=1e-06"


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


# (CHUNK_STEPS, PANEL_ELEMENTS) that cut the golden and 661-step ensembles
# into many panels: one chunk per panel, or several chunks per panel with
# chunk edges between the panel edges
PANEL_SPLITS = [(CHUNK_STEPS, 1), (100, 1), (100, 7000), (100, 3600)]


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_export_bytes_match_golden(tmp_path, name):
    _assert_golden_bytes(tmp_path, name)


@pytest.mark.parametrize("split", PANEL_SPLITS)
@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORTS))
def test_export_bytes_match_golden_in_panels(tmp_path, monkeypatch, name, split):
    monkeypatch.setattr(paths, "CHUNK_STEPS", split[0])
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", split[1])
    _assert_golden_bytes(tmp_path, name)


def _assert_golden_bytes(tmp_path, name):
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


def _inv_ensemble(storage):
    """The same 12 seeded scaled-WF paths, "lazy" or "materialized".

    661 steps; 10 of the paths are absorbed before t = 0.6 and 2 after.
    """
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=12, seed=17,
                             policy=_INV_POLICY)
    assert not ens.is_materialized
    return ens.materialize() if storage == "materialized" else ens


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
    out["estimates"].append(p_divergence_estimate(ens, 3.0, 0.4).value)
    return out


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], np.ndarray):
            assert np.array_equal(a[k], b[k], equal_nan=True), k
        else:
            assert a[k] == b[k], k


def test_streamed_reductions_are_time_order_sums():
    ens = _inv_ensemble("materialized")
    # chunks of CHUNK_STEPS steps, the last one shorter
    assert chunk_steps(ens.n_paths, ens.n_steps) == CHUNK_STEPS
    assert ens.n_steps > 2 * CHUNK_STEPS and ens.n_steps % CHUNK_STEPS != 0
    for eps in (ens.eps, 0.4):
        w = _step_weights(ens, eps)
        sums = _step_sums(ens, _INV_FS, eps)
        for i in range(ens.n_paths):
            for j, f in enumerate(_INV_FS):
                acc = 0.0
                for c, wk in zip(f(ens.step_variance[i]), w):
                    if wk > 0:
                        acc += c * wk
                assert sums[i, j] == acc
    # the specific entropy is +inf on paths absorbed before the cutoff
    spec = sums[:, 1]
    assert np.isinf(spec).any() and np.isfinite(spec).any()
    snaps = ens.observe(lambda bs: Snapshots([0, CHUNK_STEPS, ens.n_steps], bs))
    assert np.array_equal(snaps[:, :3], ens.states[:, [0, CHUNK_STEPS, -1]])
    assert np.array_equal(snaps[:, 3], ens.absorption_time, equal_nan=True)


def _inv_storages(tmp_path):
    """The _inv_ensemble paths as a recipe and as each kind of stored arrays."""
    dense = _inv_ensemble("materialized")
    dense.to_binary(tmp_path / "inv.bin")
    return {"lazy": _inv_ensemble("lazy"), "materialized": dense,
            "binary": PathEnsemble.from_binary(tmp_path / "inv.bin"),
            "arrays": PathEnsemble.from_arrays(
                dense.times, dense.states, dense.step_variance,
                absorption_time=dense.absorption_time, master_seed=dense.master_seed,
                x0=dense.x0, t0=dense.t0, eps=dense.eps)}


def test_reductions_independent_of_storage_blocks_and_workers(tmp_path, monkeypatch):
    def reductions(ens):
        out = _all_reductions(ens)
        # stops after the first chunk: later absorptions read NaN
        out["early"] = ens.observe(lambda bs: Snapshots([5], bs))
        return out

    ref = reductions(_inv_ensemble("lazy"))
    assert ref["estimates"][1] == np.inf
    assert np.isnan(ref["early"][:, 1]).sum() > np.isnan(ref["snapshots"][:, -1]).sum()
    for storage, ens in _inv_storages(tmp_path).items():
        assert ens.is_materialized == (storage != "lazy")
        for bs in (1, 7, ens.n_paths):
            for workers in (1, 4):
                monkeypatch.setattr(PathEnsemble, "_default_block_size",
                                    lambda self, bs=bs: bs)
                set_max_workers(workers)
                _assert_same(reductions(ens), ref)
        monkeypatch.undo()


def test_from_arrays_refuses_mismatched_absorption_times_and_no_paths():
    times, states, stepvar = np.linspace(0, 1, 5), np.full((5, 5), 0.5), np.full((5, 4), 0.25)
    with pytest.raises(ValueError, match="absorption_time"):
        PathEnsemble.from_arrays(times, states, stepvar, absorption_time=[0.3])
    with pytest.raises(ValueError, match="absorption_time"):
        PathEnsemble.from_arrays(times, states, stepvar, absorption_time=np.zeros((5, 1)))
    for empty in (np.zeros((0, 5)), np.zeros(0)):
        with pytest.raises(ValueError):
            PathEnsemble.from_arrays(times, empty, np.zeros((0, 4)))
    ens = PathEnsemble.from_arrays(times, states, stepvar, absorption_time=[0.3] * 5)
    assert np.array_equal(ens.observe(lambda bs: Snapshots([4], bs))[:, 1], [0.3] * 5)


@pytest.mark.parametrize("split", PANEL_SPLITS)
def test_reductions_independent_of_normals_panels(monkeypatch, split):
    dense = _inv_ensemble("materialized")
    ref = _all_reductions(dense)
    monkeypatch.setattr(paths, "CHUNK_STEPS", split[0])
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", split[1])
    for storage in ("materialized", "lazy"):
        ens = _inv_ensemble(storage)
        assert panel_steps(ens.n_paths, ens.n_steps) < ens.n_steps
        if storage == "materialized":
            assert np.array_equal(ens.states, dense.states)
            assert np.array_equal(ens.step_variance, dense.step_variance)
        for bs in (1, 7, ens.n_paths):
            monkeypatch.setattr(PathEnsemble, "_default_block_size",
                                lambda self, bs=bs: bs)
            _assert_same(_all_reductions(ens), ref)


def test_lazy_sweep_holds_one_normals_panel():
    # 512 paths x 8,381 steps: the whole horizon's normals are 34.3 MB
    ens = simulate_scaled_wf(0.5, eps=1e-4, n_paths=512, seed=3,
                             policy=ACCURATE_POLICY)
    assert not ens.is_materialized and ens.n_steps == 8381
    whole = 8 * ens.n_paths * ens.n_steps
    tracemalloc.start()
    try:
        ens.observe(lambda bs: Snapshots([ens.n_steps], bs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * whole, f"sweep peaked at {peak / 1e6:.1f} MB"


def test_snapshots_stop_the_sweep_after_their_last_node(monkeypatch):
    # chunks and panels of 40 steps: node 250 lies in the chunk of steps
    # 240..279, so a sweep for it draws 7 of the 17 panels
    monkeypatch.setattr(paths, "CHUNK_STEPS", 40)
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    ens = _absorbing_ensemble(lazy=True)
    full = ens.observe(lambda bs: Snapshots([100, 250, ens.n_steps], bs))
    shapes = _count_draws(monkeypatch)
    got = ens.observe(lambda bs: Snapshots([250, 100], bs))
    assert [m for _, m in shapes] == [40] * 7
    assert np.array_equal(got[:, :2], full[:, [1, 0]])
    # the absorption column stops at the last node, not at its chunk's end
    stop = ens.times[250]
    assert np.array_equal(got[:, 2], np.where(full[:, 3] <= stop, full[:, 3], np.nan),
                          equal_nan=True)
    assert np.isnan(got[:, 2]).sum() > np.isnan(full[:, 3]).sum()
    # with no nodes the sweep runs to the end
    shapes.clear()
    assert np.array_equal(ens.observe(lambda bs: Snapshots([], bs))[:, 0], full[:, 3],
                          equal_nan=True)
    assert len(shapes) == 17


def test_early_snapshots_absorption_column_ignores_block_size_and_workers(monkeypatch):
    # blocks above 256 paths step in shorter chunks, so a sweep stopped at
    # node 5 runs to a chunk end that depends on the block size
    ens = simulate_scaled_wf(0.5, eps=1e-2, n_paths=600, seed=3,
                             policy=StepPolicy(base_dt=2e-3))
    got = set()
    for bs in (600, 300, 100):
        monkeypatch.setattr(PathEnsemble, "_default_block_size", lambda self, bs=bs: bs)
        for workers in (1, 2):
            set_max_workers(workers)
            got.add(ens.observe(lambda n: Snapshots([5], n)).tobytes())
    assert len(got) == 1


# -- absorbed paths cost nothing ---------------------------------------------

# (CHUNK_STEPS, PANEL_ELEMENTS) that cut a 661-step block of 48 paths into
# panels of 40 steps (one chunk each) or of 120 steps (three chunks each)
LIVE_SPLITS = [(40, 1), (40, 48 * 120)]


def _absorbing_ensemble(lazy):
    """48 scaled-WF paths from x0 = 0.05 over 661 steps.

    38 are absorbed before t = 0.3, and the last at t = 0.981.
    """
    ens = simulate_scaled_wf(0.05, eps=1e-2, n_paths=48, seed=11,
                             policy=_INV_POLICY)
    if not lazy:
        ens.materialize()
    assert ens.is_materialized != lazy and ens.n_steps == 661
    return ens


def _count_draws(monkeypatch):
    shapes = []

    def counting(streams, out):
        shapes.append(out.shape)
        return draw_block_normals(streams, out)

    monkeypatch.setattr(wright_fisher, "draw_block_normals", counting)
    return shapes


@pytest.mark.parametrize("split", LIVE_SPLITS)
def test_panels_after_the_first_draw_only_for_live_paths(monkeypatch, split):
    monkeypatch.setattr(paths, "CHUNK_STEPS", split[0])
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", split[1])
    ens = _absorbing_ensemble(lazy=True)
    n, bs, times = ens.n_steps, ens.n_paths, ens.times
    width = panel_steps(bs, n)
    seen = np.empty((n, bs))
    recipe = ens._recipe
    inner = recipe.new_step

    def recording(x, abst):
        step = inner(x, abst)

        def wrapped(k, x, xn, var, zk):
            seen[k] = zk
            step(k, x, xn, var, zk)
        return wrapped

    monkeypatch.setattr(recipe, "new_step", recording)
    shapes = _count_draws(monkeypatch)
    abst = ens.observe(lambda bs: Snapshots([n], bs))[:, -1]
    # live at a panel's start: not yet absorbed at that grid node
    starts = range(0, n, width)
    live = [np.isnan(abst) | (abst > times[k0]) if k0 else np.ones(bs, bool)
            for k0 in starts]
    assert shapes == [(int(m.sum()), min(width, n - k0))
                      for m, k0 in zip(live, starts)]
    assert len(shapes) >= 5 and shapes[-1][0] < bs // 4
    # a live path steps with its own stream's normals, a dead one with 0
    expect = np.stack([path_rng(ens.master_seed, i).standard_normal(n)
                       for i in range(bs)], axis=1)
    for m, k0 in zip(live, starts):
        expect[k0:k0 + width, ~m] = 0.0
    assert np.array_equal(seen, expect)


@pytest.mark.parametrize("split", LIVE_SPLITS)
def test_live_only_draws_change_no_result(tmp_path, monkeypatch, split):
    dense = _absorbing_ensemble(lazy=False)
    assert panel_steps(dense.n_paths, dense.n_steps) == dense.n_steps
    ref = _all_reductions(dense)
    monkeypatch.setattr(paths, "CHUNK_STEPS", split[0])
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", split[1])
    shapes = _count_draws(monkeypatch)

    def drew_fewer_than_every_path():
        # the first panel draws for every path of the block
        drawn = sum(r * c for r, c in shapes)
        full = shapes[0][0] * sum(c for _, c in shapes)
        shapes.clear()
        return drawn < 0.8 * full

    for lazy in (False, True):
        ens = _absorbing_ensemble(lazy)
        if not lazy:
            assert drew_fewer_than_every_path()
            assert np.array_equal(ens.states, dense.states)
            assert np.array_equal(ens.step_variance, dense.step_variance)
            assert np.array_equal(ens.absorption_time, dense.absorption_time,
                                  equal_nan=True)
        _assert_same(_all_reductions(ens), ref)
    for name in ("scaled_adaptive", "standard"):
        shapes.clear()
        _assert_golden_bytes(tmp_path, name)
        assert drew_fewer_than_every_path()



class _ChunkStarts:
    """Observer: records each chunk's first step; done from chunk `done_after` on."""

    def __init__(self, done_after=None):
        self.k0s, self.done_after = [], done_after

    def chunk(self, k0, states, step_variance):
        self.k0s.append(k0)
        if self.done_after is not None:
            return len(self.k0s) >= self.done_after


def test_stream_stops_once_every_observer_is_done(monkeypatch):
    # ten chunks of 40 steps, one chunk per panel
    monkeypatch.setattr(paths, "CHUNK_STEPS", 40)
    monkeypatch.setattr(paths, "PANEL_ELEMENTS", 1)
    ens = simulate_generic_sde(lambda x: 1.0 + 0.5 * np.sin(x), 0.0, 4.0, 1e-2,
                               n_paths=8, seed=3, sigma_min=0.5, sigma_max=1.5)
    recipe, shapes = ens._recipe, _count_draws(monkeypatch)
    done = _ChunkStarts(done_after=1)
    recipe.stream(0, 8, [done])
    assert done.k0s == [0] and shapes == [(8, 40)]
    # an observer that never finishes keeps the block going, and one that
    # has finished still sees every chunk
    shapes.clear()
    rest, done = _ChunkStarts(), _ChunkStarts(done_after=1)
    recipe.stream(0, 8, [rest, done])
    assert rest.k0s == done.k0s == list(range(0, 400, 40))
    assert shapes == [(8, 40)] * 10

def test_step_sums_skip_only_paths_with_a_zero_chunk():
    # 3 chunks and a part; each path's variances are 0 over some stretch
    n = 3 * CHUNK_STEPS + 17
    sv = np.random.default_rng(5).uniform(0.05, 3.0, (7, n))
    sv[0, :CHUNK_STEPS] = 0.0                  # a whole chunk, then positive
    sv[1, :CHUNK_STEPS + 10] = 0.0             # positive from inside a chunk
    sv[2, 300:] = 0.0                          # absorbed
    sv[3] = 0.0
    sv[4, :CHUNK_STEPS] = -0.0
    sv[5, CHUNK_STEPS:2 * CHUNK_STEPS] = 0.0
    sv[5, CHUNK_STEPS + 3] = np.nan            # NaN in an otherwise zero chunk
    ens = PathEnsemble.from_arrays(np.linspace(0.0, 1.0, n + 1),
                                   np.full((7, n + 1), 0.5), sv)
    fs = [xlogx, lambda s: s, lambda s: np.power(s, 1.05),
          lambda s: np.power(s, 1.5)]
    w = _step_weights(ens, 0.0)
    assert _StepSums(fs, w, 7).skip_zeros
    assert not _StepSums(fs + [integrand_reciprocal], w, 7).skip_zeros
    assert not _StepSums([integrand_specific], w, 7).skip_zeros
    for eps in (0.0, 0.4):
        w = _step_weights(ens, eps)
        sums = _step_sums(ens, fs, eps)
        for i in range(ens.n_paths):
            for j, f in enumerate(fs):
                acc = 0.0
                for c, wk in zip(f(sv[i]), w):
                    if wk > 0:
                        acc += c * wk
                assert np.float64(acc).tobytes() == sums[i, j].tobytes()
    assert np.isnan(sums[5]).all() and sums[3].tobytes() == bytes(8 * len(fs))
