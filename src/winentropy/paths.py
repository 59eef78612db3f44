"""Containers for simulated martingale paths.

All simulators in this package produce ensembles of paths on one shared,
deterministic time grid; a state is a scalar, or a d-vector (x0.shape)
for the simplex WF.  Per-path randomness comes from a counter-based
generator keyed by (master_seed, path_index), so the same seed
reproduces the same ensemble bit for bit, no matter how the paths are
partitioned into blocks or how many worker processes reduce them.

An ensemble holds a recipe that streams each block of paths through
observers, time-major, one chunk of at most CHUNK_STEPS steps at a time.
A simulator's recipe steps the paths: while a block is stepped, it holds
one panel of the block's normals (a whole number of chunks, about
PANEL_ELEMENTS values) and one chunk of states and step variances, and
an observer keeps only what it reduces to (per-path sums, snapshots at
chosen grid nodes).  A counter-based stream gives the same normals
however its draws are cut, so the panel width never changes a result.
A path absorbed before a panel starts draws no normals in it, and a
reduction skips a path's chunk whose variances are all 0, since an
absorbed path's state and integrals no longer change.  Paths read from
a file, built by from_arrays or materialized (as the simplex WF returns
them) are held as arrays, whose recipe replays them in the same chunks.
Full (paths, steps) arrays exist only where a caller asks for them:
materialize, iter_blocks, the exporters and user functions given to
reduce_paths.
"""

from __future__ import annotations

import functools
import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

ENSEMBLE_MAGIC = b"WMEN"
ENSEMBLE_FORMAT_VERSION = 1

DEFAULT_BLOCK_SIZE = 8192
# materialize refuses more state coordinates + step variances than this
DENSE_ELEMENT_LIMIT = 240_000_000
# a time-major chunk handed to observers spans at most CHUNK_STEPS steps,
# and fewer in wide blocks, so one chunk buffer holds about CHUNK_ELEMENTS
# values
CHUNK_STEPS = 256
CHUNK_ELEMENTS = 1 << 16
# a block draws its normals into one (bs, P) panel at a time, P a whole
# number of chunks, so the panel holds about PANEL_ELEMENTS values
PANEL_ELEMENTS = 1 << 21

_MAX_WORKERS = None


class NumericalError(RuntimeError):
    """A computation failed numerically (CLI exit code 3)."""


def set_max_workers(n: Optional[int]) -> None:
    """Cap the number of worker processes used for block reductions (None = env/1)."""
    global _MAX_WORKERS
    _MAX_WORKERS = n


def get_max_workers() -> int:
    if _MAX_WORKERS is not None:
        return max(1, int(_MAX_WORKERS))
    env = os.environ.get("WINENTROPY_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


@functools.cache
def _philox_key_type():
    """A seed sequence that hands Philox a given key: Philox(key=k) would first gather OS entropy.

    Built on first use, so that importing the package does not load
    numpy.random.  The generator keeps its seed sequence, so this one
    lets go of the key once it has handed it over.
    """
    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            key, self.key = self.key, None
            return key

    return PhiloxKey


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based RNG stream for one path, keyed by (seed, index).

    The same stream as Generator(Philox(key=[master_seed, path_index])).
    """
    if not 0 <= master_seed < (1 << 64):
        raise ValueError("seed must fit in 64 bits")
    key = np.array([master_seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


def _one_shot_streams(master_seed: int, lo: int, hi: int):
    """Yield path_rng(master_seed, i), i = lo..hi-1, as one generator re-keyed in turn.

    Draw each stream in full before asking for the next; draw_block_normals does.
    """
    rng = path_rng(master_seed, lo)
    state = rng.bit_generator.state     # counter 0, empty buffer: only the key differs
    for i in range(lo, hi):
        state["state"]["key"][1] = i
        rng.bit_generator.state = state
        yield rng


def draw_block_normals(streams, out: np.ndarray) -> np.ndarray:
    """Fill row j of out with the next standard normals of streams[j]; returns out.

    Each path draws from its own stream (path_rng) strictly in order, so
    cutting a path's normals into several panels gives the same values.
    """
    for rng, row in zip(streams, out, strict=True):
        rng.standard_normal(out=row)
    return out


@dataclass(frozen=True)
class StepPolicy:
    """Time stepping for simulations on [t0, 1).

    The scaled Wright-Fisher volatility grows like 1/(1-t), so adaptive
    policies shrink the step near t=1: dt(t) = min(base_dt, shrink*(1-t)).
    """

    base_dt: float = 1e-3
    adaptive: bool = True
    shrink: float = 0.1

    def __post_init__(self):
        if not (self.base_dt > 0):
            raise ValueError("base_dt must be positive")
        if self.adaptive and not (self.shrink > 0):
            raise ValueError("shrink must be positive")

    def dt_at(self, t: float) -> float:
        if self.adaptive:
            return min(self.base_dt, self.shrink * (1.0 - t))
        return self.base_dt

    def time_grid(self, t0: float, t_end: float) -> np.ndarray:
        """Strictly increasing grid from t0 to t_end, final step truncated."""
        if not -np.inf < t0 < t_end < np.inf:
            raise ValueError("need finite t0 < t_end")
        ts = [t0]
        t = t0
        while True:
            dt = self.dt_at(t)
            if dt <= 0:
                raise NumericalError("step policy produced a nonpositive dt")
            if t + dt >= t_end - 1e-15:
                break
            t += dt
            ts.append(t)
        ts.append(t_end)
        return np.asarray(ts)


# accuracy policy used by the acceptance suite for the scaled diffusion,
# tighter than the defaults; its clip bias is not below Monte Carlo noise:
# +6.3e-4 (5.3 se over 1,048,576 paths at x0 = 1/2, eps = 1e-4; ROADMAP item 16)
ACCURATE_POLICY = StepPolicy(base_dt=1.25e-4, adaptive=True, shrink=0.01)


# Observers.  A block of paths reaches an observer as consecutive chunks
# in time order: chunk(k0, states, step_variance) gets the states at grid
# nodes k0..k0+T as a (T+1, bs) array and the variances of steps
# k0..k0+T-1 as a (T, bs) array, both buffers the caller reuses.  chunk
# may return True once it needs no later chunk: a recipe stops after the
# chunk for which every observer did, and each sees every chunk up to it.
# Then result(absorption_time, times) returns the block's rows, one per
# path; a path whose absorption the recipe did not reach reads NaN there.

class Snapshots:
    """States at chosen grid nodes, then the absorption time: (bs, len(nodes)+1).

    A recipe stops after the chunk that holds the last node; later absorptions read NaN.
    """

    def __init__(self, nodes, bs: int):
        self.nodes = [int(k) for k in nodes]
        self.values = np.empty((bs, len(self.nodes) + 1))

    def chunk(self, k0, states, step_variance):
        for j, k in enumerate(self.nodes):
            if k0 <= k < k0 + len(states):
                self.values[:, j] = states[k - k0]
        return max(self.nodes, default=np.inf) < k0 + len(states)

    def result(self, absorption_time, times):
        last = times[max(self.nodes, default=-1)]
        self.values[:, -1] = np.where(absorption_time > last, np.nan, absorption_time)
        return self.values


def chunk_steps(bs: int, n_steps: int) -> int:
    """Steps per time-major chunk for a block of bs paths."""
    return max(1, min(CHUNK_STEPS, CHUNK_ELEMENTS // bs, n_steps))


def panel_steps(bs: int, n_steps: int) -> int:
    """Steps per normals panel for a block of bs paths: whole chunks, at least one."""
    t_chunk = chunk_steps(bs, n_steps)
    return min(n_steps, max(1, PANEL_ELEMENTS // (bs * t_chunk)) * t_chunk)


class _Stored:
    """Paths lo..hi-1 held as arrays, NaN absorption times where never absorbed.

    states is (hi-lo, n_times) + x0's shape, step_variance (hi-lo, n_steps).
    It is the block that iter_blocks and reduce_paths hand out; as an
    observer (chunk) it copies a recipe's chunks into its arrays; as the
    recipe of a stored ensemble (lo = 0, stream) it hands its rows to
    observers in the recipe's chunks and keeps the recipe's stop rule.
    """

    def __init__(self, times, lo, hi, states, step_variance, absorption_time):
        self.times, self.lo, self.hi = times, lo, hi
        self.states = states
        self.step_variance = step_variance
        self.absorption_time = absorption_time

    def rows(self, i, j) -> "_Stored":
        """Its rows i..j-1, paths self.lo+i..self.lo+j-1, as views."""
        return _Stored(self.times, self.lo + i, self.lo + j, self.states[i:j],
                       self.step_variance[i:j], self.absorption_time[i:j])

    def chunk(self, k0, states, step_variance):
        self.states[:, k0:k0 + len(states)] = states.swapaxes(0, 1)
        self.step_variance[:, k0:k0 + len(step_variance)] = step_variance.T

    def stream(self, lo, hi, observers) -> np.ndarray:
        n_steps = len(self.times) - 1
        t_chunk = chunk_steps(self.states[lo:hi, 0].size, n_steps)
        for k0 in range(0, n_steps, t_chunk):
            k1 = min(k0 + t_chunk, n_steps)
            st = np.ascontiguousarray(self.states[lo:hi, k0:k1 + 1].swapaxes(0, 1))
            sv = np.ascontiguousarray(self.step_variance[lo:hi, k0:k1].T)
            if all([obs.chunk(k0, st, sv) for obs in observers]):
                break
        return self.absorption_time[lo:hi]


class PathEnsemble:
    """A seeded collection of sample paths sharing one time grid.

    It holds a recipe, whose stream(lo, hi, observers) hands paths
    lo..hi-1 to the observers chunk by chunk and returns their absorption
    times: a simulator's stepping recipe, or the arrays (_Stored) that
    from_arrays, from_binary and materialize hold.  All reductions are
    computed per path and assembled in path order, so results do not
    depend on block size, storage or worker count.
    """

    def __init__(self, times, n_paths, master_seed, scheme, x0, t0, eps, recipe):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("times must be a 1-d grid with at least 2 nodes")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.n_paths = int(n_paths)
        if self.n_paths <= 0:
            raise ValueError("ensemble needs at least one path")
        self.master_seed = int(master_seed)
        self.scheme = str(scheme)
        self.x0 = x0
        self.t0 = float(t0)
        self.eps = float(eps)
        self._recipe = recipe

    # -- basic geometry -------------------------------------------------

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def is_materialized(self) -> bool:
        return isinstance(self._recipe, _Stored)

    # (n_paths, n_times) + x0's shape, (n_paths, n_steps) and (n_paths,);
    # reading any of them materializes
    states = property(lambda self: self.materialize()._recipe.states)
    step_variance = property(lambda self: self.materialize()._recipe.step_variance)
    absorption_time = property(lambda self: self.materialize()._recipe.absorption_time)

    # -- block access ----------------------------------------------------

    def _default_block_size(self) -> int:
        # a block stored by iter_blocks (the exporters) keeps its states
        # and its step variances near or below 33M doubles each; a
        # streamed block holds one normals panel whatever its size
        cap = int(33_000_000 // max(1, self.n_steps))
        return max(256, min(DEFAULT_BLOCK_SIZE, cap))

    def _ranges(self, workers: int = 1) -> list:
        # w workers sweep at least w blocks, of 256 paths or more
        bs = min(self._default_block_size(), max(256, -(-self.n_paths // workers)))
        return [(lo, min(lo + bs, self.n_paths)) for lo in range(0, self.n_paths, bs)]

    def _get_block(self, lo: int, hi: int) -> _Stored:
        if self.is_materialized:
            return self._recipe.rows(lo, hi)    # views: the export read-back copies nothing
        n = hi - lo
        if (1 + np.size(self.x0)) * n * self.n_times > DENSE_ELEMENT_LIMIT:
            raise MemoryError("ensemble too large to materialize; "
                              "use iter_blocks/reduce_paths")
        blk = _Stored(self.times, lo, hi, np.empty((n, self.n_times) + np.shape(self.x0)),
                      np.empty((n, self.n_steps)), np.empty(n))
        # materialize asks for all paths at once; they are stepped in blocks
        bs = self._default_block_size()
        for i in range(0, n, bs):
            part = blk.rows(i, min(i + bs, n))
            part.absorption_time[:] = self._recipe.stream(part.lo, part.hi, [part])
        return blk

    def iter_blocks(self) -> Iterator[_Stored]:
        for lo, hi in self._ranges():
            yield self._get_block(lo, hi)

    def _map_blocks(self, work: Callable[[int, int], np.ndarray]) -> np.ndarray:
        """work(lo, hi) for every block, assembled into one row per path.

        With w > 1 workers, the blocks go round-robin to w groups: the
        caller runs group 0, a forked child (_fork_group) each other one,
        as threads would take turns on the GIL.  Each block's rows keep
        their path range, so the partition cannot change the result.
        """
        import pickle
        w = get_max_workers()
        ranges = self._ranges(w)
        w = min(w, len(ranges))
        children, parts = [], [None] * len(ranges)
        try:
            for g in range(1, w):
                children.append(_fork_group(work, ranges[g::w]))
            parts[::w] = [np.asarray(work(*r)) for r in ranges[::w]]
            for g, (pid, pipe) in enumerate(children, 1):
                data = pipe.read()
                rows = pickle.loads(data) if data else ChildProcessError(
                    f"worker process {pid} ended without its rows")
                if isinstance(rows, Exception):
                    raise rows
                parts[g::w] = rows
        finally:
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, 9)     # SIGKILL; a child read to its end has exited
                os.waitpid(pid, 0)
        return np.concatenate(parts)

    def reduce_paths(self, fn: Callable[[_Stored], np.ndarray]) -> np.ndarray:
        """Apply fn to each full block, assembling one row per path.

        fn returns an array whose leading axis is the block's path axis.
        """
        return self._map_blocks(lambda lo, hi: fn(self._get_block(lo, hi)))

    def observe(self, make_observer: Callable[[int], object]) -> np.ndarray:
        """Stream every block through make_observer(bs); one result row per path.

        A block is never stored whole for this: a stepping recipe hands
        over its chunk buffers, stored paths time-major slices of them.
        """
        def work(lo, hi):
            obs = make_observer(hi - lo)
            return obs.result(self._recipe.stream(lo, hi, [obs]), self.times)

        return self._map_blocks(work)

    def materialize(self) -> "PathEnsemble":
        self._recipe = self._get_block(0, self.n_paths)
        return self

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_arrays(cls, times, states, step_variance, absorption_time=None,
                    master_seed=0, scheme="synthetic", x0=None, t0=None,
                    eps=0.0):
        times = np.asarray(times, dtype=float)
        states = np.atleast_2d(np.asarray(states, dtype=float))
        step_variance = np.atleast_2d(np.asarray(step_variance, dtype=float))
        n = len(states)
        abst = (np.full(n, np.nan) if absorption_time is None
                else np.asarray(absorption_time, dtype=float))
        if n == 0:
            raise ValueError("ensemble needs at least one path")
        if states.shape[:2] != (n, times.size):
            raise ValueError("states shape does not match grid")
        if step_variance.shape != (n, times.size - 1):
            raise ValueError("step_variance shape does not match grid")
        if abst.shape != (n,):
            raise ValueError("absorption_time needs one entry per path")
        return cls(times, n, master_seed, scheme,
                   float(states[0, 0]) if x0 is None else x0,
                   times[0] if t0 is None else t0, eps,
                   _Stored(times, 0, n, states, step_variance, abst))

    # -- serialization ----------------------------------------------------

    def to_csv(self, path_or_file) -> None:
        """Columnar CSV (path_id, t, x, sigma_sq) as csv.writer writes it; 17 digits.

        sigma_sq on a row is the variance used on the step starting at
        that row's t; the final grid time carries 0.
        """
        if np.ndim(self.x0):    # refused before open, so no partial file is left
            raise ValueError("to_csv writes scalar paths only")
        rows = [f"%d,{t:.17g},%.17g,%.17g\r\n" for t in self.times.tolist()]
        # one write per 128 rows: writing a whole path's text at once raised peak RSS
        parts = [(k, "".join(rows[k:k + 128])) for k in range(0, len(rows), 128)]
        own = isinstance(path_or_file, (str, os.PathLike))
        with open(path_or_file, "w", newline="") if own else nullcontext(path_or_file) as fh:
            fh.write("path_id,t,x,sigma_sq\r\n")
            vals = np.zeros((self.n_times, 3))   # path_id (an exact double), x, sigma_sq
            for blk in self.iter_blocks():
                for j in range(blk.hi - blk.lo):
                    vals[:, 0], vals[:, 1] = blk.lo + j, blk.states[j]
                    vals[:-1, 2] = blk.step_variance[j]
                    for k, part in parts:
                        fh.write(part % tuple(vals[k:k + 128].ravel().tolist()))

    def to_binary(self, path) -> None:
        """Compact binary layout.

        Header: magic "WMEN", u32 version, u32 n_paths, u32 n_times,
        u64 master_seed, f64 x0, f64 t0, f64 eps, u32 scheme length,
        scheme utf-8.  Payload: times as f64[n_times], then per path
        states f64[n_times], step variances f64[n_times-1] and the
        absorption time as one f64 (NaN when never absorbed).  All
        integers and doubles little-endian.
        """
        if np.ndim(self.x0):
            raise ValueError("to_binary writes scalar paths only")
        x0s = float(self.x0)
        scheme_b = self.scheme.encode("utf-8")
        rec = _record_dtype(self.n_times)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(ENSEMBLE_MAGIC, ENSEMBLE_FORMAT_VERSION,
                                  self.n_paths, self.n_times,
                                  self.master_seed % (1 << 64), x0s, self.t0,
                                  self.eps, len(scheme_b)))
            fh.write(scheme_b)
            fh.write(self.times.astype("<f8").tobytes())
            for blk in self.iter_blocks():
                out = np.empty(blk.hi - blk.lo, dtype=rec)
                out["states"] = blk.states
                out["step_variance"] = blk.step_variance
                out["absorption"] = blk.absorption_time
                out.tofile(fh)

    @classmethod
    def from_binary(cls, path) -> "PathEnsemble":
        """Read a to_binary file; ValueError if it is not one, or is cut short."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise ValueError(f"ensemble file truncated: {size} bytes, "
                                 f"shorter than the {_HEADER.size}-byte header")
            (magic, version, n_paths, n_times, seed, x0, t0, eps,
             slen) = _HEADER.unpack(fh.read(_HEADER.size))
            if magic != ENSEMBLE_MAGIC:
                raise ValueError("not an ensemble file (bad magic)")
            if version != ENSEMBLE_FORMAT_VERSION:
                raise ValueError(f"unsupported ensemble format version {version}")
            if n_paths < 1 or n_times < 2:
                raise ValueError(f"ensemble header declares {n_paths} paths and "
                                 f"{n_times} times; need at least 1 and 2")
            expect = _HEADER.size + slen + 8 * n_times + n_paths * 16 * n_times
            if size != expect:
                raise ValueError(
                    f"ensemble file is {size} bytes, but its header "
                    f"({n_paths} paths x {n_times} times) implies {expect}: "
                    + ("truncated" if size < expect else "trailing bytes"))
            scheme = fh.read(slen).decode("utf-8")
            times = np.fromfile(fh, dtype="<f8", count=n_times)
            rec = np.fromfile(fh, dtype=_record_dtype(n_times), count=n_paths)
        return cls(times, n_paths, seed, scheme, x0, t0, eps, _Stored(
            times, 0, n_paths, rec["states"], rec["step_variance"], rec["absorption"]))


def _fork_group(work, ranges):
    """(pid, read end) of a forked child that pickles [work(lo, hi) for ranges] into a pipe.

    An exception is pickled in place of the rows; the child never returns.
    """
    import pickle
    rfd, wfd = os.pipe()
    reader = open(rfd, "rb")
    with open(wfd, "wb") as pipe:   # so the caller's write end closes, even if fork fails
        pid = os.fork()
        if pid:
            return pid, reader
        try:
            try:
                rows = [np.asarray(work(*r)) for r in ranges]
            except Exception as exc:
                rows = exc
            pipe.write(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
            pipe.flush()    # nothing, if rows do not pickle; os._exit flushes nothing
        finally:
            os._exit(0)


# magic, version, n_paths, n_times, master_seed, x0, t0, eps, scheme length
_HEADER = struct.Struct("<4sIIIQdddI")


def _record_dtype(n_times: int) -> np.dtype:
    """One path of the binary payload."""
    return np.dtype([("states", "<f8", (n_times,)),
                     ("step_variance", "<f8", (n_times - 1,)),
                     ("absorption", "<f8")])


def constant_variance_ensemble(sigma_sq, n_steps=100, n_paths=4,
                               t0=0.0, t_end=1.0) -> PathEnsemble:
    """Deterministic ensemble with constant instantaneous variance."""
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    times = np.linspace(t0, t_end, n_steps + 1)
    states = np.full((n_paths, n_steps + 1), 0.5)
    stepvar = np.full((n_paths, n_steps), float(sigma_sq))
    return PathEnsemble.from_arrays(times, states, stepvar,
                                    scheme=f"constant({sigma_sq})", eps=0.0)


def piecewise_constant_ensemble(times, sigma_sq_steps, n_paths=4) -> PathEnsemble:
    """Deterministic ensemble with a shared piecewise-constant variance."""
    times = np.asarray(times, dtype=float)
    sv = np.asarray(sigma_sq_steps, dtype=float)
    if sv.ndim != 1 or len(sv) != len(times) - 1:
        raise ValueError("need one variance per step")
    if np.any(sv < 0):
        raise ValueError("variances must be nonnegative")
    states = np.full((n_paths, len(times)), 0.5)
    stepvar = np.tile(sv, (n_paths, 1))
    return PathEnsemble.from_arrays(times, states, stepvar,
                                    scheme="piecewise_constant", eps=0.0)
