"""Spans around calls into the library's layers, recorded from outside.

A `Tracer` wraps public functions of the library's modules (and the
public functions the library calls internally, such as
`draw_block_normals` as `wright_fisher` sees it and `dp_step` as
`solve_dp` sees it) by replacing the module or class attribute for the
duration of a traced round.  Each call records one span: an id, the id
of its parent span, a name, the thread, a start, an end and an optional
count (normals returned, bytes written or read, rows written).  Spans
are kept in memory and written out when the run ends.

A span's parent is the innermost open span of the same thread; a span
opened on a worker thread with nothing open on it hangs under the
innermost open span of the thread that created the tracer, which is the
`reduce_paths` call that started the pool.
"""

from __future__ import annotations

import csv
import itertools
import os
import threading
import time
from collections import defaultdict

from winentropy import (cli, closed_form, entropy, multidim, paths, pde,
                        wright_fisher)


def _n_items(result, args):
    return result.size


def _file_size_arg(i):
    return lambda result, args: os.path.getsize(args[i])


def _csv_rows(result, args):
    return args[0].n_paths * args[0].n_times


# (owner, attribute, span name, count) for every wrapped function
TRACED = (
    (wright_fisher, "draw_block_normals", "paths.draw_block_normals", _n_items),
    (multidim, "draw_block_normals", "paths.draw_block_normals", _n_items),
    (paths.PathEnsemble, "reduce_paths", "paths.reduce_paths", None),
    (paths.PathEnsemble, "to_csv", "paths.to_csv", _csv_rows),
    (paths.PathEnsemble, "to_binary", "paths.to_binary", _file_size_arg(1)),
    (paths.PathEnsemble, "from_binary", "paths.from_binary", _file_size_arg(1)),
    (wright_fisher, "simulate_scaled_wf", "wright_fisher.simulate_scaled_wf", None),
    (wright_fisher, "sigma_martingale_check", "wright_fisher.sigma_martingale_check", None),
    (wright_fisher, "reciprocity_check", "wright_fisher.reciprocity_check", None),
    (entropy, "p_quotient_profile", "entropy.p_quotient_profile", None),
    (entropy, "reciprocal_entropy_estimate", "entropy.reciprocal_entropy_estimate", None),
    (pde, "solve_dp", "pde.solve_dp", None),
    (pde, "dp_step", "pde.dp_step", None),
    (pde, "solve_stationary", "pde.solve_stationary", None),
    (closed_form, "hjb_residual", "closed_form.hjb_residual", None),
    (multidim, "simulate_simplex_wf", "multidim.simulate_simplex_wf", None),
    (multidim, "md_reciprocal_entropy", "multidim.md_reciprocal_entropy", None),
    (multidim, "scalar_view", "multidim.scalar_view", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; `install` wraps the layers, `uninstall` restores them."""

    def __init__(self):
        # (id, parent, name, thread, start, end, count)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn, *args, count=None, **kwargs):
        """Call fn inside a span named name; count(result, args) fills its count."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        n = count(result, args) if count is not None else 0
        self.spans.append((sid, parent, name, threading.get_ident(), start, end, n))
        return result

    def install(self) -> None:
        for owner, attr, name, count in TRACED:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw

            def wrapper(*args, _fn=fn, _name=name, _count=count, **kwargs):
                return self.run(_name, _fn, *args, count=_count, **kwargs)

            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "thread", "start_s", "end_s", "count"])
            w.writerows(self.spans)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Totals over a set of spans, by name, and time covered by descendants."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)
            self.children[s[1]].append(s)

    def seconds(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def count(self, name: str) -> int:
        return sum(s[6] for s in self.by_name[name])

    def descendants(self, span, name):
        out, todo = [], [span[0]]
        while todo:
            for c in self.children[todo.pop()]:
                todo.append(c[0])
                if c[2] == name:
                    out.append(c)
        return out

    def self_seconds(self, name: str, child_name=None) -> float:
        """Duration of every span named name, less the time its children
        (or its descendants named child_name) cover."""
        total = 0.0
        for s in self.by_name[name]:
            kids = self.children[s[0]] if child_name is None else self.descendants(s, child_name)
            total += (s[5] - s[4]) - _union_length(
                (max(k[4], s[4]), min(k[5], s[5])) for k in kids)
        return total


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(round_spans, n_rounds: int, path_steps: int, probe_spans) -> dict:
    """Per-layer metrics: per-round totals from the traced rounds, and
    throughputs from the probes.  A layer the workload does not use reads 0."""
    r = SpanIndex(round_spans)
    p = SpanIndex(probe_spans)
    per = 1.0 / n_rounds
    draw = "paths.draw_block_normals"
    sweep_s = p.seconds("probe.simulate_sweep")
    return {
        "paths.draw_block_normals.s": r.seconds(draw) * per,
        "paths.draw_block_normals.normals_per_s": _ratio(r.count(draw), r.seconds(draw)),
        "paths.normals_drawn": r.count(draw) * per,
        "paths.regeneration_factor": _ratio(r.count(draw) * per, path_steps),
        "paths.reduce_paths.s": r.seconds("paths.reduce_paths") * per,
        "paths.to_csv.rows_per_s": _ratio(r.count("paths.to_csv"), r.seconds("paths.to_csv")),
        "paths.to_binary.mb_per_s": _ratio(r.count("paths.to_binary") / 1e6,
                                           r.seconds("paths.to_binary")),
        "paths.from_binary.mb_per_s": _ratio(r.count("paths.from_binary") / 1e6,
                                             r.seconds("paths.from_binary")),
        "wright_fisher.simulate.path_steps_per_s": _ratio(p.count("probe.simulate_sweep"),
                                                          sweep_s),
        "wright_fisher.step_loop.s": p.self_seconds("probe.simulate_sweep", draw),
        "wright_fisher.sigma_martingale_check.s":
            r.seconds("wright_fisher.sigma_martingale_check") * per,
        "wright_fisher.reciprocity_check.s": r.seconds("wright_fisher.reciprocity_check") * per,
        "entropy.p_quotient_profile.s": r.seconds("entropy.p_quotient_profile") * per,
        "entropy.reduce.path_steps_per_s": _ratio(p.count("probe.block_reduce"),
                                                  p.seconds("probe.block_reduce")),
        "pde.dp_step.us": _ratio(r.seconds("pde.dp_step") * 1e6, r.calls("pde.dp_step")),
        "pde.dp_step.calls": r.calls("pde.dp_step") * per,
        "pde.solve_dp.s": r.seconds("pde.solve_dp") * per,
        "pde.solve_stationary.s": r.seconds("pde.solve_stationary") * per,
        "closed_form.hjb_residual.s": r.seconds("closed_form.hjb_residual") * per,
        "multidim.simulate_simplex_wf.s": r.seconds("multidim.simulate_simplex_wf") * per,
        "multidim.md_reciprocal_entropy.s": r.seconds("multidim.md_reciprocal_entropy") * per,
        "cli.main.s": r.seconds("cli.main") * per,
        "cli.overhead.s": r.self_seconds("cli.main") * per,
    }
