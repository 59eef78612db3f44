"""The benchmark's traced run wraps library attributes by name.

`benchmarks/tracing.py` replaces each `(owner, attr)` in its `TRACED`
table for the traced rounds, and `Tracer.install` raises if one is
gone, so a refactor that renames or moves one of them would break
`benchmarks/run.py --trace 1`.  The module is imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path


TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_attribute_exists():
    traced = _tracing().TRACED
    assert traced
    for owner, attr, name, _ in traced:
        found = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        assert callable(found) or isinstance(found, classmethod), \
            f"{owner.__name__}.{attr} (span {name}) is gone"


def test_tracer_installs_and_restores():
    mod = _tracing()
    before = [(o, a, (o.__dict__ if isinstance(o, type) else vars(o))[a])
              for o, a, _, _ in mod.TRACED]
    tracer = mod.Tracer()
    tracer.install()
    try:
        assert all((o.__dict__ if isinstance(o, type) else vars(o))[a] is not raw
                   for o, a, raw in before)
    finally:
        tracer.uninstall()
    for o, a, raw in before:
        assert (o.__dict__ if isinstance(o, type) else vars(o))[a] is raw


WORKLOADS = TRACING.with_name("workloads.py")


def test_every_workload_passes_its_checks_at_small_size(tmp_path):
    # the benchmark reads ensembles, scalar_view and the exporters through
    # this interface; one round of each workload at the self-test's size
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod      # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
        for name in mod.WORKLOADS:
            wl = mod.make(name, 0, str(tmp_path / name), small=True)
            out = wl.calls(lambda fn: fn())
            assert wl.check(out).failed == [], name
    finally:
        del sys.modules[spec.name]
