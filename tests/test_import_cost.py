"""Importing the package and its CLI loads numpy alone; scipy loads only for the quadrature.

The stationary solve is a Green's-function sum in numpy; only
deterministic_divergence imports scipy (scipy.integrate), in its body.

Each check runs in a fresh interpreter, since this test process may
have imported scipy already.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import winentropy

from winentropy.entropy import deterministic_divergence, inverse_t_log_cubed

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import json, sys
def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith(("scipy.", "numpy.polynomial")))
import winentropy, winentropy.cli
seen = {"import": heavy()}
assert winentropy.cli.main(["value", "--t", "0", "--x", "0.5", "--out", sys.argv[1]]) == 0
seen["value"] = heavy()
winentropy.solve_stationary(16)
seen["stationary"] = heavy()
from winentropy.entropy import deterministic_divergence, inverse_t_log_cubed
seen["quad_value"] = deterministic_divergence(inverse_t_log_cubed(), "log_moment", 1e-3)
seen["quad"] = heavy()
print(json.dumps(seen))
"""


def test_scipy_loads_only_inside_the_functions_that_use_it(tmp_path):
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "v.json")],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["value"] == []
    assert seen["stationary"] == []
    assert "scipy.integrate" in seen["quad"]
    assert seen["quad_value"] == deterministic_divergence(inverse_t_log_cubed(),
                                                          "log_moment", 1e-3)


def test_numpy_random_loads_with_the_first_stream():
    code = ("import sys, winentropy; seen = ['numpy.random' in sys.modules]; "
            "winentropy.paths.path_rng(0, 0); print(seen + ['numpy.random' in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[False,", "True]"]


def test_every_annotation_resolves():
    # annotations are strings under `from __future__ import annotations`;
    # a name used in one but never imported fails only when it is resolved
    checked = 0
    for info in pkgutil.iter_modules(winentropy.__path__):
        mod = importlib.import_module(f"winentropy.{info.name}")
        for obj in vars(mod).values():
            if not (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    or obj.__module__ != mod.__name__:
                continue
            methods = [f for f in vars(obj).values() if inspect.isfunction(f)] \
                if inspect.isclass(obj) else []
            for target in [obj] + methods:
                typing.get_type_hints(target)
                checked += 1
    assert checked > 200
