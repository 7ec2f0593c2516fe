"""The package's public names: each module's ``__all__``, and the names the
benchmark's traced run wraps."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import qaexpert

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = [m.name for m in pkgutil.iter_modules(qaexpert.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qaexpert.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"qaexpert.{module}.__all__ names undefined {missing}"


def test_benchmark_spans_install_in_a_fresh_interpreter():
    # bench/spans.py wraps names it looks up in qaexpert's modules; one that
    # left them would fail here, not only in the benchmark's traced run.
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import spans; spans.Recorder().install()")
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
