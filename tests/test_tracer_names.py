"""The benchmark tracer finds every function it wraps.

``benchmarks/tracing.py`` looks up each traced function by name, as an
attribute of its ``omzd`` module.  A rename or removal in the library
would otherwise show only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("omzd_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TRACED = [
    f"{mod}.{fn}"
    for table in (_tracing.SPANNED, _tracing.COUNTED)
    for mod, fns in table.items()
    for fn in fns
]


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"omzd.{mod}"), fn, None)), name
