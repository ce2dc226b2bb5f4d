"""The names that the benchmark's tracer replaces must exist in quadlie.

``bench/tracing.py`` wraps functions and methods of the package by their
dotted names; a renamed or deleted name would otherwise fail only a full
benchmark run.  The tracer module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

import quadlie.cli  # noqa: F401  (loads every quadlie module the names live in)

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

_NAMES = (
    [(module, path) for _, module, path in tracing.SPANS]
    + [("quadlie.appendix", gen) for gen in tracing.SHAPE_GENERATORS]
    + [tracing.YB_CHECK]
    + [("quadlie.fields", "Scalar." + op) for op in tracing.SCALAR_OPS]
)


@pytest.mark.parametrize("module, path", _NAMES, ids=[f"{m}:{p}" for m, p in _NAMES])
def test_traced_name_resolves(module, path):
    owner, attr, _ = tracing._resolve(module, path)
    assert callable(getattr(owner, attr))
