"""The benchmark's tracer patches privflow functions by name; a refactor
that drops one of those names must fail here, not in a traced benchmark
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("privflow_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, attrs in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
