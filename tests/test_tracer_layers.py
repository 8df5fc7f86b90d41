"""The benchmark tracer's layer table against the package's names."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_layer_resolves():
    # the tracer reports a wrapped name the package no longer has as absent
    # instead of failing, so a rename would silently drop a layer's metrics;
    # the scalar chunk engine and the alpha-moment quadrature are the names
    # already gone
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for targets, _ in tracer.LAYERS.values():
        for mod_name, attr in targets:
            mod = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
            if not callable(getattr(mod, attr, None)):
                absent.append(f"{mod_name}.{attr}")
    assert absent == ["walks._simulate_chunk_scalar", "verify._alpha_moment_quad"]
