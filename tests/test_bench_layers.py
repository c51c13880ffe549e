"""The benchmark's span tracer must find every function it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, targets in tracer.LAYERS.items()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
