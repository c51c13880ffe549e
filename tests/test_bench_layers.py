"""The benchmark's span tracer must find every function it wraps, and its workloads must keep their size."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _bench_sample(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # sample.py imports its sibling tracer.py by name
    import sample

    return sample


def test_long_track_cell_steps_unchanged(monkeypatch):
    # long-track/ops_per_s divides by this count: 1010 cells x 1003 steps + 410 cells x 403 steps
    workload = _bench_sample(monkeypatch).LongTrack()
    workload.setup(1)
    assert workload.work() == 1_178_260


def test_verify_matrix_output_checks_clean(monkeypatch):
    workload = _bench_sample(monkeypatch).VerifyMatrix()
    workload.setup(1)
    assert workload.check(workload.run()) == []
