"""The benchmark's span tracer must find every function it wraps, and its workloads must keep their size."""

import importlib.util
from pathlib import Path

from dodecagrid import verify
from dodecagrid.catalog import load_catalog
from dodecagrid.rules import context_from_letters
from dodecagrid.scenarios import build_horizontal_segment, build_vertical_segment

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


def test_long_track_output_checks_clean(monkeypatch):
    # the same check on two short segments: it calls verify's chain_rows, locomotive_progress
    # and one_d_violations, Trace.states_at and Scenario.segment_cells, which tier-1 must keep
    workload = _bench_sample(monkeypatch).LongTrack()
    workload.table = load_catalog()
    workload.segments = [build_vertical_segment(20), build_horizontal_segment(8, forward=False)]
    assert workload.check(workload.run()) == []


def test_verify_matrix_output_checks_clean(monkeypatch):
    workload = _bench_sample(monkeypatch).VerifyMatrix()
    workload.setup(1)
    assert workload.check(workload.run()) == []


def test_canon_sweep_output_checks_clean(monkeypatch):
    # an API smoke test on a short stream: every catalogue rule under 5 rotations, 20 sparse and 20 uniform contexts
    workload = _bench_sample(monkeypatch).CanonSweep()
    workload.SPARSE = workload.UNIFORM = 20
    workload.setup(1)
    assert workload.work() == 710
    assert workload.check(workload.run()) == []


def test_lookup_outcomes_classify_missed_contexts(monkeypatch):
    table = load_catalog()
    tracer = _bench_sample(monkeypatch).Tracer()
    tracer.missed = {
        (table, table.rules[0].context),
        (table, context_from_letters("R W W W W W W W W W W W W".split())),  # no rule, 12 blanks
        (table, context_from_letters("W R R R R R R R R R R R R".split())),  # no rule, no blanks
    }
    assert tracer.lookup_outcomes() == {"distinct": 3, "explicit": 1, "fallback": 1, "missing": 1}


def test_the_tracer_unwinds_the_track_check_aliases(monkeypatch):
    # check_segment and check_bridge are two more names for check_track, so the tracer wraps one
    # function twice and patches all three names; uninstall must hand each back the original
    original = verify.check_track
    assert verify.check_segment is verify.check_bridge is original
    tracer = _bench_sample(monkeypatch).Tracer()
    tracer.install()
    try:
        assert verify.check_track is not original
        traced = verify.verify_all()
    finally:
        tracer.uninstall()
    assert verify.check_track is verify.check_segment is verify.check_bridge is original
    for results in (traced, verify.verify_all()):
        assert len(results) == 32
        assert all(r.ok for r in results), [r.line() for r in results if not r.ok]
