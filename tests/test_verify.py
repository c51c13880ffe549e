import pytest

from dodecagrid import rules, scenarios
from dodecagrid.catalog import golden_path, load_catalog
from dodecagrid.engine import Trace
from dodecagrid.railway import SwitchKind
from dodecagrid.rules import B, R, W
from dodecagrid.scenarios import SCENARIOS, build_bridge, build_vertical_segment
from dodecagrid.verify import (
    CheckResult,
    ca_outcome,
    check_bridge,
    check_catalog_invariance,
    check_golden,
    check_oracle_agreement,
    check_rotation_group,
    check_segment,
    locomotive_progress,
    one_d_violations,
    trace_divergence,
    verify_all,
    verify_scenario,
)


def test_rotation_group_check():
    assert check_rotation_group().ok


def test_catalog_invariance_check(catalog):
    result = check_catalog_invariance(catalog)
    assert result.ok
    assert "134" in result.detail


def test_golden_checks_pass(catalog):
    for name, entry in SCENARIOS.items():
        if not entry.is_switch:
            continue
        result = check_golden(name, entry.build().run(catalog))
        assert result.ok, name
        assert result.detail == "8 rows match"


def test_golden_check_fails_closed_on_missing_file(catalog, tmp_path):
    trace = SCENARIOS["memo-left-active"].build().run(catalog)
    with pytest.raises(FileNotFoundError):
        check_golden("memo-left-active", trace, tmp_path)


def test_golden_detail_counts_the_golden_rows(catalog, tmp_path):
    name = "memo-left-active"
    lines = golden_path(name).read_text().splitlines(keepends=True)
    header = [line for line in lines if not line.startswith("time ")]
    rows = [line for line in lines if line.startswith("time ")]
    golden_path(name, tmp_path).write_text("".join(header + rows[:5]))
    trace = SCENARIOS[name].build().run(catalog)
    result = check_golden(name, Trace(trace.cell_ids, trace.rows[:5]), tmp_path)
    assert result.line() == f"PASS  golden:{name}  (5 rows match)"


def test_trace_divergence_reports_location():
    a = Trace((1, 2), ((0, (W, B)), (1, (B, W))))
    b = Trace((1, 2), ((0, (W, B)), (1, (B, R))))
    assert trace_divergence(a, a) is None
    assert trace_divergence(a, b) == "time 1 cell 2: expected R, got W"


def test_one_d_violations_flag_bad_transition():
    rows = [(R, B, W), (W, R, W)]  # front should have advanced into cell 2
    assert one_d_violations(rows)
    good = [(R, B, W), (W, R, B)]
    assert not one_d_violations(good)


def test_locomotive_progress_flags_split_locomotive():
    rows = [(B, W, B)]
    assert locomotive_progress(rows)


def test_segment_checks(catalog):
    for scenario in (build_vertical_segment(7), build_vertical_segment(7, forward=False)):
        assert check_segment(scenario, scenario.run(catalog)).ok


def test_bridge_checks(catalog):
    for scenario in (build_bridge("v1"), build_bridge("v0", forward=False)):
        assert check_bridge(scenario, scenario.run(catalog)).ok


def test_oracle_agreement_all_modes(catalog):
    for entry in SCENARIOS.values():
        if not entry.is_switch:
            continue
        result = check_oracle_agreement(entry, entry.build().run(catalog))
        assert result.ok, result.line()


def test_verify_scenario_dispatch(catalog):
    assert verify_scenario("vertical", catalog).ok
    assert verify_scenario("bridge", catalog).ok
    assert verify_scenario("memo-left-active", catalog).ok
    assert [verify_scenario(name, catalog).name for name in ("horizontal", "bridge")] == [
        "segment:horizontal-fwd-k5",
        "bridge:v1-fwd",
    ]


def test_ca_outcome_rejects_switch_cells_in_no_idle_state(catalog):
    # a garbled controller (cell 19) leaves the sensors readable, but the
    # switch cells 17..22 match neither side's idle state
    trace = SCENARIOS["memo-left-active"].build().run(catalog)
    t, final = trace.rows[-1]
    garbled = tuple(W if cell == 19 else s for cell, s in zip(trace.cell_ids, final))
    assert garbled != final
    with pytest.raises(ValueError, match="no idle state of the memory switch"):
        ca_outcome(Trace(trace.cell_ids, trace.rows[:-1] + ((t, garbled),)), SwitchKind.MEMORY)


def test_verify_all_green():
    results = verify_all()
    assert all(r.ok for r in results)
    assert len(results) == 32


def test_verify_all_runs_each_scenario_once(monkeypatch):
    # 11 switch crossings, each read by its golden and its oracle check, and 8 track scenarios
    calls = 0
    original = scenarios.run

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(scenarios, "run", counted)
    verify_all()
    assert calls == 19


def _minimal_context_calls(monkeypatch, work) -> int:
    """``minimal_context`` calls made by ``work`` on a freshly built catalogue table."""
    calls = 0
    original = rules.minimal_context

    def counted(ctx):
        nonlocal calls
        calls += 1
        return original(ctx)

    monkeypatch.setattr(rules, "minimal_context", counted)
    load_catalog.cache_clear()
    try:
        work()
    finally:
        load_catalog.cache_clear()
    return calls


def test_catalog_invariance_reads_the_table_pass(monkeypatch):
    # one minimal form per catalogue rule builds both the index and the report
    assert _minimal_context_calls(monkeypatch, lambda: check_catalog_invariance(load_catalog())) == 134


def test_verify_all_canonicalises_each_rule_once(monkeypatch):
    # 134 catalogue rules, then the 123 distinct contexts the matrix looks up
    assert _minimal_context_calls(monkeypatch, verify_all) == 257


def test_check_result_line():
    assert CheckResult("x", True, "d").line() == "PASS  x  (d)"
    assert CheckResult("x", False).line() == "FAIL  x"
