import pytest

from dodecagrid.engine import (
    ALL_WHITE_PORTS,
    CellGraph,
    EngineError,
    FixedPort,
    GraphError,
    LinkPort,
    Trace,
    context_of,
    format_trace,
    format_trace_tsv,
    parse_trace_text,
    run,
    step,
    trace_tokens,
    uniform_configuration,
    with_states,
)
from dodecagrid.rules import B, R, RuleTable, W, context_from_letters
from dodecagrid.scenarios import SEGMENT_BUFFER, build_vertical_segment


def ports(**faces):
    from dodecagrid.rules import CellState

    row = list(ALL_WHITE_PORTS)
    for key, value in faces.items():
        face = int(key.removeprefix("f"))
        row[face] = FixedPort(value) if isinstance(value, CellState) else LinkPort(value)
    return row


def test_isolated_cell_context():
    graph = CellGraph({1: ALL_WHITE_PORTS})
    config = uniform_configuration(graph)
    assert context_of(graph, config, 1) == context_from_letters("W W W W W W W W W W W W W".split())


def test_straight_element_context_matches_conservative_row():
    graph = CellGraph({1: ports(f2=B, f5=B, f6=B, f7=B)})
    config = uniform_configuration(graph)
    assert context_of(graph, config, 1) == context_from_letters("W W W B W W B B B W W W W".split())


def test_context_reads_linked_cells():
    graph = CellGraph({1: ports(f4=2), 2: ports(f1=1)})
    config = with_states(uniform_configuration(graph), {2: B})
    assert context_of(graph, config, 1).neighbors[4] is B


def test_graph_rejects_wrong_arity():
    with pytest.raises(GraphError):
        CellGraph({1: [FixedPort(W)] * 11})


def test_graph_rejects_dangling_link():
    with pytest.raises(GraphError):
        CellGraph({1: ports(f4=2)})


def test_graph_rejects_asymmetric_link():
    with pytest.raises(GraphError):
        CellGraph({1: ports(f4=2), 2: ports(f2=3), 3: ports(f2=2)})


def test_all_white_is_fixed_point(catalog):
    graph = CellGraph({1: ports(f4=2), 2: ports(f1=1)})
    config = uniform_configuration(graph)
    after = step(graph, config, catalog)
    assert after.time == 1
    assert all(s is W for s in after.states.values())


def test_step_is_synchronous(catalog):
    scenario = build_vertical_segment(5)
    forward = run(scenario.graph, scenario.initial, catalog, 6)
    # rebuild the same graph with reversed cell insertion order
    reordered = CellGraph({c: scenario.graph.ports(c) for c in reversed(scenario.graph.cell_ids)})
    backward = run(reordered, scenario.initial, catalog, 6)
    assert backward.cell_ids == tuple(reversed(forward.cell_ids))
    assert all(forward.states_at(t) == backward.states_at(t) for t in range(7))


def test_run_deterministic(catalog):
    scenario = build_vertical_segment(5)
    a = run(scenario.graph, scenario.initial, catalog, 7)
    b = run(scenario.graph, scenario.initial, catalog, 7)
    assert a == b


def test_front_advances_one_cell_per_step(catalog):
    scenario = build_vertical_segment(7)
    trace = scenario.run(catalog, 1)
    t0 = trace.states_at(0)
    t1 = trace.states_at(1)
    front0 = next(c for c, s in t0.items() if s is B)
    assert t1[front0 + 1] is B
    assert t1[front0] is R


def test_run_zero_steps(catalog):
    scenario = build_vertical_segment(4)
    trace = scenario.run(catalog, 0)
    assert len(trace.rows) == 1
    assert trace.rows[0][0] == 0


def test_run_past_modelled_region_raises(catalog):
    # the lone rear left behind once the front walks off the modelled region
    # has no covering rule; the error names the cell and the step
    scenario = build_vertical_segment(3, buffer=0)
    with pytest.raises(EngineError) as err:
        scenario.run(catalog, 5)
    assert err.value.cell == 3
    assert err.value.time == 2


def test_format_trace_tokens(catalog):
    graph = CellGraph({1: ALL_WHITE_PORTS, 2: ALL_WHITE_PORTS})
    config = with_states(uniform_configuration(graph), {1: B})
    trace = run(graph, config, RuleTable([]), 1)
    text = format_trace(trace)
    assert trace_tokens(text) == ["1", "2", "time", "0", ":", "B", "W", "time", "1", ":", "B", "W"]


def test_format_empty_trace_header_only():
    trace = Trace((1, 2, 3), ())
    assert trace_tokens(format_trace(trace)) == ["1", "2", "3"]


def test_tsv_emission():
    trace = Trace((1, 2), ((0, (B, W)),))
    assert format_trace_tsv(trace) == "time\t1\t2\n0\tB\tW\n"


def test_parse_trace_round_trip(catalog):
    scenario = build_vertical_segment(4)
    trace = scenario.run(catalog, 3)
    again = parse_trace_text(format_trace(trace))
    assert again == trace


def test_trace_column(catalog):
    scenario = build_vertical_segment(4)
    trace = scenario.run(catalog, 2)
    front_start = scenario.track_cells[SEGMENT_BUFFER + 1]
    assert trace.column(front_start)[0] is B
