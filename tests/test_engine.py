import gc
import hashlib
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dodecagrid import engine, rules, scenarios
from dodecagrid.catalog import default_golden_dir, default_rules_dir
from dodecagrid.engine import (
    CellGraph,
    Configuration,
    ConfigurationError,
    EngineError,
    GraphError,
    Trace,
    TraceFormatError,
    chain_ids,
    context_of,
    format_trace,
    format_trace_tsv,
    parse_trace_text,
    run,
    step,
    trace_tokens,
    uniform_configuration,
)
from dodecagrid.geometry import enumerate_motions
from dodecagrid.rules import (
    B,
    CellState,
    Context,
    R,
    RuleTable,
    W,
    context_from_letters,
    load_rule_dir,
    minimal_context,
)
from dodecagrid.scenarios import (
    SCENARIOS,
    SEGMENT_BUFFER,
    build_bridge,
    build_corner,
    build_horizontal_segment,
    build_straight_element,
    build_vertical_segment,
)
from dodecagrid.verify import verify_all

ALL_WHITE = (W,) * 12
PLAIN, RAMP, CORNER = build_straight_element((1, 4)), build_straight_element((1, 3)), build_corner()
STATES = st.sampled_from(CellState)


def wired(**faces):
    """A cell's ``(fixed, links)``: ``f2=B`` fixes face 2 at B, ``f4=2`` links face 4 to cell 2."""
    fixed, links = list(ALL_WHITE), {}
    for key, value in faces.items():
        face = int(key.removeprefix("f"))
        if isinstance(value, CellState):
            fixed[face] = value
        else:
            links[face] = value
    return fixed, links


def wiring_of(graph):
    return {cell: graph.wiring(cell) for cell in graph.cell_ids}


def with_states(config, overrides):
    """``config`` with the states of ``overrides`` laid over its own, at the same time."""
    return Configuration({**config.states, **overrides}, config.time)


def rotated_wiring(wiring, p):
    """A cell's wiring with each face ``f`` showing what face ``p[f]`` showed."""
    fixed, links = wiring
    return tuple(fixed[p[f]] for f in range(12)), {p.index(face): target for face, target in links}


def test_isolated_cell_context():
    graph = CellGraph({1: (ALL_WHITE, {})})
    config = uniform_configuration(graph)
    assert context_of(graph, config, 1) == context_from_letters("W W W W W W W W W W W W W".split())


def test_straight_element_context_matches_conservative_row():
    graph = CellGraph({1: wired(f2=B, f5=B, f6=B, f7=B)})
    config = uniform_configuration(graph)
    assert context_of(graph, config, 1) == context_from_letters("W W W B W W B B B W W W W".split())


def test_context_reads_linked_cells():
    graph = CellGraph({1: wired(f4=2), 2: wired(f1=1)})
    config = with_states(uniform_configuration(graph), {2: B})
    assert context_of(graph, config, 1).neighbors[4] is B


def test_graph_rejects_wrong_arity():
    with pytest.raises(GraphError, match="^cell 1: expected 12 fixed states, got 11$"):
        CellGraph({1: ((W,) * 11, {})})


def test_graph_rejects_dangling_link():
    with pytest.raises(GraphError, match="^cell 1 face 4 links to unknown cell 2$"):
        CellGraph({1: wired(f4=2)})


def test_graph_rejects_self_link():
    # a single self-link would count as its own return link
    with pytest.raises(GraphError, match="^cell 1 face 0 links to itself$"):
        CellGraph({1: wired(f0=1)})


def test_graph_rejects_unhashable_link_target():
    with pytest.raises(GraphError) as err:
        CellGraph({1: (ALL_WHITE, {0: [2]})})
    assert str(err.value) == "cell 1 face 0 links to unhashable target [2]"


def test_graph_rejects_asymmetric_link():
    with pytest.raises(GraphError, match="^link 1/4 -> 2 has 0 return links, expected exactly 1$"):
        CellGraph({1: wired(f4=2), 2: wired(f2=3), 3: wired(f2=2)})


def test_graph_rejects_doubled_return_link():
    with pytest.raises(GraphError, match="^link 1/4 -> 2 has 2 return links, expected exactly 1$"):
        CellGraph({1: wired(f4=2), 2: wired(f1=1, f3=1)})


@pytest.mark.parametrize(
    "state, text",
    [
        (5, "5"),  # would compile to index 5 - 3, which run reads as B and context_of as 5
        ("B", "'B'"),  # has no index to compile to
        (1, "1"),  # equals B, but context_of would read the int 1
        (None, "None"),
    ],
)
def test_graph_rejects_a_port_it_cannot_compile(state, text):
    fixed, links = wired(f1=1)
    fixed[7] = state
    with pytest.raises(GraphError) as err:
        CellGraph({1: wired(f4=2), 2: (fixed, links)})
    assert str(err.value) == f"cell 2 face 7: fixed state {text} is not a CellState"


def test_a_graph_keeps_its_wiring_when_the_callers_input_changes(catalog):
    # the graph copies what it is given: emptying the caller's links and recolouring
    # its fixed states afterwards changes neither wiring(cell) nor a run
    scenario = build_vertical_segment(3)
    given = {cell: (list(fixed), dict(links)) for cell, (fixed, links) in wiring_of(scenario.graph).items()}
    graph = CellGraph(given)
    for fixed, links in given.values():
        fixed[0] = R
        links.clear()
    assert wiring_of(graph) == wiring_of(scenario.graph)
    assert run(graph, scenario.initial, catalog, scenario.default_steps) == scenario.run(catalog)


@pytest.mark.parametrize(
    "ports_by_cell, first",
    [
        # a link fault of a cell comes before the arity fault of a later cell
        ({1: wired(f0=1), 2: ((W,) * 11, {})}, "cell 1 face 0 links to itself"),
        ({1: wired(f4=2), 2: ((W,) * 13, {})}, "cell 2: expected 12 fixed states, got 13"),
        # return links are counted once every cell has been read, so every other fault comes first
        ({1: wired(f4=2), 2: wired(), 3: wired(f0=3)}, "cell 3 face 0 links to itself"),
        ({1: wired(f4=2), 2: wired(f3=9)}, "cell 2 face 3 links to unknown cell 9"),
        ({1: wired(f4=2), 2: ((None, *ALL_WHITE[1:]), {})}, "cell 2 face 0: fixed state None is not a CellState"),
        # within a cell, faces in order; return links in the order of the links they answer
        ({1: wired(f2=5, f4=1)}, "cell 1 face 2 links to unknown cell 5"),
        (
            {1: wired(f4=2, f6=3), 2: wired(), 3: wired(f1=1, f2=1)},
            "link 1/4 -> 2 has 0 return links, expected exactly 1",
        ),
        # a cell's fixed states before its links, a face outside 0..11 before the other links,
        # and links in face order whatever the order of the caller's dict
        ({1: ((W,) * 11 + ("B",), {0: 1})}, "cell 1 face 11: fixed state 'B' is not a CellState"),
        ({1: (ALL_WHITE, {0: 1, 12: 2})}, "cell 1: link on 12, not a face in 0..11"),
        ({1: (ALL_WHITE, {-1: 2})}, "cell 1: link on -1, not a face in 0..11"),
        ({1: (ALL_WHITE, {"4": 2})}, "cell 1: link on '4', not a face in 0..11"),
        ({1: (ALL_WHITE, {4.0: 2})}, "cell 1: link on 4.0, not a face in 0..11"),
        ({1: (ALL_WHITE, {4: 1, 2: 5})}, "cell 1 face 2 links to unknown cell 5"),
        # a link would hide the milestone under it: a builder links only the faces it leaves white
        ({1: ((B,) + ALL_WHITE[1:], {0: 1})}, "cell 1 face 0 links over fixed state B"),
        ({1: (ALL_WHITE[:4] + (R,) + ALL_WHITE[5:], {4: 2}), 2: wired(f1=1)}, "cell 1 face 4 links over fixed state R"),
        # an entry that is not a pair of fixed states and links comes before anything in it
        ({1: wired(), 2: None}, "cell 2: None is not a (fixed states, links) pair"),
        ({1: (("B",), [0])}, "cell 1: (('B',), [0]) is not a (fixed states, links) pair"),
    ],
)
def test_graph_reports_its_first_fault(ports_by_cell, first):
    with pytest.raises(GraphError) as err:
        CellGraph(ports_by_cell)
    assert str(err.value) == first


def test_a_bad_state_in_a_shared_fixed_tuple_is_reported_at_its_first_cell():
    # cells are checked in order, so the first cell with the bad tuple is the one named
    shared = ALL_WHITE[:7] + ("B",) + ALL_WHITE[8:]
    with pytest.raises(GraphError) as err:
        CellGraph({1: (ALL_WHITE, {}), 2: (shared, {}), 3: (shared, {}), 4: (shared, {})})
    assert str(err.value) == "cell 2 face 7: fixed state 'B' is not a CellState"
    short = ALL_WHITE[:11]
    with pytest.raises(GraphError, match="^cell 1: expected 12 fixed states, got 11$"):
        CellGraph({1: (short, {}), 2: (short, {})})


def test_a_later_cell_with_another_bad_fixed_tuple_still_raises():
    # cells 1 and 2 share a good tuple; cell 3's bad one raises though it comes after them
    with pytest.raises(GraphError) as err:
        CellGraph({1: (ALL_WHITE, {4: 2}), 2: (ALL_WHITE, {1: 1}), 3: (ALL_WHITE[:11] + (None,), {})})
    assert str(err.value) == "cell 3 face 11: fixed state None is not a CellState"


@pytest.mark.parametrize(
    "name", ["vertical-fwd-n7", "horizontal-fwd-k5", "v1-fwd", "memo-left-active", "fixed-active", "flipflop-left-active"]
)
def test_cells_sharing_a_fixed_tuple_get_the_bases_of_unshared_copies(name):
    graph = SCENARIOS[name].build().graph
    assert len({id(graph.wiring(cell)[0]) for cell in graph.cell_ids}) < len(graph)  # the builders share
    copies = {cell: (list(fixed), links) for cell, (fixed, links) in wiring_of(graph).items()}
    assert CellGraph(copies)._bases == graph._bases


def test_all_white_is_fixed_point(catalog):
    graph = CellGraph({1: wired(f4=2), 2: wired(f1=1)})
    config = uniform_configuration(graph)
    after = step(graph, config, catalog)
    assert after.time == 1
    assert all(s is W for s in after.states.values())


def test_step_is_synchronous(catalog):
    scenario = build_vertical_segment(5)
    forward = run(scenario.graph, scenario.initial, catalog, 6)
    # rebuild the same graph with reversed cell insertion order
    reordered = CellGraph(dict(reversed(wiring_of(scenario.graph).items())))
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


def test_run_refuses_a_negative_step_count(catalog):
    # a step count below zero names no row to stop at; it is refused before the configuration is read
    scenario = build_vertical_segment(5)
    with pytest.raises(ValueError, match="^n_steps must not be negative: -3$"):
        scenario.run(catalog, -3)
    with pytest.raises(ValueError, match="^n_steps must not be negative: -1$"):
        run(scenario.graph, Configuration({}), catalog, -1)


def run_one_step(graph, config, table):
    return run(graph, config, table, 1)


@pytest.mark.parametrize("engine_fn", [run_one_step, step], ids=["run", "step"])
@pytest.mark.parametrize(
    "state, text",
    [
        (None, "cell 4: configuration state is missing"),
        (5, "cell 4: configuration state 5 is not a CellState"),
        (1, "cell 4: configuration state 1 is not a CellState"),  # equals B, but would be read as an int
        ("B", "cell 4: configuration state 'B' is not a CellState"),
    ],
)
def test_run_and_step_refuse_a_configuration_without_a_cell_state(catalog, engine_fn, state, text):
    scenario = build_vertical_segment(3)
    states = dict(scenario.initial.states)
    if state is None:
        del states[4]
    else:
        states[4] = state
    with pytest.raises(ConfigurationError) as err:
        engine_fn(scenario.graph, Configuration(states), catalog)
    assert str(err.value) == text
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("engine_fn", [run_one_step, step], ids=["run", "step"])
def test_run_and_step_refuse_a_state_for_a_cell_the_graph_lacks(catalog, engine_fn):
    scenario = build_vertical_segment(3)
    config = with_states(scenario.initial, {999: B})
    with pytest.raises(ConfigurationError, match="^cell 999: configuration state for a cell the graph lacks$"):
        engine_fn(scenario.graph, config, catalog)


def test_context_of_refuses_a_configuration_without_a_linked_cell_state():
    scenario = build_vertical_segment(3)
    states = dict(scenario.initial.states)
    del states[4]
    linked = [cell for cell, (_, links) in wiring_of(scenario.graph).items() if 4 in dict(links).values()]
    assert linked
    for cell in linked + [4]:
        with pytest.raises(ConfigurationError, match="^cell 4: configuration state is missing$"):
            context_of(scenario.graph, Configuration(states), cell)


def test_run_past_modelled_region_raises(catalog):
    # the lone rear left behind once the front walks off the modelled region
    # has no covering rule; the error names the cell and the step
    scenario = build_vertical_segment(3)
    with pytest.raises(EngineError) as err:
        scenario.run(catalog, 10)
    assert err.value.cell == 13
    assert err.value.time == 7
    assert err.value.context == context_from_letters("R W W B W W B B B W W W W".split())
    assert err.value.minimal == context_from_letters("R W W W W W W W B B B B W".split())
    assert type(err.value.context) is Context
    assert str(err.value) == (
        "cell 13 at time 7: no rule covers context R | W W B W W B B B W W W W"
        " (minimal form R | W W W W W W W B B B B W)"
    )


def test_engine_error_reads_the_lookups_minimal_form(monkeypatch):
    # the 5 distinct covered contexts are all written in rules, so the table's seeded
    # cache answers them; the one canonicalisation is EngineError reading the uncovered
    # context's minimal form
    table = load_rule_dir(default_rules_dir())
    calls = 0
    original = rules.minimal_context

    def counted(ctx):
        nonlocal calls
        calls += 1
        return original(ctx)

    for name in [n for n in sys.modules if n.startswith("dodecagrid")]:
        for alias, value in list(vars(sys.modules[name]).items()):
            if value is original:
                monkeypatch.setattr(sys.modules[name], alias, counted)
    with pytest.raises(EngineError) as err:
        build_vertical_segment(3).run(table, 14)
    assert (err.value.cell, err.value.time) == (13, 7)
    assert err.value.minimal == context_from_letters("R W W W W W W W B B B B W".split())
    assert calls == 1


def test_format_trace_tokens(catalog):
    graph = CellGraph({1: (ALL_WHITE, {}), 2: (ALL_WHITE, {})})
    config = with_states(uniform_configuration(graph), {1: B})
    trace = run(graph, config, RuleTable([]), 1)
    text = format_trace(trace)
    assert trace_tokens(text) == ["1", "2", "time", "0", ":", "B", "W", "time", "1", ":", "B", "W"]


def test_a_trace_without_rows_is_refused():
    # every trace has a first row, so a header alone is a format error, located like the others
    with pytest.raises(TraceFormatError, match="^trace of 3 cells has no rows$"):
        Trace.from_rows((1, 2, 3), ())
    with pytest.raises(TraceFormatError, match="^t.trace: trace has no rows$"):
        parse_trace_text("1 2 3\n\n# no rows\n", "t.trace")
    with pytest.raises(TraceFormatError, match="^trace of 1 cells has no rows$"):
        Trace((1,), 0, None, array("Q"), array("I"), b"")
    with pytest.raises(TraceFormatError, match="^trace of 1 cells has no rows$"):
        Trace(cell_ids=(1,), start=0, initial=None, ends=array("Q"), indices=array("I"), new_states=b"")


def test_trace_from_rows_rejects_skipped_time():
    with pytest.raises(TraceFormatError, match="^time 3 after time 1$"):
        Trace.from_rows((1, 2), ((0, (B, W)), (1, (R, B)), (3, (W, R))))


def test_parse_trace_names_the_line_of_a_skipped_time():
    text = "1 2\n\ntime 0 :  B  W\ntime 1 :  R  B\ntime 3 :  W  R\n"
    with pytest.raises(TraceFormatError, match="^t.trace:5: time 3 after time 1$"):
        parse_trace_text(text, "t.trace")


def test_parse_trace_names_the_line_of_a_bad_letter():
    text = "1 2\n\ntime 0 :  B  W\ntime 1 :  R  w\n"
    with pytest.raises(TraceFormatError, match="^t.trace:4: not a cell state: 'w'$"):
        parse_trace_text(text, "t.trace")


@pytest.mark.parametrize(
    "text, error",
    [
        ("1 2\n\ntime 0 :  B  W\ntime 1 :  x  y\n", "t.trace:4: not a cell state: 'x'"),  # first bad letter of a row
        ("1 2\n\ntime 0 :  B  Q\ntime 1 :  x  B\n", "t.trace:3: not a cell state: 'Q'"),  # first row with one
    ],
)
def test_parse_trace_names_the_first_bad_letter(text, error):
    with pytest.raises(TraceFormatError) as err:
        parse_trace_text(text, "t.trace")
    assert str(err.value) == error


def per_token_trace(text):
    """The trace ``parse_trace_text`` reads, each letter decoded on its own through the enum's name lookup."""
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    cell_ids = tuple(int(t) for t in lines[0])
    rows = [(int(tokens[1]), tuple(CellState[s] for s in tokens[3:])) for tokens in lines[1:]]
    return Trace.from_rows(cell_ids, rows)


def test_every_golden_file_parses_to_its_per_token_trace():
    paths = sorted(default_golden_dir().glob("*.trace"))
    assert len(paths) == 11
    for path in paths:
        text = path.read_text()
        assert parse_trace_text(text, str(path)) == per_token_trace(text), path.name


def test_trace_from_rows_rejects_a_short_row():
    with pytest.raises(TraceFormatError, match="^row at time 1 has 1 states for 2 cells$"):
        Trace.from_rows((1, 2), ((0, (B, W)), (1, (R,))))


def test_a_trace_stores_its_changes_flat(catalog):
    # the second step changes nothing; the third changes both cells, in index order
    trace = Trace((1, 2), 0, (B, W), array("Q", [1, 1, 3]), array("I", [1, 0, 1]), bytes([B, R, W]))
    assert trace == Trace.from_rows((1, 2), ((0, (B, W)), (1, (B, B)), (2, (B, B)), (3, (R, W))))
    for stored in (trace, Trace.from_rows((1, 2), trace.rows), build_vertical_segment(3).run(catalog)):
        assert (stored.ends.typecode, stored.indices.typecode, type(stored.new_states)) == ("Q", "I", bytes)
    assert trace.end == 3
    assert [states for _, states in trace.rows] == [(B, W), (B, B), (B, B), (R, W)]
    assert {type(s) for _, states in trace.rows for s in states} == {CellState}
    assert trace.states_at(3) == {1: R, 2: W}


def test_tsv_emission():
    trace = Trace.from_rows((1, 2), ((0, (B, W)),))
    assert format_trace_tsv(trace) == "time\t1\t2\n0\tB\tW\n"


def test_parse_trace_round_trip(catalog):
    scenario = build_vertical_segment(4)
    trace = scenario.run(catalog, 3)
    again = parse_trace_text(format_trace(trace))
    assert again == trace


def run_up_to(scenario, table, n_steps):
    """``scenario`` run ``n_steps`` steps, or up to the time it raises ``EngineError``."""
    try:
        return scenario.run(table, n_steps)
    except EngineError as exc:
        return scenario.run(table, exc.time - scenario.initial.time)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_trace_reads_back_through_its_rows_and_its_text(catalog, name):
    scenario = SCENARIOS[name].build()
    trace = run_up_to(scenario, catalog, 30)
    assert trace.end >= scenario.default_steps
    rows = trace.rows
    assert Trace.from_rows(trace.cell_ids, rows) == trace
    assert parse_trace_text(format_trace(trace)) == trace
    assert [t for t, _ in rows] == list(range(trace.start, trace.end + 1))
    for t, states in rows:
        assert trace.states_at(t) == dict(zip(trace.cell_ids, states))


def test_trace_column(catalog):
    scenario = build_vertical_segment(4)
    trace = scenario.run(catalog, 2)
    front_start = scenario.track_cells[SEGMENT_BUFFER + 1]
    assert trace.states_at(0)[front_start] is B


def sweep_run(graph: CellGraph, config: Configuration, table: RuleTable, n_steps: int) -> Trace:
    """The reference: ``n_steps`` full sweeps of ``step``, every cell evaluated each time."""
    order = graph.cell_ids
    rows = [(config.time, tuple(config.states[c] for c in order))]
    for _ in range(n_steps):
        config = step(graph, config, table)
        rows.append((config.time, tuple(config.states[c] for c in order)))
    return Trace.from_rows(order, tuple(rows))


def outcome(run_fn, graph, config, table, n_steps):
    try:
        trace = run_fn(graph, config, table, n_steps)
    except EngineError as exc:
        return (exc.cell, exc.time, exc.context)
    return trace.cell_ids, trace.rows


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), name=st.sampled_from(sorted(SCENARIOS)), n_steps=st.integers(0, 14))
def test_run_matches_full_sweep(catalog, data, name, n_steps):
    # past the 7-step golden window, where switch crossings raise at time 9
    scenario = SCENARIOS[name].build()
    cells = st.sampled_from(scenario.graph.cell_ids)
    overrides = data.draw(st.dictionaries(cells, st.sampled_from(tuple(CellState)), max_size=3), label="overrides")
    config = with_states(scenario.initial, overrides)
    expected = outcome(sweep_run, scenario.graph, config, catalog, n_steps)
    assert outcome(run, scenario.graph, config, catalog, n_steps) == expected


@settings(max_examples=38, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(SCENARIOS)))
def test_run_is_unchanged_when_each_cell_is_rotated(catalog, data, name):
    # each cell's faces relabelled by its own rotation: engine, wiring and lookups together are invariant;
    # a link names only its target cell, so no neighbour's link needs rewriting
    scenario = SCENARIOS[name].build()
    graph = scenario.graph
    motions = st.lists(st.sampled_from(enumerate_motions()), min_size=len(graph), max_size=len(graph))
    rotated = {
        cell: rotated_wiring(graph.wiring(cell), p)
        for cell, p in zip(graph.cell_ids, data.draw(motions, label="rotations"))
    }
    trace = run(CellGraph(rotated), scenario.initial, catalog, scenario.default_steps)
    assert trace == scenario.run(catalog)


@settings(max_examples=40, deadline=None)
@given(vertical=st.booleans(), size=st.integers(3, 40), forward=st.booleans())
def test_trace_stores_exactly_the_changes(catalog, vertical, size, forward):
    build = build_vertical_segment if vertical else build_horizontal_segment
    trace = build(size, forward=forward).run(catalog)
    assert Trace.from_rows(trace.cell_ids, trace.rows) == trace
    rows = [states for _, states in trace.rows]
    differing = sum(a != b for old, new in zip(rows, rows[1:]) for a, b in zip(old, new))
    assert sum(map(len, step_changes(trace))) == len(trace.indices) == len(trace.new_states) == differing


def assert_steps_replay(trace: Trace, rows: list[tuple[CellState, ...]]) -> None:
    """``trace.steps()`` holds, per step, exactly the cells that differ between the dense ``rows``, ascending."""
    steps = list(trace.steps())
    assert len(steps) == len(rows) - 1 == len(trace.ends)
    assert sum(map(len, steps)) == len(trace.indices)
    states = list(trace.initial)
    assert tuple(states) == rows[0]
    for changes, old, new in zip(steps, rows, rows[1:]):
        indices = [i for i, _ in changes]
        assert indices == sorted(set(indices))
        assert changes == [(i, s) for i, (a, s) in enumerate(zip(old, new)) if s is not a]
        assert all(type(s) is CellState for _, s in changes)
        for i, s in changes:
            states[i] = s
        assert tuple(states) == new
    assert [row for _, row in trace.rows] == rows


@pytest.mark.parametrize("name", SCENARIOS)
def test_trace_steps_replay_every_scenario_run(catalog, name):
    # the reference rows come from full sweeps of step, which never build a Trace
    scenario = SCENARIOS[name].build()
    graph, config = scenario.graph, scenario.initial
    rows = [tuple(config.states[c] for c in graph.cell_ids)]
    for _ in range(scenario.default_steps):
        config = step(graph, config, catalog)
        rows.append(tuple(config.states[c] for c in graph.cell_ids))
    assert_steps_replay(scenario.run(catalog), rows)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_cells=st.integers(1, 8), n_rows=st.integers(1, 7), start=st.integers(-3, 3))
def test_trace_steps_replay_the_rows_a_trace_is_built_from(data, n_cells, n_rows, start):
    rows = data.draw(st.lists(st.tuples(*[STATES] * n_cells), min_size=n_rows, max_size=n_rows), label="rows")
    trace = Trace.from_rows(range(10, 10 + n_cells), enumerate(rows, start))
    assert_steps_replay(trace, rows)
    assert trace.states_at(trace.end) == dict(zip(trace.cell_ids, rows[-1]))


def test_states_at_refuses_a_time_outside_the_trace(catalog):
    trace = build_vertical_segment(4).run(catalog, 2)
    assert trace.states_at(trace.start) == dict(zip(trace.cell_ids, trace.initial))
    for time in (trace.start - 1, trace.end + 1):
        with pytest.raises(KeyError, match=f"no row for time {time}"):
            trace.states_at(time)


@pytest.mark.parametrize(
    "text, error",
    [
        ("# cells\ntime 0 :  B  W\n1 2\n", "^t.trace:2: trace rows before header$"),
        ("", "^t.trace: trace has no header$"),
        ("# a comment\n\n   # and another\n", "^t.trace: trace has no header$"),
    ],
)
def test_parse_trace_refuses_a_trace_without_a_header_first(text, error):
    with pytest.raises(TraceFormatError, match=error):
        parse_trace_text(text, "t.trace")


def step_changes(trace: Trace) -> list[tuple[tuple[int, CellState], ...]]:
    """Each step's ``(index into cell_ids, new state)`` pairs, read off the trace's flat arrays."""
    starts = (0, *trace.ends)
    pairs = [*zip(trace.indices, map(CellState, trace.new_states))]
    return [tuple(pairs[lo:hi]) for lo, hi in zip(starts, trace.ends)]


def contexts_met(graph: CellGraph, trace: Trace) -> set[Context]:
    """The contexts of every cell at every time a step reads, from the trace and ``wiring`` alone.

    After the first row only a cell that changed, or one linked to it, can have a new context.
    """
    readers = {c: {c} for c in graph.cell_ids}
    for cell, (_, links) in wiring_of(graph).items():
        for _, target in links:
            readers[target].add(cell)
    times = range(trace.start, trace.end)
    met = set()
    for t, changes in zip(times, ((), *step_changes(trace))):
        config = Configuration(trace.states_at(t), t)
        cells = graph.cell_ids if t == trace.start else {r for i, _ in changes for r in readers[trace.cell_ids[i]]}
        met.update(context_of(graph, config, c) for c in cells)
    return met


class CountingTable:
    def __init__(self, table: RuleTable):
        self.table = table
        self.calls = 0

    def lookup(self, ctx):
        self.calls += 1
        return self.table.lookup(ctx)


def test_run_evaluates_only_active_cells(catalog):
    # the full sweep makes len(graph) lookups per step, about 1 M here; run makes one per distinct context
    scenario = build_vertical_segment(1000)
    table = CountingTable(catalog)
    trace = scenario.run(table)
    assert table.calls == len(contexts_met(scenario.graph, trace)) == 5


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_run_looks_up_each_context_it_meets_once(catalog, name):
    # run hands lookup, in order, the context_of of each cell at each time where a full sweep meets it first
    scenario = SCENARIOS[name].build()
    seen = []

    class RecordingTable:
        def lookup(self, ctx):
            seen.append(ctx)
            return catalog.lookup(ctx)

    trace = scenario.run(RecordingTable())
    first_met = {}  # context -> (time, cell) where the sweep meets it first
    for t in range(trace.start, trace.end):
        config = Configuration(trace.states_at(t), t)
        for cell in scenario.graph.cell_ids:
            first_met.setdefault(context_of(scenario.graph, config, cell), (t, cell))
    assert seen == list(first_met)
    assert set(seen) == contexts_met(scenario.graph, trace)


@pytest.mark.parametrize("n_steps", [20, None])
@pytest.mark.parametrize("gap", [4, 20])
def test_two_locomotives_on_one_segment_match_the_full_sweep(catalog, gap, n_steps):
    # each step changes six cells, three per locomotive; at gap 4 the cell between them reads
    # a change on both sides in the same step; the front one walks off the segment at time 24 + (20 - gap)
    scenario = build_vertical_segment(40)
    track = scenario.track_cells
    config = with_states(scenario.initial, {track[SEGMENT_BUFFER + gap]: R, track[SEGMENT_BUFFER + 1 + gap]: B})
    steps = scenario.default_steps if n_steps is None else n_steps
    expected = outcome(sweep_run, scenario.graph, config, catalog, steps)
    assert outcome(run, scenario.graph, config, catalog, steps) == expected
    if n_steps is None:
        assert expected[:2] == (track[-1], 44 - gap)
    else:
        assert set(map(len, step_changes(run(scenario.graph, config, catalog, steps)))) == {6}


def test_each_run_keeps_its_own_memo(catalog):
    # the same graph run with the catalogue, then with a table whose rule for the cell ahead of the front
    # gives R instead of B: the second run must not reuse what the first learned
    scenario = build_vertical_segment(7)
    graph, config = scenario.graph, scenario.initial
    ahead = scenario.track_cells[SEGMENT_BUFFER + 2]
    fired = minimal_context(context_of(graph, config, ahead))
    assert next(r for r in catalog.rules if minimal_context(r.context) == fired).new_state is B
    mutated = RuleTable(r._replace(new_state=R) if minimal_context(r.context) == fired else r for r in catalog.rules)
    for table in (catalog, mutated, catalog):
        expected = outcome(sweep_run, graph, config, table, scenario.default_steps)
        assert outcome(run, graph, config, table, scenario.default_steps) == expected
    assert run(graph, config, mutated, 1).states_at(1)[ahead] is R


# sha256 of format_trace_tsv(scenario.run(catalog)), recorded before run keyed evaluations by context code
TSV_DIGESTS = {
    "memo-left-active": "ede36671517bca7bee1b742e9b77b3126bff0f6dfa5922dd63148bfd680b9e1a",
    "memo-left-sel": "fa388f903d88ae75cca3970e286bc4d4a479039db4374f547ec42490590c08b4",
    "memo-left-nonsel": "56afc36498892cca3b0181db081cbc8f72bca4831ed25af5fdcda97484003f9f",
    "memo-right-active": "73dd7d121afa15f105c9c15d4c1c67ff166ba8a48509c6a4a18de7618408d08d",
    "memo-right-sel": "c22106666357f92f3df3710285fa938c6f0faeee56d22603190cf7a43c4ef78b",
    "memo-right-nonsel": "1ecd9d9d1987dca391da03196002466f1ffa73a56ff240a05be81ff2f6701b1c",
    "fixed-active": "7764d7d6eeec3fe01c4f224b9fbbc63caeb715e6e312915a5ecbaa7e9b29c375",
    "fixed-sel": "d45914a8b6653b6b4876451e4b96fd70d28a4fdbf6f8465be70775eac5d05924",
    "fixed-nonsel": "96d3cdf2a1c7e40f0d463c359f43a89c243c1308771cae1e1bf09e5ebaeedbe6",
    "flipflop-left-active": "5e233fbdf29728e703a9a3c581f8c99ad81ac7fd68be1a00e6900933b476de4e",
    "flipflop-right-active": "1446c6af0c0f2f9959fd0db7c16ef6aab7e283b6d90e34802abe51a9803171eb",
    "vertical-fwd-n7": "47c074c926a6ef459ea3111d66b1bc40088de01d317bbbd03edbde5b1a38de69",
    "vertical-rev-n7": "cf48984447ed81ec63323e7e88632109a19bd88963702cdbdce7a62feff0a961",
    "horizontal-fwd-k5": "cfe82c07722eca45b330874f12f0e89e87a2816b7ba51592357b15aaa07e2059",
    "horizontal-rev-k5": "661e265439d5f14eded4aa46bfb083ea9dcdf0404788f32b3fe70156b846a2d2",
    "v1-fwd": "7a9efcb770edf83040f6afb5ec681b81f6f34c6d431b8d3657f64ce6f3bb5db7",
    "v1-rev": "ed1c54836ef00021ba9ab0e9806ff1e400ab22a74afa0d9010c67e4235c5a061",
    "v0-fwd": "cd531686d0586d64b7d67939b14db225263c34a0eb7f31cee7876716b653931c",
    "v0-rev": "dd2cab875916bca8f9e8dbf4c4aab1540c93f37c8fcd65e89743758154e40388",
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_trace_is_pinned(catalog, name):
    text = format_trace_tsv(SCENARIOS[name].build().run(catalog))
    assert hashlib.sha256(text.encode()).hexdigest() == TSV_DIGESTS[name]


def test_run_looks_up_plain_pairs(catalog):
    # run hands lookup (current, neighbours) tuples, never a Context
    seen = set()

    class RecordingTable:
        def lookup(self, ctx):
            seen.add(type(ctx))
            return catalog.lookup(ctx)

    build_vertical_segment(7).run(RecordingTable())
    assert seen == {tuple}


def twin_track_wiring(reverse_order: bool) -> dict[int, tuple]:
    """Two disjoint copies of the 13-cell track above, cells 1..13 and 21..33, in either insertion order."""
    wiring = wiring_of(build_vertical_segment(3).graph)
    twins = {
        c + by: (fixed, {face: target + by for face, target in links})
        for by in (0, 20)
        for c, (fixed, links) in wiring.items()
    }
    return dict(reversed(twins.items())) if reverse_order else twins


def twin_tracks(reverse_order: bool) -> tuple[CellGraph, Configuration]:
    graph = CellGraph(twin_track_wiring(reverse_order))
    states = {c + by: s for by in (0, 20) for c, s in build_vertical_segment(3).initial.states.items()}
    return graph, Configuration(states)


@pytest.mark.parametrize("reverse_order, cell", [(False, 13), (True, 33)])
def test_run_raises_at_first_uncovered_cell_in_order(catalog, reverse_order, cell):
    # both rears are stranded at time 7; the error names the first in graph.cell_ids order, as step does
    graph, config = twin_tracks(reverse_order)
    with pytest.raises(EngineError) as err:
        run(graph, config, catalog, 10)
    assert (err.value.cell, err.value.time) == (cell, 7)
    assert outcome(sweep_run, graph, config, catalog, 10) == (cell, 7, err.value.context)


def chain_wiring(*chains) -> dict[int, tuple]:
    """The reference per-cell wiring of chains: ids as ``chain_ids`` counts them, each exit linked to the next entry."""
    wiring = {}
    for elements, cells in zip(chains, chain_ids(*chains)):
        for cell, (fixed, (entry, exit_)) in zip(cells, elements):
            links = {}
            if cell > cells[0]:
                links[entry] = cell - 1
            if cell < cells[-1]:
                links[exit_] = cell + 1
            wiring[cell] = fixed, links
    return wiring


def built_graphs(monkeypatch) -> list[tuple[dict, CellGraph]]:
    """Every ``(wiring_by_cell, graph)`` the scenario builders construct from here on, switch graphs included.

    A graph built with ``CellGraph.from_chains`` is recorded with its chains' ``chain_wiring``.
    """
    built = []

    class Recording:
        def __new__(cls, wiring_by_cell):
            built.append((wiring_by_cell, CellGraph(wiring_by_cell)))
            return built[-1][1]

        @staticmethod
        def from_chains(*chains):
            built.append((chain_wiring(*chains), CellGraph.from_chains(*chains)))
            return built[-1][1]

    monkeypatch.setattr(scenarios, "CellGraph", Recording)
    scenarios._switch_graph.cache_clear()  # built once per kind and process, so rebuilt under the recorder
    return built


def assert_reads_back(wiring_by_cell, graph=None):
    # wiring() is what the reference engine reads, so this holds it to its input: the fixed
    # states as given, the links in face order, and a graph rebuilt from them the same
    graph = CellGraph(wiring_by_cell) if graph is None else graph
    assert graph.cell_ids == tuple(wiring_by_cell)
    assert len(graph) == len(wiring_by_cell)
    for cell, (fixed, links) in wiring_by_cell.items():
        assert graph.wiring(cell) == (tuple(fixed), tuple(sorted(links.items()))), f"cell {cell}"
    again = CellGraph(wiring_of(graph))
    assert (again.cell_ids, wiring_of(again), again._bases, again._feeds) == (
        graph.cell_ids, wiring_of(graph), graph._bases, graph._feeds
    )


def test_every_scenario_graph_reads_back_its_ports(monkeypatch):
    built = built_graphs(monkeypatch)
    for entry in SCENARIOS.values():
        entry.build()
    assert len(built) == 11  # 4 segments, 4 bridges and the graphs of 3 switch kinds
    for wiring_by_cell, graph in built:
        assert_reads_back(wiring_by_cell, graph)


HEADINGS = (("fwd", True), ("rev", False))
CHAIN_BUILDS = {
    **{f"vertical-n{n}-{h}": (build_vertical_segment, n, f) for n in (3, 7, 1000) for h, f in HEADINGS},
    **{f"horizontal-k{k}-{h}": (build_horizontal_segment, k, f) for k in (2, 5, 13, 200) for h, f in HEADINGS},
    **{f"bridge-{v}-{h}": (build_bridge, v, f) for v in ("v0", "v1") for h, f in HEADINGS},
}


def graph_fields(graph: CellGraph) -> tuple:
    return graph.cell_ids, graph._index, graph._shapes, graph._bases, graph._feeds, wiring_of(graph)


@pytest.mark.parametrize("build, arg, forward", CHAIN_BUILDS.values(), ids=CHAIN_BUILDS)
def test_a_chain_graph_equals_the_graph_of_its_per_cell_wiring(monkeypatch, build, arg, forward):
    built = built_graphs(monkeypatch)
    graph = build(arg, forward).graph
    [(wiring_by_cell, recorded)] = built
    assert recorded is graph
    assert graph_fields(graph) == graph_fields(CellGraph(wiring_by_cell)) == graph_fields(CellGraph(wiring_of(graph)))


@pytest.mark.parametrize(
    "chains",
    [[[]], [[PLAIN]], [[PLAIN], [], [CORNER, PLAIN]], [[CORNER] * 3, [PLAIN, RAMP], [RAMP]]],
    ids=["empty", "one-cell", "one-two", "three-two-one"],
)
def test_short_and_empty_chains_equal_their_per_cell_wiring(chains):
    graph = CellGraph.from_chains(*chains)
    assert graph_fields(graph) == graph_fields(CellGraph(chain_wiring(*chains)))


@pytest.mark.parametrize(
    "build, distinct",
    [(lambda: build_vertical_segment(1000), 1), (lambda: build_horizontal_segment(200), 3), (build_bridge, 3)],
    ids=["vertical-n1000", "horizontal-k200", "bridge-v1"],
)
def test_a_chain_graph_checks_each_distinct_element_once(monkeypatch, build, distinct):
    checked = []
    real = engine._fixed_code
    monkeypatch.setattr(engine, "_fixed_code", lambda cell, fixed: checked.append(cell) or real(cell, fixed))
    build()
    assert len(checked) == distinct


@pytest.mark.parametrize(
    "bad, first",
    [
        (((W,) * 11, (1, 4)), "cell 5: expected 12 fixed states, got 11"),
        ((PLAIN[0][:7] + ("B",) + PLAIN[0][8:], (1, 4)), "cell 5 face 7: fixed state 'B' is not a CellState"),
        ((PLAIN[0][:7] + (5,) + PLAIN[0][8:], (1, 4)), "cell 5 face 7: fixed state 5 is not a CellState"),
        ((PLAIN[0], (1, 12)), "cell 5: link on 12, not a face in 0..11"),
        ((PLAIN[0], (-1, 4)), "cell 5: link on -1, not a face in 0..11"),
        ((PLAIN[0], (1, 2)), "cell 5 face 2 links over fixed state B"),
        ((PLAIN[0], (4, 4)), "cell 5: entry and exit on the same face 4"),
        (None, "cell 5: None is not a (fixed states, (entry, exit)) element"),
        ((PLAIN[0], 4), f"cell 5: {(PLAIN[0], 4)!r} is not a (fixed states, (entry, exit)) element"),
    ],
)
def test_a_chain_graph_reports_a_bad_element_at_its_first_cell(bad, first):
    # ids count through the chains: chain two starts at cell 4, and its second cell first uses the element
    with pytest.raises(GraphError) as err:
        CellGraph.from_chains([PLAIN] * 3, [PLAIN, bad, PLAIN, bad], [bad])
    assert str(err.value) == first


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_scenario_graph_rebuilt_from_its_wiring_runs_the_same(catalog, name):
    scenario = SCENARIOS[name].build()
    graph = scenario.graph
    again = CellGraph(wiring_of(graph))
    assert (again.cell_ids, wiring_of(again)) == (graph.cell_ids, wiring_of(graph))
    assert len(set(map(id, again._shapes))) == len(set(map(id, graph._shapes)))
    assert run(again, scenario.initial, catalog, scenario.default_steps) == scenario.run(catalog)


def reference_feeds(wiring_by_cell) -> list[list[tuple[int, int]]]:
    """Per cell j, sorted: ``(i, 3**f)`` for each cell i that links to j through face f, never j itself."""
    index = {cell: i for i, cell in enumerate(wiring_by_cell)}
    feeds = [[] for _ in index]
    for i, (_, links) in enumerate(wiring_by_cell.values()):
        for face, target in dict(links).items():
            feeds[index[target]].append((i, 3**face))
    return [sorted(feed) for feed in feeds]


def assert_feeds_match_the_reference(wiring_by_cell, graph):
    # run adds a cell's own state at 3**12 itself, so its feeds hold only the cells that read it
    assert [sorted(feed) for feed in graph._feeds] == reference_feeds(wiring_by_cell)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_scenario_graph_feeds_exactly_the_cells_that_read_each_cell(name):
    graph = SCENARIOS[name].build().graph
    assert_feeds_match_the_reference(wiring_of(graph), graph)


# cell ids that are neither ints nor comparable with each other: the graph only hashes them
ODD_IDS = st.one_of(st.text(max_size=3), st.tuples(st.integers(0, 3), st.text(max_size=1)))


@st.composite
def odd_id_wirings(draw):
    """A valid ``{cell: (fixed, links)}`` over string and tuple ids, each link answered by one link back."""
    cells = draw(st.lists(ODD_IDS, min_size=1, max_size=8, unique=True), label="cells")
    fixed = {c: list(draw(st.tuples(*[STATES] * 12))) for c in cells}
    links = {c: {} for c in cells}
    joins = st.tuples(st.sampled_from(cells), st.integers(0, 11), st.sampled_from(cells), st.integers(0, 11))
    for a, fa, b, fb in draw(st.lists(joins, max_size=12), label="joins"):
        if a != b and fa not in links[a] and fb not in links[b] and b not in links[a].values():
            links[a][fa], links[b][fb] = b, a
            fixed[a][fa] = fixed[b][fb] = W  # a link sits on a white face
    return {c: (tuple(fixed[c]), links[c]) for c in cells}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), wiring_by_cell=odd_id_wirings(), n_steps=st.integers(0, 4))
def test_a_graph_with_odd_cell_ids_reads_back_and_runs_the_same(catalog, data, wiring_by_cell, n_steps):
    assert_reads_back(wiring_by_cell)
    graph = CellGraph(wiring_by_cell)
    assert_feeds_match_the_reference(wiring_by_cell, graph)
    again = CellGraph(wiring_of(graph))
    states = data.draw(st.lists(st.sampled_from((W, W, W, B, R)), min_size=len(graph), max_size=len(graph)))
    config = Configuration(dict(zip(graph.cell_ids, states)))
    expected = outcome(sweep_run, graph, config, catalog, n_steps)
    assert outcome(run, graph, config, catalog, n_steps) == outcome(run, again, config, catalog, n_steps) == expected


@pytest.mark.parametrize(
    "build, shapes",
    [
        (lambda: build_vertical_segment(3), 3),
        (lambda: build_vertical_segment(100), 3),
        (lambda: build_vertical_segment(5000, forward=False), 3),
        (lambda: build_horizontal_segment(200), 5),
    ],
    ids=["vertical-n3", "vertical-n100", "vertical-n5000", "horizontal-k200"],
)
def test_a_segment_holds_one_shape_per_distinct_wiring(build, shapes):
    # a chain's first cell, its inner cells of each element, and its last cell: the inner ones repeat
    graph = build().graph
    assert len(set(map(id, graph._shapes))) == len({(fixed, links) for fixed, _, links in graph._shapes}) == shapes
    # the shapes are shared by value: copies of the fixed tuples give the same count
    copies = CellGraph({cell: (list(fixed), dict(links)) for cell, (fixed, links) in wiring_of(graph).items()})
    assert len(set(map(id, copies._shapes))) == shapes


def test_a_vertical_segment_holds_at_most_560_bytes_per_cell(catalog):
    # what stays allocated after building and running build_vertical_segment(2000): graph, scenario and
    # trace; the graph keeps per cell its index, a shared shape, its base and its feeds (no pair for the
    # cell itself), the scenario's layout is computed from its chain and its track cells are the graph's
    # own ids, and the trace's changes are flat arrays; a self feed pair per cell, a layout dict of float
    # pairs and a copy of the chain's ids held about 645 B per cell
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = build_vertical_segment(2000)
        trace = scenario.run(catalog)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.end == scenario.default_steps
    assert held <= 560 * len(scenario.graph), f"{held / len(scenario.graph):.0f} B per cell"


def test_a_vertical_segment_build_peaks_at_most_450_bytes_per_cell():
    # the chain is laid per element, with no {face: cell} dict per cell to read back, and its initial
    # configuration is one dict: building through a per-cell wiring peaked at 739–745 B per cell
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = build_vertical_segment(2000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 450 * len(scenario.graph), f"{peak / len(scenario.graph):.0f} B per cell"


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_graph_with_each_cell_rotated_reads_back_its_ports(name):
    graph = SCENARIOS[name].build().graph
    motions = enumerate_motions()
    rotated = {cell: rotated_wiring(graph.wiring(cell), p) for cell, p in zip(graph.cell_ids, motions * 20)}
    assert any(rotated[c][0] != graph.wiring(c)[0] for c in graph.cell_ids)
    assert_reads_back(rotated)


@pytest.mark.parametrize("reverse_order", [False, True])
def test_twin_tracks_read_back_their_ports_in_insertion_order(reverse_order):
    wiring_by_cell = twin_track_wiring(reverse_order)
    assert list(wiring_by_cell)[0] == (33 if reverse_order else 1)
    assert_reads_back(wiring_by_cell)


@pytest.mark.parametrize("name", ["vertical-fwd-n7", "memo-left-active"])
def test_run_reads_only_the_compiled_wiring(catalog, monkeypatch, name):
    scenario = SCENARIOS[name].build()
    expected = outcome(sweep_run, scenario.graph, scenario.initial, catalog, scenario.default_steps)

    def no_wiring(graph, cell):
        raise AssertionError(f"run read the wiring of cell {cell}")

    monkeypatch.setattr(CellGraph, "wiring", no_wiring)
    assert outcome(run, scenario.graph, scenario.initial, catalog, scenario.default_steps) == expected


def test_verify_all_compiles_each_graph_once(monkeypatch):
    # 11 graph builds for 19 runs: the crossings of one switch kind share its graph
    built = built_graphs(monkeypatch)
    runs = 0
    real_run = engine.run

    def counted(*args):
        nonlocal runs
        runs += 1
        return real_run(*args)

    monkeypatch.setattr(scenarios, "run", counted)
    results = verify_all()
    assert all(r.ok for r in results) and len(results) == 32
    assert (len(built), runs) == (11, 19)
