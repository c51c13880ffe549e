import copy

import pytest

from dodecagrid import railway, scenarios
from dodecagrid.catalog import golden_path, load_golden_trace, load_switch_wiring
from dodecagrid.engine import (
    CellGraph,
    EngineError,
    GraphError,
    context_of,
    format_trace,
    run,
    trace_tokens,
    uniform_configuration,
    with_states,
)
from dodecagrid.pentagrid import fibonacci_word
from dodecagrid.railway import Exit, Side, SwitchKind
from dodecagrid.rules import B, R, W, context_from_letters, minimal_context
from dodecagrid.scenarios import (
    APPROACH,
    LEFT_BRANCH,
    RIGHT_BRANCH,
    SCENARIOS,
    SEGMENT_BUFFER,
    STRAIGHT_EXIT_PAIRS,
    CrossingMode,
    build_bridge,
    build_corner,
    build_horizontal_segment,
    build_straight_element,
    build_switch,
    build_vertical_segment,
    horizontal_exit_faces,
    idle_states,
    milestones,
)
from dodecagrid.verify import check_track, trace_divergence

GOLDEN_NAMES = [name for name, e in SCENARIOS.items() if e.build().crossing]


def ctx(text):
    return context_from_letters(text.split())


def idle_configuration(kind, lat):
    """The switch graph with no locomotive: only the wiring's idle states on cells 17..22."""
    graph = build_switch(kind, lat, CrossingMode.ACTIVE).graph
    return graph, with_states(uniform_configuration(graph), idle_states(kind)[lat])


def idle_context(kind, lat, cell):
    graph, idle = idle_configuration(kind, lat)
    return context_of(graph, idle, cell)


# --- track elements ----------------------------------------------------------


def blue_faces(fixed):
    return tuple(face for face, state in enumerate(fixed) if state is B)


def test_straight_template_milestones():
    fixed, exits = build_straight_element((1, 3))
    assert blue_faces(fixed) == (2, 5, 6, 7)
    assert set(exits) == {1, 3}


def test_straight_variants_share_conservative_orbit():
    # whichever exit pair is used, the idle context canonicalizes identically
    base = minimal_context(ctx("W W W B W W B B B W W W W"))
    for pair in STRAIGHT_EXIT_PAIRS:
        neighbors, _ = build_straight_element(pair)
        assert minimal_context(ctx("W " + " ".join(s.letter for s in neighbors))) == base


def test_straight_rejects_corner_pair():
    with pytest.raises(ValueError):
        build_straight_element((1, 2))


def test_corner_template():
    fixed, exits = build_corner()
    assert blue_faces(fixed) == (3, 5, 6, 7, 8, 10, 11)
    assert set(exits) == {1, 2}
    assert fixed[0] is W  # the corner's back stays white


def test_corner_front_arrival_rule(catalog):
    neighbors = list(build_corner()[0])
    neighbors[1] = B
    assert catalog.lookup(ctx("W " + " ".join(s.letter for s in neighbors))) is B


def test_template_rejects_link_on_closed_face():
    # face 5 of a corner holds a blue milestone, which a link there would hide
    corner, _ = build_corner()
    with pytest.raises(GraphError, match="^cell 1 face 5 links over fixed state B$"):
        CellGraph({1: (corner, {5: 2}), 2: (corner, {1: 1})})


def test_each_shape_is_one_shared_element():
    for pair in STRAIGHT_EXIT_PAIRS:
        assert build_straight_element(pair) is build_straight_element(pair)
        assert build_straight_element(list(pair)) is build_straight_element(pair)
    assert build_corner() is build_corner()


def test_milestones_colour_their_faces_and_leave_the_rest_white():
    assert milestones((2, 5, 6, 7), (3,)) == (W, W, B, R, W, B, B, B, W, W, W, W)
    assert milestones(()) == (W,) * 12


def test_a_long_horizontal_segment_shares_one_fixed_tuple_per_shape():
    graph = build_horizontal_segment(200).graph
    used = {id(graph.wiring(cell)[0]) for cell in graph.cell_ids}
    # plain (1, 4) straights, Fibonacci-word straights exiting by face 4 or 10, and corners; the graph
    # keeps each cell's fixed tuple as given, so 410 cells hold 3 objects
    shapes = (build_straight_element((1, 4)), build_straight_element((1, 10)), build_corner())
    assert len(graph) == 410
    assert used == {id(fixed) for fixed, _ in shapes}


# --- segments ----------------------------------------------------------------


def test_vertical_rejects_short():
    with pytest.raises(ValueError):
        build_vertical_segment(2)


def test_horizontal_rejects_short():
    with pytest.raises(ValueError):
        build_horizontal_segment(1)


def test_vertical_round_trip_to_idle(catalog):
    scenario = build_vertical_segment(7)
    trace = scenario.run(catalog, 10)
    final = trace.states_at(10)
    assert all(final[c] is W for c in scenario.segment_cells)


def test_vertical_reverse_runs(catalog):
    scenario = build_vertical_segment(7, forward=False)
    trace = scenario.run(catalog)
    first = trace.states_at(0)
    assert first[scenario.segment_cells[-1]] is R
    final = trace.states_at(trace.rows[-1][0])
    assert all(final[c] is W for c in scenario.segment_cells)


def test_horizontal_exit_sequence_follows_word():
    faces = horizontal_exit_faces(8)
    letters = "".join("a" if f == 4 else "b" for f in faces)
    assert letters == fibonacci_word(8)
    assert set(faces) == {4, 10}


def test_horizontal_traverses_both_directions(catalog):
    for forward in (True, False):
        scenario = build_horizontal_segment(5, forward=forward)
        trace = scenario.run(catalog)  # EngineError here would mean a rule miss
        final = trace.states_at(trace.rows[-1][0])
        assert all(final[c] is W for c in scenario.segment_cells)


# --- bridge ------------------------------------------------------------------


def test_bridge_tracks_do_not_interact(catalog):
    for track in ("v0", "v1"):
        scenario = build_bridge(track)
        trace = scenario.run(catalog)
        other = scenario.crossing_track
        for _, states in trace.rows:
            row = dict(zip(trace.cell_ids, states))
            assert all(row[c] is W for c in other)


def test_bridge_idle_restored_both_directions(catalog):
    for forward in (True, False):
        scenario = build_bridge("v1", forward=forward)
        final = scenario.run(catalog).states_at(scenario.default_steps)
        assert all(final[c] is W for c in scenario.segment_cells)


@pytest.mark.parametrize("name", ("v0-fwd", "v0-rev", "v1-fwd", "v1-rev"))
def test_bridge_link_walk_from_the_track_never_reaches_the_crossing_track(name):
    # so the locomotive cannot disturb the crossing track; what check_track
    # still checks there is that the catalogue keeps the idle crossing cells white
    scenario = SCENARIOS[name].build()
    reached, frontier = set(scenario.track_cells), list(scenario.track_cells)
    while frontier:
        for _, cell in scenario.graph.wiring(frontier.pop())[1]:
            if cell not in reached:
                reached.add(cell)
                frontier.append(cell)
    assert reached == set(scenario.track_cells)
    assert reached.isdisjoint(scenario.crossing_track)
    assert reached.union(scenario.crossing_track) == set(scenario.graph.cell_ids)


def test_bridge_rejects_unknown_track():
    with pytest.raises(ValueError):
        build_bridge("v2")


# --- invariants shared by every track scenario ---------------------------------

# registry name of each track scenario, by shape and heading
TRACK_NAMES = {
    "vertical": "vertical-{}-n7",
    "horizontal": "horizontal-{}-k5",
    "bridge-v0": "v0-{}",
    "bridge-v1": "v1-{}",
}


@pytest.mark.parametrize("heading", ("fwd", "rev"))
@pytest.mark.parametrize("shape", TRACK_NAMES)
def test_track_scenario_invariants(shape, heading, catalog):
    scenario = SCENARIOS[TRACK_NAMES[shape].format(heading)].build()
    forward = heading == "fwd"
    other = scenario.crossing_track
    chain = tuple(c for c in scenario.graph.cell_ids if c not in other)
    for a, b in zip(chain, chain[1:]):
        assert b in dict(scenario.graph.wiring(a)[1]).values(), f"{a} is not linked to {b}"
    track = chain if forward else chain[::-1]
    assert scenario.track_cells == track
    assert scenario.segment_cells == chain[SEGMENT_BUFFER : len(chain) - SEGMENT_BUFFER]
    assert scenario.initial.states[track[SEGMENT_BUFFER]] is R
    assert scenario.initial.states[track[SEGMENT_BUFFER + 1]] is B
    assert sum(s is not W for s in scenario.initial.states.values()) == 2
    assert scenario.default_steps == len(chain) - SEGMENT_BUFFER - 2
    result = check_track(scenario, scenario.run(catalog))
    assert result.ok, result.detail
    assert result.name == f"{'bridge' if shape.startswith('bridge') else 'segment'}:{scenario.name}"


@pytest.mark.parametrize(
    "build",
    [
        lambda: SCENARIOS["vertical-fwd-n7"].build(),
        lambda: SCENARIOS["vertical-rev-n7"].build(),
        lambda: SCENARIOS["horizontal-fwd-k5"].build(),
        lambda: SCENARIOS["horizontal-rev-k5"].build(),
        lambda: build_vertical_segment(3),
        lambda: build_vertical_segment(500, forward=False),
        lambda: build_horizontal_segment(20),
    ],
    ids=["vertical-fwd-n7", "vertical-rev-n7", "horizontal-fwd-k5", "horizontal-rev-k5", "n3", "n500-rev", "k20"],
)
def test_a_plain_track_layout_is_its_chain_on_a_line(build):
    # computed from the chain, it reads as the dict of float pairs it replaces: item for item, in order
    scenario = build()
    chain = scenario.graph.cell_ids
    drawn = {c: (float(i), 0.0) for i, c in enumerate(chain)}
    layout = scenario.layout
    assert list(layout.items()) == list(drawn.items())
    assert layout == drawn and len(layout) == len(drawn)
    for outside in (0, chain[-1] + 1, "1"):
        assert outside not in layout
        with pytest.raises(KeyError):
            layout[outside]
    with pytest.raises(TypeError):
        layout[chain[0]] = (1.0, 1.0)


# --- switch graphs -----------------------------------------------------------


def test_memory_idle_contexts_match_conservative_rows():
    rows = {
        7: "W B W B W W B B B W W W B",
        12: "W R W B W W B B B W W W B",
        17: "B W W B W W W W W W R R R",
        18: "R W W W W W B W W R R W R",
        19: "B B W R B R R R R W W W R",
        20: "B B W R W W R R R R W B R",
        21: "R B W W W W W W W W R R R",
        22: "B B W W W W W W W W R R R",
    }
    for cell, expected in rows.items():
        assert idle_context(SwitchKind.MEMORY, Side.LEFT, cell) == ctx(expected), f"cell {cell}"


def test_memory_right_swaps_sensor_and_marker_colours():
    assert idle_context(SwitchKind.MEMORY, Side.RIGHT, 19) == ctx("B B W R R B R R R W W W R")
    assert idle_context(SwitchKind.MEMORY, Side.RIGHT, 20) == ctx("B B W R W W R R R B W R R")


def test_flipflop_sensor_ring_of_five():
    assert idle_context(SwitchKind.FLIPFLOP, Side.LEFT, 17) == ctx("B W W B W W W R R R R R B")
    assert idle_context(SwitchKind.FLIPFLOP, Side.LEFT, 18) == ctx("R W W W W W B R R R R R B")
    assert idle_context(SwitchKind.FLIPFLOP, Side.LEFT, 19) == ctx("B W W R B R R R R W W W R")


def test_fixed_switch_idle_contexts():
    assert idle_context(SwitchKind.FIXED, Side.LEFT, 20) == ctx("B W W R W W R R R R W B R")
    assert idle_context(SwitchKind.FIXED, Side.LEFT, 19) == ctx("W W W W W W W W W W W W W")
    scenario = build_switch(SwitchKind.FIXED, Side.LEFT, CrossingMode.ACTIVE)
    assert scenario.initial.states[19] is W


def test_fixed_right_rejected():
    with pytest.raises(ValueError):
        build_switch(SwitchKind.FIXED, Side.RIGHT, CrossingMode.ACTIVE)


def test_idle_switch_is_stationary(catalog):
    graph, idle = idle_configuration(SwitchKind.MEMORY, Side.LEFT)
    trace = run(graph, idle, catalog, 7)
    assert all(states == trace.rows[0][1] for _, states in trace.rows)


def test_flipflop_passive_rejected():
    with pytest.raises(ValueError):
        build_switch(SwitchKind.FLIPFLOP, Side.LEFT, CrossingMode.PASSIVE_SELECTED)


def locomotive_start(kind, lat, mode):
    """Non-white cells of a switch scenario's start outside the switch cells 17..22."""
    initial = build_switch(kind, lat, mode).initial
    assert {c: initial.states[c] for c in range(17, 23)} == idle_states(kind)[lat]
    return {c: s for c, s in initial.states.items() if c < 17 and s is not W}


def test_crossing_start_positions():
    memory = SwitchKind.MEMORY
    assert locomotive_start(memory, Side.LEFT, CrossingMode.ACTIVE) == {2: R, 3: B}
    assert locomotive_start(memory, Side.LEFT, CrossingMode.PASSIVE_SELECTED) == {9: B, 10: R}
    assert locomotive_start(memory, Side.LEFT, CrossingMode.PASSIVE_NONSELECTED) == {14: B, 15: R}
    assert locomotive_start(memory, Side.RIGHT, CrossingMode.PASSIVE_SELECTED) == {14: B, 15: R}


@pytest.mark.parametrize("kind", list(SwitchKind))
def test_idle_states_cannot_be_altered_through_a_returned_mapping(kind):
    first = idle_states(kind)
    want = {side: dict(cells) for side, cells in first.items()}
    side, cells = next(iter(first.items()))
    with pytest.raises(TypeError):
        cells[17] = R
    with pytest.raises(TypeError):
        first[side] = {}
    with pytest.raises(TypeError):
        del first[side]
    assert idle_states(kind) == want
    assert build_switch(kind, Side.LEFT, CrossingMode.ACTIVE).initial.states[17] is want[Side.LEFT][17]


# --- switch wiring -----------------------------------------------------------

# the cells of every switch that are plain (1, 4) track in the frozen wiring: all but the core cells 7, 12 and 17..22
PLAIN_SWITCH_CELLS = (*range(1, 7), *range(8, 12), *range(13, 17))


def frozen_wiring(kind):
    """Every cell of a ``kind`` switch decoded from the frozen wiring, one cell at a time: the reference."""
    wiring = {}
    for cell, entry in load_switch_wiring()["kinds"][kind.value].items():
        links = {int(face): int(target) for face, target in entry.get("links", {}).items()}
        wiring[int(cell)] = milestones(entry.get("blue", ()), entry.get("red", ())), links
    return wiring


def assert_frozen_wiring(graph, kind):
    assert graph.cell_ids == tuple(range(1, 23))
    for cell, (fixed, links) in frozen_wiring(kind).items():
        assert graph.wiring(cell) == (fixed, tuple(sorted(links.items()))), f"{kind.value} cell {cell}"


@pytest.mark.parametrize("kind", list(SwitchKind))
def test_switch_graph_is_the_frozen_wiring_with_its_plain_cells_one_shared_straight(kind):
    graph = scenarios._switch_graph(kind)
    assert_frozen_wiring(graph, kind)
    plain = build_straight_element((1, 4))[0]
    assert all(graph.wiring(cell)[0] is plain for cell in PLAIN_SWITCH_CELLS)


def test_switch_graphs_read_only_the_core_cells_of_the_frozen_wiring(monkeypatch):
    cores = copy.deepcopy(load_switch_wiring())
    for table in cores["kinds"].values():
        for cell in PLAIN_SWITCH_CELLS:
            del table[str(cell)]
    monkeypatch.setattr(scenarios, "load_switch_wiring", lambda: cores)
    scenarios._switch_graph.cache_clear()
    try:
        for kind in SwitchKind:
            assert_frozen_wiring(scenarios._switch_graph(kind), kind)
    finally:
        scenarios._switch_graph.cache_clear()  # drop the graphs built from the trimmed table


# --- golden runs -------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_trace_token_for_token(name, catalog):
    got = trace_tokens(format_trace(SCENARIOS[name].build().run(catalog)))
    assert got == trace_tokens(golden_path(name).read_text())


def test_golden_files_have_expected_shape():
    for name in GOLDEN_NAMES:
        trace = load_golden_trace(name)
        assert trace.cell_ids == tuple(range(1, 23))
        assert [t for t, _ in trace.rows] == list(range(8))


# --- switch end-state semantics ----------------------------------------------


def final_row(name, catalog):
    trace = SCENARIOS[name].build().run(catalog)
    return trace, trace.states_at(7)


def test_memory_nonselected_crossing_flips_switch(catalog):
    trace, final = final_row("memo-left-nonsel", catalog)
    assert {c: final[c] for c in range(17, 23)} == idle_states(SwitchKind.MEMORY)[Side.RIGHT]
    at5 = trace.states_at(5)
    assert [at5[c].letter for c in range(17, 23)] == list("RBBBBR")


def test_memory_toggle_is_involution_at_state_level(catalog):
    # left --nonsel--> right pattern, and the right switch --nonsel--> left
    _, after_left = final_row("memo-left-nonsel", catalog)
    _, after_right = final_row("memo-right-nonsel", catalog)
    idle = idle_states(SwitchKind.MEMORY)
    mech = range(17, 23)
    assert {c: after_left[c] for c in mech} == idle[Side.RIGHT]
    assert {c: after_right[c] for c in mech} == idle[Side.LEFT]


def test_memory_selected_crossing_keeps_switch(catalog):
    _, final = final_row("memo-left-sel", catalog)
    assert {c: final[c] for c in range(17, 23)} == idle_states(SwitchKind.MEMORY)[Side.LEFT]


def test_flipflop_toggles_and_alternates_exits(catalog):
    trace_left, final_left = final_row("flipflop-left-active", catalog)
    trace_right, final_right = final_row("flipflop-right-active", catalog)
    assert (final_left[17], final_left[18]) == (R, B)  # now right-handed
    assert (final_right[17], final_right[18]) == (B, R)  # now left-handed
    # alternate exit tracks: first crossing leaves through 8.., second through 13..
    assert any(final_left[c] is not W for c in LEFT_BRANCH[1:])
    assert any(final_right[c] is not W for c in RIGHT_BRANCH[1:])


def test_fixed_switch_mechanism_unchanged_in_all_modes(catalog):
    for name in ("fixed-active", "fixed-sel", "fixed-nonsel"):
        trace = SCENARIOS[name].build().run(catalog)
        first = trace.states_at(0)
        last = trace.states_at(7)
        assert all(first[c] == last[c] for c in range(17, 23)), name


def test_active_crossing_never_enters_nonselected_branch(catalog):
    guard_cells = {
        "memo-left-active": 13,
        "memo-right-active": 8,
        "fixed-active": 13,
        "flipflop-left-active": 13,
        "flipflop-right-active": 8,
    }
    for name, guard in guard_cells.items():
        trace = SCENARIOS[name].build().run(catalog)
        assert all(trace.states_at(t)[guard] is W for t, _ in trace.rows), name


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_a_crossing_run_past_the_golden_window_stops_at_the_free_end_of_its_exit(name, catalog):
    # the front leaves the modelled track and the lone rear meets a context no rule covers
    scenario = SCENARIOS[name].build()
    kind, laterality, mode = scenario.crossing
    exit_, _ = railway.cross(railway.SwitchState(kind, laterality), mode)
    free_end = {Exit.U: APPROACH[0], Exit.LEFT: LEFT_BRANCH[-1], Exit.RIGHT: RIGHT_BRANCH[-1]}[exit_]
    with pytest.raises(EngineError) as err:
        scenario.run(catalog, 30)
    assert (err.value.cell, err.value.time, str(err.value.minimal)) == (free_end, 9, "R | W W W W W W W B B B B W")


def test_switch_scenario_run_returns_eight_rows(catalog):
    scenario = SCENARIOS["memo-left-active"].build()
    assert (scenario.initial.states[2], scenario.initial.states[3]) == (R, B)  # the crossing start
    trace = scenario.run(catalog)
    assert len(trace.rows) == 8
    assert trace.cell_ids == tuple(range(1, 23))


def test_crossings_of_one_switch_kind_share_its_graph(catalog):
    built = [entry.build() for entry in SCENARIOS.values()]
    graphs = {kind: {id(s.graph) for s in built if s.crossing and s.crossing[0] is kind} for kind in SwitchKind}
    assert all(len(ids) == 1 for ids in graphs.values())
    assert len(set.union(*graphs.values())) == 3
    left = build_switch(SwitchKind.MEMORY, Side.LEFT, CrossingMode.ACTIVE)
    right = build_switch(SwitchKind.MEMORY, Side.RIGHT, CrossingMode.PASSIVE_SELECTED)
    assert left.graph is right.graph
    # running one crossing leaves the other's start, and so its golden run, as built
    start = dict(right.initial.states)
    left.run(catalog)
    assert right.initial.states == start != left.initial.states
    assert trace_divergence(right.run(catalog), load_golden_trace(right.name)) is None


def test_scenario_catalog_names():
    assert list(SCENARIOS) == [
        "memo-left-active",
        "memo-left-sel",
        "memo-left-nonsel",
        "memo-right-active",
        "memo-right-sel",
        "memo-right-nonsel",
        "fixed-active",
        "fixed-sel",
        "fixed-nonsel",
        "flipflop-left-active",
        "flipflop-right-active",
        "vertical-fwd-n7",
        "vertical-rev-n7",
        "horizontal-fwd-k5",
        "horizontal-rev-k5",
        "v1-fwd",
        "v1-rev",
        "v0-fwd",
        "v0-rev",
    ]
    assert [entry.build().name for entry in SCENARIOS.values()] == list(SCENARIOS)
