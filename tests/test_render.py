import hashlib
import re

import pytest

from dodecagrid.engine import CellGraph, Configuration, uniform_configuration
from dodecagrid.render import FILL, PALE, LayoutError, ViewSide, render_scenario
from dodecagrid.rules import B, R, W
from dodecagrid.scenarios import SCENARIOS, CrossingMode, Scenario, build_switch, build_vertical_segment
from dodecagrid.railway import Side, SwitchKind

# one isolated cell with a distinct state on every readable face
FACE_STATES = (W, B, R, W, B, R, W, B, R, W, B, R)
BLANK = ((W,) * 12, {})


def one_cell_scenario():
    graph = CellGraph({1: (FACE_STATES, {})})
    return Scenario(
        name="probe",
        graph=graph,
        initial=uniform_configuration(graph),
        layout={1: (0.0, 0.0)},
    )


def fills(svg_text):
    return re.findall(r'fill="([^"]+)"', svg_text)


def test_render_is_deterministic(catalog):
    scenario = build_switch(SwitchKind.MEMORY, Side.LEFT, CrossingMode.ACTIVE)
    a = render_scenario(scenario, scenario.initial, ViewSide.ABOVE)
    b = render_scenario(scenario, scenario.initial, ViewSide.ABOVE)
    assert a == b


def test_all_white_configuration_renders_empty_body():
    graph = CellGraph({1: BLANK})
    scenario = Scenario("blank", graph, uniform_configuration(graph), layout={1: (0.0, 0.0)})
    svg = render_scenario(scenario, scenario.initial, ViewSide.ABOVE)
    lines = [line for line in svg.splitlines() if line]
    assert lines[0].startswith("<svg")
    assert lines[-1] == "</svg>"
    assert len(lines) == 2


def test_missing_layout_rejected():
    graph = CellGraph({1: BLANK})
    scenario = Scenario("nolayout", graph, uniform_configuration(graph), (1,))
    with pytest.raises(LayoutError):
        render_scenario(scenario, scenario.initial, ViewSide.ABOVE)


def test_face_colours_come_from_neighbours_above():
    scenario = one_cell_scenario()
    svg = render_scenario(scenario, scenario.initial, ViewSide.ABOVE)
    got = fills(svg)
    # drawn order: outer ring faces 1..5, inner ring faces 6..10, centre face 11
    expected = [FILL[FACE_STATES[f]] for f in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)]
    assert got == expected


def test_face_colours_come_from_neighbours_below():
    scenario = one_cell_scenario()
    svg = render_scenario(scenario, scenario.initial, ViewSide.BELOW)
    got = fills(svg)
    expected = [FILL[FACE_STATES[f]] for f in (6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 0)]
    assert got == expected


def test_below_view_mirrors_x(catalog):
    scenario = build_vertical_segment(4)
    idle = uniform_configuration(scenario.graph)
    above = render_scenario(scenario, idle, ViewSide.ABOVE)
    below = render_scenario(scenario, idle, ViewSide.BELOW)
    xs_above = [float(m) for m in re.findall(r'points="([-\d.]+),', above)]
    xs_below = [float(m) for m in re.findall(r'points="([-\d.]+),', below)]
    assert xs_above and len(xs_above) == len(xs_below)
    assert xs_above == [-x for x in xs_below]


def test_below_view_marks_locomotive_with_pale_hue():
    scenario = one_cell_scenario()
    config = Configuration({1: B}, 0)
    svg = render_scenario(scenario, config, ViewSide.BELOW)
    assert fills(svg)[-1] == PALE[B]
    above = render_scenario(scenario, config, ViewSide.ABOVE)
    assert PALE[B] not in fills(above)


def test_quiet_cells_omitted(catalog):
    scenario = build_vertical_segment(4)
    svg = render_scenario(scenario, scenario.initial, ViewSide.ABOVE)
    drawn = {int(m) for m in re.findall(r'data-cell="(\d+)"', svg)}
    # every track cell has blue milestones, so none is omitted here
    assert drawn == set(scenario.graph.cell_ids)
    # but a cell with an all-white neighbourhood disappears
    graph_cells = CellGraph({1: BLANK})
    quiet = Scenario("q", graph_cells, uniform_configuration(graph_cells), layout={1: (0.0, 0.0)})
    assert 'data-cell' not in render_scenario(quiet, quiet.initial, ViewSide.ABOVE)


# per scenario, the first 16 hex digits of the sha256 of its four SVGs: times 0 and 3, each from above then below
RENDER_DIGESTS = {
    "memo-left-active": "93b6ffd36d25ef41",
    "memo-left-sel": "2a6d47c6afd2aab1",
    "memo-left-nonsel": "8725df276374cc09",
    "memo-right-active": "a3300ef9852a0eee",
    "memo-right-sel": "0e4b3459088d4d04",
    "memo-right-nonsel": "b3b496c077191eef",
    "fixed-active": "962d874b7f0e11fd",
    "fixed-sel": "3dc9bc1e42e5ebe6",
    "fixed-nonsel": "5e1bb398d2d7a4f6",
    "flipflop-left-active": "e72f7744df0f0d8e",
    "flipflop-right-active": "84e511fe7a00f1fb",
    "vertical-fwd-n7": "0effe846497b9825",
    "vertical-rev-n7": "a037121339673857",
    "horizontal-fwd-k5": "8cd66d23320487e1",
    "horizontal-rev-k5": "089bc8aef883dd9f",
    "v1-fwd": "a7e3fa1eba424da8",
    "v1-rev": "d31dacbb5f277f68",
    "v0-fwd": "ad5b887481702248",
    "v0-rev": "d78f9248eb525af6",
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_renders_its_pinned_frames(catalog, name):
    scenario = SCENARIOS[name].build()
    trace = scenario.run(catalog, 3)
    h = hashlib.sha256()
    for t in (0, 3):
        frame = Configuration(trace.states_at(t), t)
        for side in (ViewSide.ABOVE, ViewSide.BELOW):
            h.update(render_scenario(scenario, frame, side).encode())
    assert h.hexdigest()[:16] == RENDER_DIGESTS[name]
