"""Builders for the runnable cell graphs: track segments, bridges and switches.

A track element is plain data, ``(fixed, (entry, exit))``: its 12 fixed
states, blue milestones and white elsewhere, and the faces the locomotive
enters and leaves by.  A straight element has blue milestones on faces 2, 5,
6, 7 and passes the locomotive between face 1 and one of faces 3, 4, 8, 10; a
corner has seven milestones (faces 3, 5, 6, 7, 8, 10, 11), a white back on
face 0 and exits on faces 1 and 2.  Each shape is one shared element, so
``CellGraph`` checks and codes its fixed tuple once.  Segment scenarios chain
elements and keep a few extra plain cells past each end so the locomotive is
still on modelled track for every step a test runs; the cells outside the
chain are a permanently white boundary.

A switch graph (22 cells, printed as columns 1..22) is its core on plain
track.  Cells 1..16 are three chains of the (1, 4) straight: the approach
ending in the centre, whose faces 3 and 4 lead to the left and the right arm.
The frozen wiring in ``data/switch_wiring.json`` gives only the core cells,
each arm's first cell and the switch cells 17..22 (milestone faces decoded by
``milestones``, and links), and those switch cells in an idle switch for each
selected side.  Each kind's graph is built once and shared by its crossings.
``build_switch`` sets the idle states and puts the locomotive on the approach
(active crossing) or on the arm the crossing enters by (passive), for the 7
steps the golden runs cover; ``ca_outcome`` reads the exit and the selected
side back off the run.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import product
from types import MappingProxyType

from .catalog import load_switch_wiring
from .engine import (
    CellGraph,
    CellId,
    Trace,
    run,
    uniform_configuration,
    with_states,
)
from .pentagrid import fibonacci_word
from .railway import CrossingMode, Exit, Side, SwitchKind
from .rules import B, CellState, R, RuleTable, W, states_from_letters

STRAIGHT_EXIT_PAIRS = ((1, 3), (1, 4), (1, 8), (1, 10))
STRAIGHT_MILESTONES = (2, 5, 6, 7)
CORNER_MILESTONES = (3, 5, 6, 7, 8, 10, 11)
CORNER_EXITS = (1, 2)

SEGMENT_BUFFER = 5  # plain cells kept past each end of a segment under test
_HEADING = {True: "fwd", False: "rev"}  # travel direction in a track scenario's name


def milestones(blue: Iterable[int], red: Iterable[int] = ()) -> tuple[CellState, ...]:
    """The 12 fixed states of a cell with milestones on these faces, white elsewhere."""
    colour = {**{face: R for face in red}, **{face: B for face in blue}}
    return tuple(colour.get(face, W) for face in range(12))


# a track element: its fixed states and its (entry, exit) faces
Element = tuple[tuple[CellState, ...], tuple[int, int]]

# one value per shape, so every cell of one shape shares its fixed tuple
_STRAIGHTS: dict[tuple[int, int], Element] = {pair: (milestones(STRAIGHT_MILESTONES), pair) for pair in STRAIGHT_EXIT_PAIRS}
_CORNER: Element = milestones(CORNER_MILESTONES), CORNER_EXITS


def build_straight_element(exit_pair: tuple[int, int]) -> Element:
    """A straight track element whose usable exits are the given face pair."""
    if tuple(exit_pair) not in STRAIGHT_EXIT_PAIRS:
        raise ValueError(f"not a straight exit pair: {exit_pair}")
    return _STRAIGHTS[tuple(exit_pair)]


def build_corner() -> Element:
    return _CORNER


_SCENARIO_FIELDS = (
    "name",
    "graph",
    "initial",
    "track_cells",  # cells along the locomotive's path, in travel order (empty for switches)
    "segment_cells",  # the sub-span whose return to all-white is asserted after a traversal
    "default_steps",
    # where ``render`` draws each cell: a read-only mapping, computed from the chain on plain track, or None,
    # which it refuses
    "layout",
    # a bridge's other track, which must stay white; verify.check_track judges a scenario with one as a bridge
    "crossing_track",
    "crossing",  # the (kind, side, mode) ``build_switch`` was called with, or None
)


# every field from track_cells on has a default
class Scenario(namedtuple("Scenario", _SCENARIO_FIELDS, defaults=((), (), 7, None, (), None))):
    """A built graph, its initial configuration and what its checks read; unhashable, as its configuration is."""

    __slots__ = ()

    def run(self, table: RuleTable, n_steps: int | None = None) -> Trace:
        steps = self.default_steps if n_steps is None else n_steps
        return run(self.graph, self.initial, table, steps)


# per cell, its fixed states and its {face: cell} links: what a CellGraph is built from
Wiring = dict[CellId, tuple[tuple[CellState, ...], dict[int, CellId]]]


def _chains(*chains: list[Element]) -> tuple[Wiring, list[range]]:
    """Each list's elements chained exit face to the next one's entry face, ends left open.

    Ids count from 1 through the lists one after another; returns the wiring and each chain's ids.
    """
    wiring: Wiring = {}
    ids = []
    for elements in chains:
        cells = range(len(wiring) + 1, len(wiring) + len(elements) + 1)
        for cell, (fixed, (entry, exit_)) in zip(cells, elements):
            links: dict[int, CellId] = {}
            if cell > cells[0]:
                links[entry] = cell - 1
            if cell < cells[-1]:
                links[exit_] = cell + 1
            wiring[cell] = fixed, links
        ids.append(cells)
    return wiring, ids


class ChainLayout(Mapping):
    """A chain drawn as a straight line, read-only: its i-th cell at ``(float(i), 0.0)``, computed when read."""

    __slots__ = ("cells",)

    def __init__(self, cells: range):
        self.cells = cells

    def __getitem__(self, cell: CellId) -> tuple[float, float]:
        try:
            return float(self.cells.index(cell)), 0.0
        except ValueError:
            raise KeyError(cell) from None

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"ChainLayout({self.cells!r})"


def _track_scenario(
    name: str,
    wiring: Wiring,
    chain: range,
    forward: bool,
    **fields,
) -> Scenario:
    """The locomotive on ``chain``, ``SEGMENT_BUFFER`` cells in from the end it starts at.

    It starts as rear R then front B, pointing along the chain (or against it
    when not ``forward``), and runs until its front reaches the last cell of
    the chain; the buffer cells at each end lie outside the segment under
    test.  The layout defaults to the chain drawn as a straight line, a
    ``ChainLayout`` that stores no position.
    """
    graph = CellGraph(wiring)
    cells = graph.cell_ids[chain.start - 1 : chain.stop - 1]  # ids count from 1: the graph's own id objects, shared
    track = cells if forward else cells[::-1]
    fields.setdefault("layout", ChainLayout(chain))
    return Scenario(
        name=name,
        graph=graph,
        initial=with_states(uniform_configuration(graph), {track[SEGMENT_BUFFER]: R, track[SEGMENT_BUFFER + 1]: B}),
        track_cells=track,
        segment_cells=cells[SEGMENT_BUFFER : len(cells) - SEGMENT_BUFFER],
        default_steps=len(chain) - SEGMENT_BUFFER - 2,
        **fields,
    )


def build_vertical_segment(n: int, forward: bool = True) -> Scenario:
    """``n`` straight elements chained exit-4 to entry-1, plus end buffers."""
    if n < 3:
        raise ValueError(f"vertical segment needs n >= 3, got {n}")
    straight = build_straight_element((1, 4))
    wiring, (chain,) = _chains([straight] * (n + 2 * SEGMENT_BUFFER))
    return _track_scenario(f"vertical-{_HEADING[forward]}-n{n}", wiring, chain, forward)


def horizontal_exit_faces(k: int) -> tuple[int, ...]:
    """Exit face (4 or 10) of each straight block, following the Fibonacci word."""
    word = fibonacci_word(k)
    return tuple(4 if letter == "a" else 10 for letter in word)


def build_horizontal_segment(k: int, forward: bool = True) -> Scenario:
    """Alternating straight/corner blocks, straight exits riding the Fibonacci word."""
    if k < 2:
        raise ValueError(f"horizontal segment needs k >= 2, got {k}")
    plain = build_straight_element((1, 4))
    corner = build_corner()
    elements = [plain] * SEGMENT_BUFFER
    for exit_face in horizontal_exit_faces(k):
        elements += [build_straight_element((1, exit_face)), corner]
    elements += [plain] * SEGMENT_BUFFER
    wiring, (chain,) = _chains(elements)
    return _track_scenario(f"horizontal-{_HEADING[forward]}-k{k}", wiring, chain, forward)


def build_bridge(active_track: str = "v1", forward: bool = True) -> Scenario:
    """Two crossing tracks: v0 runs straight through, v1 detours over the deck.

    The deck is a short horizontal run (corner, straight, corner) reached by
    ramp elements using the (1, 3) exits; in the cell graph the two tracks
    share no cell, which is the whole point of the bridge.
    """
    if active_track not in ("v0", "v1"):
        raise ValueError(f"unknown track: {active_track}")
    plain = build_straight_element((1, 4))
    ramp = build_straight_element((1, 3))
    corner = build_corner()

    approach = [plain] * (SEGMENT_BUFFER + 2)
    wiring, (v0_chain, v1_chain) = _chains(
        [plain] * (7 + 2 * SEGMENT_BUFFER), [*approach, ramp, corner, plain, corner, ramp, *approach]
    )
    chain, other = (v0_chain, v1_chain) if active_track == "v0" else (v1_chain, v0_chain)

    deck = v1_chain[SEGMENT_BUFFER + 2 : SEGMENT_BUFFER + 7]
    layout = {c: (float(i), 0.0) for i, c in enumerate(v0_chain)}
    for i, c in enumerate(v1_chain):
        layout[c] = (float(i), 3.0 if c in deck else 2.0)
    name = f"{active_track}-{_HEADING[forward]}"
    return _track_scenario(name, wiring, chain, forward, layout=layout, crossing_track=tuple(other))


_PLAIN = build_straight_element((1, 4))
# a switch's plain track: the approach ending in the centre, then the left and the right arm, whose first cells are core
_SWITCH_TRACK, _SWITCH_CHAINS = _chains([_PLAIN] * 6, [_PLAIN] * 5, [_PLAIN] * 5)
_STEM, LEFT_BRANCH, RIGHT_BRANCH = map(tuple, _SWITCH_CHAINS)
APPROACH, CENTRE = _STEM[:-1], _STEM[-1]

_SWITCH_LAYOUT: dict[CellId, tuple[float, float]] = {
    **{c: (0.0, float(c - 6)) for c in _STEM},
    **{c: (-0.8 * (c - 6), 0.8 * (c - 6)) for c in LEFT_BRANCH},
    **{c: (0.8 * (c - 11), 0.8 * (c - 11)) for c in RIGHT_BRANCH},
    # sensors beside their scanned cells; controller stack and markers west
    17: (-1.6, -0.6),
    18: (1.6, -0.6),
    19: (-1.6, -3.0),
    20: (-1.6, -1.8),
    21: (-2.8, -1.2),
    22: (-2.8, -2.4),
}


@lru_cache(maxsize=None)
def _switch_graph(kind: SwitchKind) -> CellGraph:
    """The 22-cell graph of a ``kind`` switch, built once: a ``CellGraph`` is immutable, so every crossing shares it."""
    table = load_switch_wiring()["kinds"][kind.value]
    wiring = dict(_SWITCH_TRACK)
    fixed, links = wiring[CENTRE]
    wiring[CENTRE] = fixed, {**links, 3: LEFT_BRANCH[0], 4: RIGHT_BRANCH[0]}
    for cell in (LEFT_BRANCH[0], RIGHT_BRANCH[0], *range(17, 23)):
        entry = table[str(cell)]
        links = {int(face): int(target) for face, target in entry.get("links", {}).items()}
        wiring[cell] = milestones(entry.get("blue", ()), entry.get("red", ())), links
    return CellGraph(wiring)


@lru_cache(maxsize=None)
def idle_states(kind: SwitchKind) -> Mapping[Side, Mapping[CellId, CellState]]:
    """Switch cells 17..22 of an idle switch, for each side it can select; decoded once per kind, read-only."""
    by_side = load_switch_wiring()["idle_states"][kind.value]
    return MappingProxyType({
        Side(side): MappingProxyType(dict(zip(map(int, cells), states_from_letters(cells.values()))))
        for side, cells in by_side.items()
    })


def switch_name(kind: SwitchKind, laterality: Side, mode: CrossingMode) -> str:
    """``memo-left-sel``, ``flipflop-right-active``; the fixed switch, only left-handed, is ``fixed-<mode>``."""
    if kind is SwitchKind.FIXED:
        return f"fixed-{mode.value}"
    prefix = "memo" if kind is SwitchKind.MEMORY else kind.value
    return f"{prefix}-{laterality.value}-{mode.value}"


def check_crossing(kind: SwitchKind, laterality: Side, mode: CrossingMode) -> None:
    """Raise ``ValueError`` for a crossing the model has no switch for."""
    if kind is SwitchKind.FIXED and laterality is not Side.LEFT:
        raise ValueError("the fixed switch only exists left-handed; mirror it with a bridge")
    if kind is SwitchKind.FLIPFLOP and mode is not CrossingMode.ACTIVE:
        raise ValueError(f"a flip-flop switch is only crossed actively, not in mode {mode.value!r}")


def build_switch(kind: SwitchKind, laterality: Side, mode: CrossingMode) -> Scenario:
    """The switch idle on ``laterality``, with the locomotive (rear R, front B) placed for a ``mode`` crossing."""
    check_crossing(kind, laterality, mode)
    if mode is CrossingMode.ACTIVE:
        locomotive = {APPROACH[1]: R, APPROACH[2]: B}
    else:
        arm_side = laterality if mode is CrossingMode.PASSIVE_SELECTED else laterality.other
        arm = LEFT_BRANCH if arm_side is Side.LEFT else RIGHT_BRANCH
        locomotive = {arm[2]: B, arm[3]: R}
    graph = _switch_graph(kind)
    return Scenario(
        name=switch_name(kind, laterality, mode),
        graph=graph,
        initial=with_states(uniform_configuration(graph), {**idle_states(kind)[laterality], **locomotive}),
        layout=dict(_SWITCH_LAYOUT),
        crossing=(kind, laterality, mode),
    )


def ca_outcome(trace: Trace, kind: SwitchKind) -> tuple[Exit, Side]:
    """Exit branch taken and final selected side, read off a crossing trace.

    The selected side is the one whose idle state the switch cells are back
    in at the end of the run.
    """
    final = trace.states_at(trace.end)
    if any(final[c] is not W for c in APPROACH):
        exit_taken = Exit.U
    elif any(final[c] is not W for c in LEFT_BRANCH[1:]):
        exit_taken = Exit.LEFT
    elif any(final[c] is not W for c in RIGHT_BRANCH[1:]):
        exit_taken = Exit.RIGHT
    else:
        raise ValueError("no locomotive on any exit track at the end of the run")
    idle = idle_states(kind)
    for side, cells in idle.items():
        if all(final[c] is state for c, state in cells.items()):
            return exit_taken, side
    read = " ".join(f"{c}:{final[c].letter}" for c in next(iter(idle.values())))
    raise ValueError(f"switch cells read {read}, no idle state of the {kind.value} switch")


class NamedScenario(namedtuple("NamedScenario", "builder args", defaults=((),))):
    """A registry entry: a builder and its arguments, built only when asked for."""

    __slots__ = ()

    def build(self) -> Scenario:
        return self.builder(*self.args)


def _switch_entries() -> dict[str, NamedScenario]:
    """Every crossing ``check_crossing`` accepts: memory, fixed, then flip-flop switches."""
    entries = {}
    for kind, lat, mode in product((SwitchKind.MEMORY, SwitchKind.FIXED, SwitchKind.FLIPFLOP), Side, CrossingMode):
        try:
            check_crossing(kind, lat, mode)
        except ValueError:
            continue
        entries[switch_name(kind, lat, mode)] = NamedScenario(build_switch, (kind, lat, mode))
    return entries


# Every scenario ``verify-all`` runs, in its order, keyed by the name its checks print.
SCENARIOS: dict[str, NamedScenario] = {
    **_switch_entries(),
    "vertical-fwd-n7": NamedScenario(build_vertical_segment, (7,)),
    "vertical-rev-n7": NamedScenario(build_vertical_segment, (7, False)),
    "horizontal-fwd-k5": NamedScenario(build_horizontal_segment, (5,)),
    "horizontal-rev-k5": NamedScenario(build_horizontal_segment, (5, False)),
    "v1-fwd": NamedScenario(build_bridge, ("v1",)),
    "v1-rev": NamedScenario(build_bridge, ("v1", False)),
    "v0-fwd": NamedScenario(build_bridge, ("v0",)),
    "v0-rev": NamedScenario(build_bridge, ("v0", False)),
}
