"""Synchronous execution of the automaton over an explicit cell graph.

Each cell is wired as 12 fixed states, one per face (milestones, quiescent
surroundings, region boundary), plus links from some of its white faces to
other cells of the graph; a linked face shows the linked cell's state.  A
step reads every context from the old configuration, so update order is
immaterial; the new configuration is a fresh value.

With 12 faces and 3 states, a context is exactly 13 base-3 digits, its code
``current * 3**12 + sum(neighbour_f * 3**f)``.  A ``CellGraph`` checks each
cell's fixed states and links in one pass and keeps them, two tuples per cell.
The same pass derives what the codes need: each cell's base, the code of its
fixed states, and its feeds, ``(cell, 3**12)`` and ``(reader, 3**f)`` for
each cell that reads it through face ``f``.

``step`` is the full-sweep reference: it reads every cell's wiring through
``context_of``.  ``run`` reads only the bases and feeds and gives the same
result while evaluating only the cells whose context can have changed: every
cell on the first step, afterwards only the cells fed by the cells that
changed.  This is exact because a cell whose own state and 12 neighbours are
unchanged has the same context, so the deterministic ``RuleTable.lookup``
gives it the same new state as before, which is its current one.  Dirty
cells are evaluated in ``graph.cell_ids`` order, so an uncovered context
raises the same ``EngineError`` (cell, time and context) as the full sweep.

``run`` starts each code from the cell's base plus ``state * weight`` along
the feeds of every non-white cell, and after each step adds ``(new - old) *
weight`` along the feeds of the cells that changed.  A run-local memo maps
each code met to its new state; only a code the run has not met yet is
decoded into the plain ``(current, neighbours)`` pair that ``lookup`` takes.
The pair shares the table's cache entries with a ``Context``, which equals
and hashes as it, and ``EngineError`` still carries a ``Context``.  Both
``run`` and ``step`` refuse, with a ``ConfigurationError``, a configuration
that does not give exactly the graph's cells a ``CellState`` each.

A ``Trace`` stores what ``run`` computes and no more: the initial row and,
for each step, the ``(cell index, new state)`` pairs that changed.  A run's
time and memory therefore follow its activity, not the size of its graph.
``Trace.rows`` rebuilds the dense rows on demand, which costs one tuple of
``len(cell_ids)`` states per row; ``Trace.states_at`` replays only up to the
row it returns.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import product

from .rules import CellState, Context, MissingRuleError, RuleTable, W, states_from_letters

CellId = int


class GraphError(ValueError):
    pass


class ConfigurationError(ValueError):
    """A configuration without a ``CellState`` for a graph cell, or with a state for another cell; located by cell."""


class TraceFormatError(ValueError):
    """A trace text not in the ``format_trace`` layout, located by line."""


class EngineError(RuntimeError):
    """A missing rule surfaced during a run, located by cell and time, with the context's minimal form."""

    def __init__(self, cell: CellId, time: int, missing: MissingRuleError):
        self.cell = cell
        self.time = time
        self.context = missing.context
        self.minimal = missing.minimal
        super().__init__(f"cell {cell} at time {time}: {missing} (minimal form {self.minimal})")


# A cell's context code is current * 3**12 + sum(neighbour_f * 3**f): one int per context.
_FACE_WEIGHTS = tuple(3**face for face in range(12))
_CURRENT_WEIGHT = 3**12
# The states of 6 faces in face order, indexed by their code sum(state_k * 3**k).
_HALVES = tuple(half[::-1] for half in product(CellState, repeat=6))
_HALF_WEIGHT = 3**6


def _context_pair(code: int) -> tuple[CellState, tuple[CellState, ...]]:
    """The ``(current, neighbours)`` pair whose context code is ``code``."""
    current, neighbours = divmod(code, _CURRENT_WEIGHT)
    high, low = divmod(neighbours, _HALF_WEIGHT)
    return CellState(current), _HALVES[low] + _HALVES[high]


class CellGraph:
    """Immutable wiring of a finite set of cells: 12 fixed states plus links per cell, checked in one pass.

    Each cell is given as ``(fixed, links)``: ``fixed`` holds the 12 ``CellState``s
    its faces show where nothing is linked, and ``links`` maps faces to other
    (hashable) cells.  A link sits on a face in 0..11 whose fixed state is
    ``W``, never names its own cell, and has exactly one link back.  The first
    fault in cell order (a cell's fixed states, then its links in face order)
    raises a located ``GraphError``; return links are counted last, from the
    feeds.  ``cell_ids`` keeps the insertion order, and ``wiring(cell)`` a copy
    of what was given, the links as face-ordered pairs, which ``CellGraph``
    takes back.  The same pass derives each cell's base and feeds, which
    ``run`` codes contexts with.  A fixed tuple that several cells share, as
    every cell of one track-element shape does (an element is ``(fixed,
    exits)``, one shared value per shape), is checked and coded once, at the
    first cell that uses it.
    """

    def __init__(self, wiring_by_cell: Mapping[CellId, tuple[Iterable[CellState], Mapping[int, CellId]]]):
        index = {cell: i for i, cell in enumerate(wiring_by_cell)}
        self.cell_ids: tuple[CellId, ...] = tuple(index)
        self._wiring: dict[CellId, tuple[tuple[CellState, ...], tuple[tuple[int, CellId], ...]]] = {}
        # per cell j, (j, 3**12) and (i, 3**f) for each cell i that reads j through face f
        self._feeds: list[list[tuple[int, int]]] = [[(i, _CURRENT_WEIGHT)] for i in range(len(index))]
        self._bases: list[int] = []  # per cell, the code of its fixed states
        all_links = []  # (cell index, face, target index) of every link
        # id(fixed) -> (fixed, base) of each fixed tuple already checked: builders give every cell of
        # one shape the same tuple; holding the tuple keeps its id from being reused by another
        coded_fixed: dict[int, tuple[tuple[CellState, ...], int]] = {}
        for i, (cell, wiring) in enumerate(wiring_by_cell.items()):
            try:
                fixed, links = wiring
                fixed, links = tuple(fixed), dict(links)
            except (TypeError, ValueError):
                raise GraphError(f"cell {cell}: {wiring!r} is not a (fixed states, links) pair") from None
            coded = coded_fixed.get(id(fixed))
            if coded is None:
                if len(fixed) != 12:
                    raise GraphError(f"cell {cell}: expected 12 fixed states, got {len(fixed)}")
                base = 0
                for face, state in enumerate(fixed):
                    if not isinstance(state, CellState):  # 5 would be coded as B, "B" not at all
                        raise GraphError(f"cell {cell} face {face}: fixed state {state!r} is not a CellState")
                    base += state * _FACE_WEIGHTS[face]
                coded_fixed[id(fixed)] = fixed, base
            else:
                base = coded[1]
            for face in links:
                if type(face) is not int or not 0 <= face < 12:
                    raise GraphError(f"cell {cell}: link on {face!r}, not a face in 0..11")
            links = tuple(sorted(links.items()))
            for face, target in links:
                if fixed[face] is not W:  # a link would hide the milestone fixed there
                    raise GraphError(f"cell {cell} face {face} links over fixed state {fixed[face].letter}")
                if target == cell:  # no cell of {5,3,4} is its own face-neighbour
                    raise GraphError(f"cell {cell} face {face} links to itself")
                try:
                    j = index.get(target)
                except TypeError:  # no cell id is unhashable
                    raise GraphError(f"cell {cell} face {face} links to unhashable target {target!r}") from None
                if j is None:
                    raise GraphError(f"cell {cell} face {face} links to unknown cell {target}")
                self._feeds[j].append((i, _FACE_WEIGHTS[face]))
                all_links.append((i, face, j))
            self._wiring[cell] = fixed, links
            self._bases.append(base)
        for i, face, j in all_links:
            # each link from cell j back to cell i put j among the cells that i feeds
            if (back := [k for k, _ in self._feeds[i]].count(j)) != 1:
                cell, target = self.cell_ids[i], self.cell_ids[j]
                raise GraphError(f"link {cell}/{face} -> {target} has {back} return links, expected exactly 1")

    def __len__(self) -> int:
        return len(self.cell_ids)

    def wiring(self, cell: CellId) -> tuple[tuple[CellState, ...], tuple[tuple[int, CellId], ...]]:
        """The 12 fixed states of ``cell`` and its ``(face, cell)`` links in face order."""
        return self._wiring[cell]


# every cell's state, ``{cell: CellState}``, at one time
Configuration = namedtuple("Configuration", "states time", defaults=(0,))


def uniform_configuration(graph: CellGraph) -> Configuration:
    """Every cell white, at time 0."""
    return Configuration({cell: W for cell in graph.cell_ids})


def with_states(config: Configuration, overrides: Mapping[CellId, CellState]) -> Configuration:
    states = dict(config.states)
    states.update(overrides)
    return Configuration(states, config.time)


def _cell_states(graph: CellGraph, config: Configuration) -> list[CellState]:
    """The ``CellState`` of each cell of ``graph`` in ``config``, in ``cell_ids`` order, and of no other cell."""
    states = config.states
    out = []
    for cell in graph.cell_ids:
        state = states.get(cell)
        if not isinstance(state, CellState):
            found = f"{state!r} is not a CellState" if cell in states else "is missing"
            raise ConfigurationError(f"cell {cell}: configuration state {found}")
        out.append(state)
    if len(states) != len(out):  # every graph cell has a state, so the rest are strays
        stray = next(cell for cell in states if cell not in graph._wiring)
        raise ConfigurationError(f"cell {stray}: configuration state for a cell the graph lacks")
    return out


def context_of(graph: CellGraph, config: Configuration, cell: CellId) -> Context:
    """Current state plus the 12 neighbour states: fixed, or the linked cell's; a missing state raises ``ConfigurationError``."""
    fixed, links = graph.wiring(cell)
    states = config.states
    neighbors = list(fixed)
    try:
        for face, linked in links:
            neighbors[face] = states[linked]
        return Context(states[cell], tuple(neighbors))
    except KeyError as exc:
        raise ConfigurationError(f"cell {exc.args[0]}: configuration state is missing") from None


def step(graph: CellGraph, config: Configuration, table: RuleTable) -> Configuration:
    _cell_states(graph, config)
    new_states: dict[CellId, CellState] = {}
    for cell in graph.cell_ids:
        ctx = context_of(graph, config, cell)
        try:
            new_states[cell] = table.lookup(ctx)
        except MissingRuleError as exc:
            raise EngineError(cell, config.time, exc) from None
    return Configuration(new_states, config.time + 1)


class Trace(namedtuple("Trace", "cell_ids start initial changes")):
    """Rows of states over a fixed cell ordering, stored as the first row and each step's changes.

    Row ``k`` is at time ``start + k``.  ``changes[k]`` lists the ``(index
    into cell_ids, new state)`` pairs that differ between rows ``k`` and
    ``k + 1``, in ascending index order.  There is always a first row: an
    ``initial`` of None raises ``TraceFormatError``.
    Reading ``rows`` replays every step into a dense row of
    ``len(cell_ids)`` states; ``states_at`` stops at its row.
    """

    __slots__ = ()

    def __new__(cls, cell_ids: tuple[CellId, ...], start: int, initial: tuple[CellState, ...], changes: tuple) -> Trace:
        if initial is None:
            raise TraceFormatError(f"trace of {len(cell_ids)} cells has no rows")
        return super().__new__(cls, cell_ids, start, initial, changes)

    @classmethod
    def from_rows(cls, cell_ids: Iterable[CellId], rows: Iterable[tuple[int, Iterable[CellState]]]) -> Trace:
        """The trace of dense ``(time, states)`` rows, at least one, whose times must count up by one."""
        cell_ids = tuple(cell_ids)
        start = initial = previous = None
        changes = []
        for t, states in rows:
            states = tuple(states)
            if len(states) != len(cell_ids):
                raise TraceFormatError(f"row at time {t} has {len(states)} states for {len(cell_ids)} cells")
            if previous is None:
                start, initial = t, states
            elif t != start + len(changes) + 1:
                raise TraceFormatError(f"time {t} after time {start + len(changes)}")
            else:
                changes.append(tuple((i, s) for i, (old, s) in enumerate(zip(previous, states)) if s != old))
            previous = states
        return cls(cell_ids, start, initial, tuple(changes))

    @property
    def end(self) -> int:
        """Time of the last row."""
        return self.start + len(self.changes)

    @property
    def rows(self) -> tuple[tuple[int, tuple[CellState, ...]], ...]:
        """Every ``(time, states)`` row, replayed from the changes."""
        states = list(self.initial)
        rows = [(self.start, self.initial)]
        for t, changes in enumerate(self.changes, start=self.start + 1):
            for i, new in changes:
                states[i] = new
            rows.append((t, tuple(states)))
        return tuple(rows)

    def states_at(self, time: int) -> dict[CellId, CellState]:
        if not self.start <= time <= self.end:
            raise KeyError(f"no row for time {time}")
        states = list(self.initial)
        for changes in self.changes[: time - self.start]:
            for i, new in changes:
                states[i] = new
        return dict(zip(self.cell_ids, states))


def run(graph: CellGraph, config: Configuration, table: RuleTable, n_steps: int) -> Trace:
    """``n_steps`` synchronous steps from ``config``; rows follow ``graph.cell_ids``.

    Equal to ``n_steps`` calls of ``step``, evaluating only the dirty cells (see the module docstring).
    """
    order = graph.cell_ids
    n = len(order)
    feeds = graph._feeds
    lookup = table.lookup
    states = _cell_states(graph, config)
    codes = list(graph._bases)
    for j in range(n):
        if state := states[j]:
            for i, weight in feeds[j]:
                codes[i] += state * weight
    memo: dict[int, CellState] = {}  # context code -> new state, for the contexts this run has met
    known = memo.get
    time = config.time
    initial = tuple(states)
    changes: list[tuple[tuple[int, CellState], ...]] = []
    dirty: Iterable[int] = range(n)
    for _ in range(n_steps):
        changed: list[tuple[int, CellState]] = []
        for i in dirty:
            code = codes[i]
            new = known(code)
            if new is None:
                try:
                    new = memo[code] = lookup(_context_pair(code))
                except MissingRuleError as exc:
                    raise EngineError(order[i], time, exc) from None
            if new is not states[i]:
                changed.append((i, new))
        touched = set()
        for i, new in changed:
            delta = new - states[i]
            states[i] = new
            for j, weight in feeds[i]:
                codes[j] += delta * weight
                touched.add(j)
        time += 1
        changes.append(tuple(changed))
        dirty = sorted(touched)
    return Trace(order, config.time, initial, tuple(changes))


def format_trace(trace: Trace) -> str:
    """Header of cell numbers, then ``time N :`` rows of state letters."""
    lines = [" ".join(str(c) for c in trace.cell_ids), ""]
    for t, states in trace.rows:
        lines.append(f"time {t} :  " + "  ".join(s.letter for s in states))
    return "\n".join(lines) + "\n"


def format_trace_tsv(trace: Trace) -> str:
    lines = ["time\t" + "\t".join(str(c) for c in trace.cell_ids)]
    for t, states in trace.rows:
        lines.append(f"{t}\t" + "\t".join(s.letter for s in states))
    return "\n".join(lines) + "\n"


def trace_tokens(text: str) -> list[str]:
    """Whitespace tokens of a trace, comment lines stripped."""
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    return tokens


def parse_trace_text(text: str, source: str = "<string>") -> Trace:
    """Read a trace back from the token format (inverse of ``format_trace``)."""
    cell_ids: tuple[CellId, ...] | None = None
    rows: list[tuple[int, tuple[CellState, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] != "time":
                if cell_ids is not None:
                    raise ValueError("second header line")
                cell_ids = tuple(int(t) for t in tokens)
            elif cell_ids is None:
                raise ValueError("trace rows before header")
            elif len(tokens) != 3 + len(cell_ids) or tokens[2] != ":":
                raise ValueError(f"malformed trace row: {line!r}")
            elif rows and int(tokens[1]) != rows[-1][0] + 1:
                raise ValueError(f"time {int(tokens[1])} after time {rows[-1][0]}")
            else:
                rows.append((int(tokens[1]), states_from_letters(tokens[3:])))
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{line_no}: {exc}") from None
    if cell_ids is None:
        raise TraceFormatError(f"{source}: trace has no header")
    if not rows:
        raise TraceFormatError(f"{source}: trace has no rows")
    return Trace.from_rows(cell_ids, rows)
