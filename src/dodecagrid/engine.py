"""Synchronous execution of the automaton over an explicit cell graph.

Each cell is wired as 12 fixed states, one per face (milestones, quiescent
surroundings, region boundary), plus links from some of its white faces to
other cells of the graph; a linked face shows the linked cell's state.  A
step reads every context from the old configuration, so update order is
immaterial; the new configuration is a fresh value.

With 12 faces and 3 states, a context is exactly 13 base-3 digits, its code
``current * 3**12 + sum(neighbour_f * 3**f)``.  A ``CellGraph`` checks each
cell's fixed states and links in one pass.  A railway is long chains of a few
element shapes, so the graph stores what cells share once: a shape is the
fixed states, their code and the links as ``(face, index offset)`` pairs, one
value for every cell wired alike (a vertical segment of any length has 3).
Per cell it keeps only its index, a reference to its shape, its base (the
code of its fixed states) and its feeds, ``(reader, 3**f)`` for each cell
that reads it through face ``f``; a cell's feeds never name the cell itself,
whose own state always weighs ``3**12`` in its own code.  The return links
are checked from the shapes, which each feed's face is read from too.
``wiring(cell)`` rebuilds the cell's ``(fixed, ((face, cell), ...))`` from its
shape.  ``CellGraph.from_chains`` builds the graph of chains of track
elements, ``(fixed, (entry, exit))`` each, without a per-cell wiring: it
checks each distinct element once, and lays each chain from its elements'
shapes as a chain's first, inner and last cell, which imply the links.  The
shapes and the feeds pass are shared with the per-cell constructor, so the
two give equal graphs.

``step`` is the full-sweep reference: it reads every cell's wiring through
``context_of``.  ``run`` reads only the bases and feeds and gives the same
result while evaluating only the cells whose context can have changed: every
cell on the first step, afterwards only the cells that changed and the cells
they feed.  This is exact because a cell whose own state and 12 neighbours are
unchanged has the same context, so the deterministic ``RuleTable.lookup``
gives it the same new state as before, which is its current one.  Dirty
cells are evaluated in ``graph.cell_ids`` order, so an uncovered context
raises the same ``EngineError`` (cell, time and context) as the full sweep.

``run`` starts each code from the cell's base plus, for every non-white
cell, ``state * 3**12`` on its own code and ``state * weight`` along its
feeds; after each step it adds ``(new - old)`` the same way for each cell
that changed, and marks that cell and its feeds dirty.  A run-local memo maps
each code met to its new state; only for a code the run has not met yet does
it read the plain ``(current, neighbours)`` pair that ``lookup`` takes, from
the cell's shape and the current states: the fixed states, with each linked
face showing its cell's state.  ``EngineError`` still carries a ``Context``,
which equals that pair.  Both ``run`` and ``step`` refuse, with a
``ConfigurationError``, a configuration that does not give exactly the
graph's cells a ``CellState`` each.

A ``Trace`` stores what ``run`` computes and no more, flat: the initial row,
then one array of the cell indices each step changed, the new states as
bytes beside them, and each step's end offset into both.  ``run`` appends to
them as it goes, so a run's time and memory follow its activity, not the
size of its graph, and it allocates no object per change that outlives its
step.  Only ``Trace`` reads them back: ``Trace.steps`` is the one per-step
reader, ``(index, CellState)`` pairs, and ``Trace.rows`` replays through it
into one tuple of ``len(cell_ids)`` states per row; ``Trace.states_at`` keeps
a flat replay up to its row, for speed.  The checks in ``verify`` compare
traces whole and read them through these; they write the arrays only to lay
out a track's clean traversal as a ``Trace``.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence, Sized
from itertools import islice
from operator import indexOf

from .rules import CellState, Context, MissingRuleError, RuleTable, W, content_lines, states_from_letters

CellId = int


# a cell's wiring, shared by every cell wired alike: its fixed states, their code, and its (face, index offset) links
Shape = tuple[tuple[CellState, ...], int, tuple[tuple[int, int], ...]]

# a track element: its fixed states and the (entry, exit) faces the locomotive passes by
Element = tuple[tuple[CellState, ...], tuple[int, int]]

# the state each value of Trace.new_states stands for
STATES = tuple(CellState)
# the letter of each state, indexed by its value: a string read, not the Enum's slower ``letter`` property
LETTERS = "".join(state.letter for state in STATES)


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


class _Shapes(dict):
    """The shapes of one graph, interned: ``(base, links) -> (shape, returns)``.

    ``returns`` maps each index offset that exactly one of the shape's links
    has to ``3**face`` of that link: what a return link along it weighs.
    """

    def __call__(self, fixed: tuple[CellState, ...], base: int, links: tuple[tuple[int, int], ...]) -> Shape:
        entry = self.get((base, links))
        if entry is None:
            offsets = [offset for _, offset in links]
            returns = {offset: _FACE_WEIGHTS[face] for face, offset in links if offsets.count(offset) == 1}
            entry = self[base, links] = (fixed, base, links), returns
        return entry[0]


def _fixed_code(cell: CellId, fixed: tuple) -> int:
    """The code of a cell's fixed states: exactly 12 ``CellState``s, or a ``GraphError`` located at ``cell``."""
    if len(fixed) != 12:
        raise GraphError(f"cell {cell}: expected 12 fixed states, got {len(fixed)}")
    base = 0
    for face, state in enumerate(fixed):
        if not isinstance(state, CellState):  # 5 would be coded as B, "B" not at all
            raise GraphError(f"cell {cell} face {face}: fixed state {state!r} is not a CellState")
        base += state * _FACE_WEIGHTS[face]
    return base


def _link_face(cell: CellId, face: object) -> None:
    """Refuse a link of ``cell`` on ``face`` unless it is a face in 0..11."""
    if type(face) is not int or not 0 <= face < 12:
        raise GraphError(f"cell {cell}: link on {face!r}, not a face in 0..11")


def _white_face(cell: CellId, fixed: tuple[CellState, ...], face: int) -> None:
    """Refuse a link of ``cell`` on ``face`` unless its fixed state there is ``W``: a link would hide a milestone."""
    if fixed[face] is not W:
        raise GraphError(f"cell {cell} face {face} links over fixed state {fixed[face].letter}")


def chain_ids(*chains: Sized) -> list[range]:
    """Each chain's cell ids in the graph of ``CellGraph.from_chains``: they count from 1 through the chains in turn."""
    ids, start = [], 1
    for elements in chains:
        ids.append(range(start, start + len(elements)))
        start += len(elements)
    return ids


def _element_shapes(cell: CellId, element: Element, shape: _Shapes) -> tuple[Shape, Shape, Shape, Shape]:
    """An element's shapes as a chain's first, inner, last and only cell, checked at ``cell``, its first use."""
    try:
        fixed, (entry, exit_) = element
        fixed = tuple(fixed)
    except (TypeError, ValueError):
        raise GraphError(f"cell {cell}: {element!r} is not a (fixed states, (entry, exit)) element") from None
    base = _fixed_code(cell, fixed)
    for face in (entry, exit_):
        _link_face(cell, face)
    for face in (entry, exit_):
        _white_face(cell, fixed, face)
    if entry == exit_:
        raise GraphError(f"cell {cell}: entry and exit on the same face {entry}")
    inner = tuple(sorted(((entry, -1), (exit_, 1))))
    return tuple(shape(fixed, base, links) for links in (((exit_, 1),), inner, ((entry, -1),), ()))


class CellGraph:
    """Immutable wiring of a finite set of cells: 12 fixed states plus links per cell, checked in one pass.

    Each cell is given as ``(fixed, links)``: ``fixed`` holds the 12 ``CellState``s
    its faces show where nothing is linked, and ``links`` maps faces to other
    (hashable) cells.  A link sits on a face in 0..11 whose fixed state is
    ``W``, never names its own cell, and has exactly one link back.  The first
    fault in cell order (a cell's fixed states, then its links in face order)
    raises a located ``GraphError``; return links are counted last, in the
    same order, from the linked cell's shape.  ``cell_ids`` keeps the
    insertion order.  ``from_chains`` builds the graph of chains of track
    elements without a per-cell wiring; the two constructors differ only in
    how they find a cell's links, and share the shapes and the feeds pass.

    A graph stores each cell's wiring as one interned shape, ``(fixed, base,
    links)``: the fixed states, their code, and the links as ``(face, index
    offset)`` pairs in face order, one value for every cell wired alike.
    ``wiring(cell)`` rebuilds from it the ``(fixed, ((face, cell), ...))``
    value the graph was given, which ``CellGraph`` takes back.  Per cell the
    graph keeps only its index, its shape, its base and its feeds, which
    ``run`` codes contexts with: one ``(reader, 3**f)`` pair per link, ``f``
    read off the return link, and none for the cell itself.  Each cell's
    fixed states are checked and coded as given; ``from_chains`` checks and
    codes each distinct element once, at the first cell that uses it.
    """

    def __init__(self, wiring_by_cell: Mapping[CellId, tuple[Iterable[CellState], Mapping[int, CellId]]]):
        index = {cell: i for i, cell in enumerate(wiring_by_cell)}
        self.cell_ids: tuple[CellId, ...] = tuple(index)
        self._index = index
        shape = _Shapes()
        shapes: list[Shape] = []
        for i, (cell, wiring) in enumerate(wiring_by_cell.items()):
            try:
                fixed, links = wiring
                fixed, links = tuple(fixed), dict(links)
            except (TypeError, ValueError):
                raise GraphError(f"cell {cell}: {wiring!r} is not a (fixed states, links) pair") from None
            base = _fixed_code(cell, fixed)
            for face in links:
                _link_face(cell, face)
            offsets = []
            for face in sorted(links):
                target = links[face]
                _white_face(cell, fixed, face)
                if target == cell:  # no cell of {5,3,4} is its own face-neighbour
                    raise GraphError(f"cell {cell} face {face} links to itself")
                try:
                    j = index.get(target)
                except TypeError:  # no cell id is unhashable
                    raise GraphError(f"cell {cell} face {face} links to unhashable target {target!r}") from None
                if j is None:
                    raise GraphError(f"cell {cell} face {face} links to unknown cell {target}")
                offsets.append((face, j - i))
            shapes.append(shape(fixed, base, tuple(offsets)))
        self._lay(shapes, shape)

    @classmethod
    def from_chains(cls, *chains: Sequence[Element]) -> CellGraph:
        """The graph of chains of track elements, each element's exit face linked to the next one's entry face.

        An element is ``(fixed, (entry, exit))``.  Ids count from 1 through the
        chains one after another, each chain's as ``chain_ids`` gives them; a
        chain's ends are left open, so its first cell links only its exit and
        its last only its entry.  Each distinct element (by identity) is
        checked once, at the first cell that uses it: 12 ``CellState``s, entry
        and exit two different faces in 0..11, both fixed ``W``; a fault raises
        a ``GraphError`` located at that cell.  The graph equals ``CellGraph``
        of the same cells' ``{face: cell}`` wiring, but no cell's links are
        looked up: an element has four shapes, as a chain's first, inner, last
        or only cell, and the chain is laid from them.
        """
        graph = cls.__new__(cls)
        shape = _Shapes()
        shapes: list[Shape] = []
        by_element: dict[int, tuple[Shape, Shape, Shape, Shape]] = {}  # id(element) -> its four shapes
        for elements, cells in zip(chains, chain_ids(*chains)):
            start = cells.start  # the id of the chain's first cell
            for key in dict.fromkeys(map(id, elements)):  # the chain's distinct elements, in order of first use
                if key not in by_element:
                    k = indexOf(map(id, elements), key)
                    by_element[key] = _element_shapes(start + k, elements[k], shape)
            if len(elements) == 1:
                shapes.append(by_element[id(elements[0])][3])
            elif elements:
                inner = {key: shapes_of[1] for key, shapes_of in by_element.items()}
                shapes.append(by_element[id(elements[0])][0])
                shapes += map(inner.__getitem__, map(id, islice(elements, 1, len(elements) - 1)))
                shapes.append(by_element[id(elements[-1])][2])
        graph.cell_ids = cell_ids = tuple(range(1, len(shapes) + 1))
        # cell c has index c - 1, which is the id of cell c - 1: one int object serves as both
        graph._index = dict(zip(cell_ids, (0, *cell_ids)))
        graph._lay(shapes, shape)
        return graph

    def _lay(self, shapes: list[Shape], shape: _Shapes) -> None:
        """Keep each cell's shape and base, and build its feeds, checking that each link has one return link."""
        self._shapes = shapes
        self._bases: list[int] = [cell_shape[1] for cell_shape in shapes]  # the shape's int, shared by its cells
        returns_of = {id(cell_shape): returns for cell_shape, returns in shape.values()}
        returns = [returns_of[id(cell_shape)] for cell_shape in shapes]
        readers = list(self._index.values())  # each cell's index, one int object that every feed naming it shares
        # per cell i, (j, 3**f) for each cell j that reads i through face f: the return link of each of i's
        # links, which must be its only link back; the error counts the links back in j's shape
        self._feeds: list[tuple[tuple[int, int], ...]] = []
        for i, (_, _, links) in enumerate(shapes):
            feed = []
            for face, offset in links:
                j = i + offset
                weight = returns[j].get(-offset)
                if weight is None:
                    back = [o for _, o in shapes[j][2]].count(-offset)
                    cell, target = self.cell_ids[i], self.cell_ids[j]
                    raise GraphError(f"link {cell}/{face} -> {target} has {back} return links, expected exactly 1")
                feed.append((readers[j], weight))
            self._feeds.append(tuple(feed))

    def __len__(self) -> int:
        return len(self.cell_ids)

    def wiring(self, cell: CellId) -> tuple[tuple[CellState, ...], tuple[tuple[int, CellId], ...]]:
        """The 12 fixed states of ``cell`` and its ``(face, cell)`` links in face order."""
        i = self._index[cell]
        fixed, _, links = self._shapes[i]
        cell_ids = self.cell_ids
        return fixed, tuple((face, cell_ids[i + offset]) for face, offset in links)


# every cell's state, ``{cell: CellState}``, at one time
Configuration = namedtuple("Configuration", "states time", defaults=(0,))


def uniform_configuration(graph: CellGraph) -> Configuration:
    """Every cell white, at time 0."""
    return Configuration({cell: W for cell in graph.cell_ids})


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
        stray = next(cell for cell in states if cell not in graph._index)
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


class Trace(namedtuple("Trace", "cell_ids start initial ends indices new_states")):
    """Rows of states over a fixed cell ordering, stored as the first row and each step's changes, flat.

    Row ``k`` is at time ``start + k``.  The step from row ``k`` to row ``k +
    1`` changes the cells whose indices into ``cell_ids`` are
    ``indices[ends[k - 1]:ends[k]]`` (from 0 for the first step), in
    ascending order, to the states ``STATES[v]`` for the values ``v`` at the
    same positions of ``new_states``.  ``run``, ``from_rows`` and the trace
    parser store ``ends`` as an ``array('Q')``, ``indices`` as an
    ``array('I')`` and ``new_states`` as ``bytes``, so equal traces are equal
    records; a ``Trace`` is not hashable.  There is always a first row: an
    ``initial`` of None raises ``TraceFormatError``.  ``steps`` is the one
    per-step reader and ``rows`` replays through it into dense rows;
    ``states_at`` replays the flat arrays up to its row, three to four times
    faster than through ``steps`` on a long trace.
    """

    __slots__ = ()

    def __new__(
        cls,
        cell_ids: tuple[CellId, ...],
        start: int,
        initial: tuple[CellState, ...],
        ends: array,
        indices: array,
        new_states: bytes,
    ) -> Trace:
        if initial is None:
            raise TraceFormatError(f"trace of {len(cell_ids)} cells has no rows")
        return super().__new__(cls, cell_ids, start, initial, ends, indices, new_states)

    @classmethod
    def from_rows(cls, cell_ids: Iterable[CellId], rows: Iterable[tuple[int, Iterable[CellState]]]) -> Trace:
        """The trace of dense ``(time, states)`` rows, at least one, whose times must count up by one."""
        cell_ids = tuple(cell_ids)
        start = initial = previous = None
        ends, indices, new_states = array("Q"), array("I"), bytearray()
        for t, states in rows:
            states = tuple(states)
            if len(states) != len(cell_ids):
                raise TraceFormatError(f"row at time {t} has {len(states)} states for {len(cell_ids)} cells")
            if previous is None:
                start, initial = t, states
            elif t != start + len(ends) + 1:
                raise TraceFormatError(f"time {t} after time {start + len(ends)}")
            else:
                for i, (old, s) in enumerate(zip(previous, states)):
                    if s != old:
                        indices.append(i)
                        new_states.append(s)
                ends.append(len(indices))
            previous = states
        return cls(cell_ids, start, initial, ends, indices, bytes(new_states))

    @property
    def end(self) -> int:
        """Time of the last row."""
        return self.start + len(self.ends)

    def steps(self) -> Iterator[list[tuple[int, CellState]]]:
        """Each step's changes as ``(index into cell_ids, new state)`` pairs, in ascending index order."""
        changes = zip(self.indices, map(STATES.__getitem__, self.new_states))
        done = 0
        for end in self.ends:
            yield list(islice(changes, end - done))
            done = end

    @property
    def rows(self) -> tuple[tuple[int, tuple[CellState, ...]], ...]:
        """Every ``(time, states)`` row, replayed through ``steps``."""
        states = list(self.initial)
        rows = [(self.start, self.initial)]
        for t, changes in enumerate(self.steps(), start=self.start + 1):
            for i, new in changes:
                states[i] = new
            rows.append((t, tuple(states)))
        return tuple(rows)

    def states_at(self, time: int) -> dict[CellId, CellState]:
        if not self.start <= time <= self.end:
            raise KeyError(f"no row for time {time}")
        states = list(self.initial)
        done = self.ends[time - self.start - 1] if time > self.start else 0
        for i, new in islice(zip(self.indices, self.new_states), done):
            states[i] = STATES[new]
        return dict(zip(self.cell_ids, states))


def run(graph: CellGraph, config: Configuration, table: RuleTable, n_steps: int) -> Trace:
    """``n_steps`` synchronous steps from ``config``; rows follow ``graph.cell_ids``.

    Equal to ``n_steps`` calls of ``step``, evaluating only the dirty cells (see the module docstring).
    A negative ``n_steps`` raises ``ValueError``.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must not be negative: {n_steps}")
    order = graph.cell_ids
    n = len(order)
    feeds = graph._feeds
    shapes = graph._shapes
    lookup = table.lookup
    states = _cell_states(graph, config)
    codes = list(graph._bases)
    for j in range(n):
        if state := states[j]:
            codes[j] += state * _CURRENT_WEIGHT
            for i, weight in feeds[j]:
                codes[i] += state * weight
    memo: dict[int, CellState] = {}  # context code -> new state, for the contexts this run has met
    known = memo.get
    time = config.time
    initial = tuple(states)
    ends, indices, new_states = array("Q"), array("I"), bytearray()
    end_step, add_index, add_state = ends.append, indices.append, new_states.append
    dirty: Iterable[int] = range(n)
    for _ in range(n_steps):
        changed: list[tuple[int, CellState]] = []
        for i in dirty:
            code = codes[i]
            new = known(code)
            if new is None:
                fixed, _, links = shapes[i]
                neighbours = list(fixed)
                for face, offset in links:
                    neighbours[face] = states[i + offset]
                try:
                    new = memo[code] = lookup((states[i], tuple(neighbours)))
                except MissingRuleError as exc:
                    raise EngineError(order[i], time, exc) from None
            if new is not states[i]:
                changed.append((i, new))
        touched = set()
        for i, new in changed:
            delta = new - states[i]
            states[i] = new
            codes[i] += delta * _CURRENT_WEIGHT
            touched.add(i)
            for j, weight in feeds[i]:
                codes[j] += delta * weight
                touched.add(j)
            add_index(i)
            add_state(new)
        time += 1
        end_step(len(indices))
        dirty = sorted(touched)
    return Trace(order, config.time, initial, ends, indices, bytes(new_states))


def format_trace(trace: Trace) -> str:
    """Header of cell numbers, then ``time N :`` rows of state letters."""
    lines = [" ".join(str(c) for c in trace.cell_ids), ""]
    for t, states in trace.rows:
        lines.append(f"time {t} :  " + "  ".join(map(LETTERS.__getitem__, states)))
    return "\n".join(lines) + "\n"


def format_trace_tsv(trace: Trace) -> str:
    lines = ["time\t" + "\t".join(str(c) for c in trace.cell_ids)]
    for t, states in trace.rows:
        lines.append(f"{t}\t" + "\t".join(map(LETTERS.__getitem__, states)))
    return "\n".join(lines) + "\n"


def trace_tokens(text: str) -> list[str]:
    """Whitespace tokens of a trace, comments stripped."""
    return [token for _, line in content_lines(text) for token in line.split()]


def parse_trace_text(text: str, source: str = "<string>") -> Trace:
    """Read a trace back from the token format (inverse of ``format_trace``)."""
    cell_ids: tuple[CellId, ...] | None = None
    rows: list[tuple[int, tuple[CellState, ...]]] = []
    for line_no, line in content_lines(text):
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
