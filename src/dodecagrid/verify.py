"""Checks behind ``verify`` and ``verify-all``: golden runs, properties, oracle agreement.

Every check returns a ``CheckResult``; the matrix printed by ``verify-all`` is
just the ordered list of them.  A check judges the trace it is given and never
builds or runs a scenario: only ``verify_scenario`` runs one, once, and picks
its checks, for ``verify`` and for each scenario of ``verify-all`` alike.

The checks read a trace through ``Trace``: its first row, then its flat
arrays, never a dense row per step, so they cost what the run changed, not
the size of its graph.  One check, ``check_track``, judges segments and
bridges.  A lone locomotive has one clean traversal
(``expected_traversal``): a run whose changes are exactly it passes on one
compare of the flat arrays when the locomotive ends off the segment and off
any crossing track, and a run whose changes differ is explained by its first
divergence from it.  A golden trace is compared with the run in one tuple
comparison; only one that differs is read further, both traces' arrays in
lockstep up to the first divergence, to name it, and a track run's
divergence is named the same way.  The oracle check reads a crossing with
``scenarios.ca_outcome``, next to the switch layout it reads.
``chain_rows`` gives dense rows, and ``one_d_violations`` and
``locomotive_progress`` walk them, for callers that hold rows.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from collections.abc import Collection, Iterator, Sequence
from operator import itemgetter
from pathlib import Path

from . import railway
from .catalog import load_catalog, load_golden_trace
from .engine import LETTERS, EngineError, Trace
from .geometry import IDENTITY, FacePermutation, enumerate_motions, inverse, preserves_adjacency
from .rules import B, CellState, R, RuleConflictError, RuleTable, W
from .scenarios import SCENARIOS, Scenario, ca_outcome


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark}  {self.name}" + (f"  ({self.detail})" if self.detail else "")


# The one-dimensional motion rules, read along the track: (behind, cell,
# ahead) -> new state of the cell.  Both travel directions are present.
ONE_D_RULES: dict[tuple[CellState, CellState, CellState], CellState] = {
    (B, W, W): B,
    (W, W, B): B,
    (R, B, W): R,
    (W, B, R): R,
    (W, R, B): W,
    (B, R, W): W,
    (W, W, R): W,
    (R, W, W): W,
}


def closed_under_composition(perms: Collection[FacePermutation]) -> bool:
    """Whether ``compose(a, b)`` is in ``perms`` for every ``a`` and ``b`` in it, from the orbit of generators.

    Starting from the identity, each element reached is composed on the right
    with each generator; a member not yet reached becomes a generator.  Every
    product must be a member.  That is exact: the members times the generators
    stay members, and each member ``b`` is reached as a product ``g1 .. gk`` of
    generators, so ``compose(a, b)`` is ``a`` composed with ``g1``, then ``g2``,
    and so on, a member at every step.  The 60 rotations take two generators
    and 125 products instead of all 3 600.
    """
    members = set(perms)
    orbit, reached = [IDENTITY], {IDENTITY}
    generators = []  # one getter per generator g: compose(a, g) == itemgetter(*g)(a)
    for g in perms:
        if g in reached:
            continue
        generators.append(itemgetter(*g))
        for a in orbit:  # the orbit grows as it is walked; each new generator walks it again from the start
            for compose_g in generators:
                b = compose_g(a)
                if b not in members:
                    return False
                if b not in reached:
                    reached.add(b)
                    orbit.append(b)
    return True


def check_rotation_group() -> CheckResult:
    perms = enumerate_motions()
    pset = set(perms)
    problems = []
    if len(pset) != 60:
        problems.append(f"{len(pset)} distinct permutations")
    if IDENTITY not in pset:
        problems.append("identity missing")
    if not all(preserves_adjacency(p) for p in perms):
        problems.append("adjacency broken")
    if not all(inverse(p) in pset for p in perms):
        problems.append("inverse missing")
    if not closed_under_composition(perms):
        problems.append("not closed under composition")
    return CheckResult("rotation-group", not problems, "; ".join(problems) or "60 rotations, closed")


def check_catalog_invariance(rules_dir: Path | str | None = None) -> tuple[CheckResult, RuleTable | None]:
    """Read the catalogue in ``rules_dir`` once: its verdict, and its table, or None when it is not rotation invariant."""
    try:
        table = load_catalog(rules_dir)
    except RuleConflictError as exc:
        return CheckResult("rule-catalog-invariance", False, str(exc)), None
    return CheckResult("rule-catalog-invariance", True, f"{len(table)} rules"), table


def _rows_of_changes(trace: Trace) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """Each row of ``trace`` as what it sets: the first row sets every cell, each later one its step's changes."""
    yield range(len(trace.initial)), trace.initial
    done = 0
    for end in trace.ends:
        yield trace.indices[done:end], trace.new_states[done:end]
        done = end


def trace_divergence(got: Trace, want: Trace) -> str | None:
    """First mismatch as ``time T cell C: expected X, got Y``; None when equal.

    Equal traces are equal tuples: both list each step's changes in
    ascending index order and only cells that do change, so equal rows have
    equal changes.  Unequal ones are read in lockstep from their flat arrays,
    row by row, as what each row sets; rows that set the same cells to the
    same states are equal.  Only a row whose slices differ is judged cell by
    cell, on the cells either trace sets, against the row both traces share
    so far: equal rows stored in other changes pass, and the first cell that
    differs ends the read.  So a divergence costs the rows up to it, not a
    dense replay of both traces.
    """
    if got == want:
        return None
    if got.cell_ids != want.cell_ids:
        return f"cell ordering differs: {got.cell_ids} vs {want.cell_ids}"
    if got.start != want.start:  # times count up by one from the start
        return f"time labels differ: {got.start} vs {want.start}"
    row = list(got.initial)
    for t, set_got, set_want in zip(itertools.count(got.start), _rows_of_changes(got), _rows_of_changes(want)):
        if set_got != set_want:
            new_got, new_want = dict(zip(*set_got)), dict(zip(*set_want))
            for i in sorted(new_got.keys() | new_want.keys()):
                s_got, s_want = new_got.get(i, row[i]), new_want.get(i, row[i])
                if s_got != s_want:
                    return f"time {t} cell {got.cell_ids[i]}: expected {LETTERS[s_want]}, got {LETTERS[s_got]}"
        for i, state in zip(*set_got):
            row[i] = state
    if len(got.ends) != len(want.ends):
        return f"row counts differ: {len(got.ends) + 1} vs {len(want.ends) + 1}"
    return None


def check_golden(name: str, trace: Trace, golden_dir: Path | str | None = None) -> CheckResult:
    want = load_golden_trace(name, golden_dir)  # missing file raises
    diff = trace_divergence(trace, want)
    return CheckResult(f"golden:{name}", diff is None, diff or f"{len(want.ends) + 1} rows match")


def _positions(cell_ids: tuple[int, ...], chain: tuple[int, ...]) -> list[int]:
    """The index into ``cell_ids`` of each cell of ``chain``, in chain order; a cell the chain repeats counts once."""
    index = dict(zip(cell_ids, range(len(cell_ids))))
    return list(dict.fromkeys(index[c] for c in chain))


def chain_rows(trace: Trace, chain: tuple[int, ...]) -> list[tuple[CellState, ...]]:
    at = _positions(trace.cell_ids, chain)
    return [tuple(states[i] for i in at) for _, states in trace.rows]


# the 1D rules plus the idle track, which stays white: the new state each triple must give
_EXPECTED = {**ONE_D_RULES, (W, W, W): W}


def one_d_violations(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Every transition of each position of the dense track ``rows`` against the 1D rules, W beyond the ends."""
    out = []
    for t, (old, new) in enumerate(zip(rows, rows[1:])):
        want = list(map(_EXPECTED.get, zip((W, *old), old, (*old[1:], W))))
        if want == list(new):  # a row the rules give is compared whole
            continue
        for i, (expected, state) in enumerate(zip(want, new)):
            if state is not expected:
                triple = (old[i - 1] if i else W, old[i], old[i + 1] if i + 1 < len(old) else W)
                letters = "".join(s.letter for s in triple)
                problem = (
                    f"unexpected track triple {letters}"
                    if expected is None
                    else f"{letters} -> {state.letter}, 1D rules say {expected.letter}"
                )
                out.append(f"t{t} cell#{i}: {problem}")
    return out


def locomotive_progress(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Exactly one B and one R in each dense track row, adjacent, with the front advancing one cell per step.

    A jump of the front is labelled by the times of the two well-formed rows it is read between.
    """
    out = []
    fronts = []  # (time, front position) of each well-formed row
    for t, row in enumerate(rows):
        if row.count(B) != 1 or row.count(R) != 1:
            out.append(f"t{t}: {row.count(B)} front cells, {row.count(R)} rear cells")
            continue
        front, rear = row.index(B), row.index(R)
        if abs(front - rear) != 1:
            out.append(f"t{t}: front and rear not adjacent ({front}, {rear})")
        fronts.append((t, front))
    for (t0, a), (t1, b) in zip(fronts, fronts[1:]):
        if (t1 - t0, b - a) != (1, 1):
            out.append(f"t{t0}->{t1}: front moved {b - a} cells")
    return out


def _traversal(
    cell_ids: tuple[int, ...], initial: tuple[CellState, ...], track: tuple[int, ...], steps: int
) -> tuple[tuple[int, ...], tuple[array, array, bytes]] | None:
    """The track cells a clean traversal of ``steps`` steps passes over, and its changes as ``Trace`` stores them.

    None unless ``initial``, a first row over ``cell_ids``, is a lone
    locomotive it can extend: exactly two cells not white, R at position
    ``p`` of ``track`` and B at ``p + 1``, with ``p + steps + 1`` on the
    track and the cells passed distinct cells of ``cell_ids`` (a track that
    meets itself has none).  Step ``t`` turns positions ``p + t``, ``p + t +
    1`` and ``p + t + 2`` to W, R and B, listed by ascending index.  When
    the passed cells lie along or against ``cell_ids`` order, as every chain
    of ``CellGraph.from_chains`` does, each step lists them in one order,
    W R B or B R W, and the indices are three slices of one range; otherwise
    each step's three are sorted.
    """
    try:
        rear, front = initial.index(R), initial.index(B)
        p = track.index(cell_ids[rear])
    except ValueError:
        return None
    passed = track[p : p + steps + 2]
    if initial.count(W) != len(initial) - 2 or len(passed) != steps + 2 or passed[1] != cell_ids[front]:
        return None
    ends = array("Q", range(3, 3 * steps + 1, 3))
    step = (W, R, B)
    if cell_ids[rear : rear + steps + 2] == passed:  # a chain laid along index order
        at = range(rear, rear + steps + 2)
    elif 0 <= rear - steps - 1 and cell_ids[rear - steps - 1 : rear + 1] == passed[::-1]:  # laid against it
        at = range(rear, rear - steps - 2, -1)
    else:
        index = dict(zip(cell_ids, range(len(cell_ids))))
        at = [index.get(c) for c in passed]
        if None in at or len(set(at)) != len(at):
            return None
        changes = [pair for t in range(steps) for pair in sorted(zip(at[t : t + 3], step))]
        return passed, (ends, array("I", [i for i, _ in changes]), bytes(s for _, s in changes))
    order = (0, 1, 2) if at[0] < at[1] else (2, 1, 0)  # a step's three positions by ascending index
    at = array("I", at)
    indices = array("I", [0]) * (3 * steps)
    for k, position in enumerate(order):
        indices[k::3] = at[position : position + steps]
    return passed, (ends, indices, bytes(step[k] for k in order) * steps)


def expected_traversal(scenario: Scenario, steps: int) -> tuple[array, array, bytes] | None:
    """The ``(ends, indices, new_states)`` of the scenario's clean traversal of ``steps`` steps, as a ``Trace``'s.

    None when its initial row is not a lone locomotive that can run ``steps``
    steps forward along ``track_cells`` (see ``_traversal``).
    """
    cell_ids = scenario.graph.cell_ids
    clean = _traversal(cell_ids, tuple(map(scenario.initial.states.get, cell_ids)), scenario.track_cells, steps)
    return None if clean is None else clean[1]


def check_track(scenario: Scenario, trace: Trace) -> CheckResult:
    """A bridge's line when the scenario has a crossing track, a segment's otherwise.

    A trace passes when its first row is a lone locomotive, its changes are
    exactly that locomotive's clean traversal (``_traversal``), the
    locomotive ends off the segment and the cells it passes miss the
    crossing track: one compare of the flat arrays and two set tests.  A
    failing trace is explained at no more cost than reaching its fault: a
    first row with no clean traversal by its track row's
    ``locomotive_progress``, changes that differ from the clean ones by their
    first divergence (``trace_divergence``, as a golden trace's), and a clean
    traversal by when it first turns a crossing-track cell non-white and
    which segment cells it leaves non-white.  Changes that list the clean
    rows in another way, a change given twice, are judged as clean ones.
    """
    steps = len(trace.ends)
    if scenario.crossing_track:
        name, clean = f"bridge:{scenario.name}", "clean traversal"
    else:
        name, clean = f"segment:{scenario.name}", f"{steps} steps clean"
    expected = _traversal(trace.cell_ids, trace.initial, scenario.track_cells, steps)
    if expected is None:
        shape = locomotive_progress([tuple(trace.initial[i] for i in _positions(trace.cell_ids, scenario.track_cells))])
        return CheckResult(name, False, shape[0] if shape else f"no clean traversal of {steps} steps along the track")
    passed, changes = expected
    same = changes == (trace.ends, trace.indices, trace.new_states)
    if same and set(passed[-2:]).isdisjoint(scenario.segment_cells) and set(scenario.crossing_track).isdisjoint(passed):
        return CheckResult(name, True, clean)
    if not same and (diff := trace_divergence(trace, Trace(trace.cell_ids, trace.start, trace.initial, *changes))):
        return CheckResult(name, False, diff)
    problems = []
    if crossed := set(scenario.crossing_track).intersection(passed):
        # the first row holds the locomotive on passed[0] and passed[1], and row k - 1 turns passed[k] B
        k = max(min(map(passed.index, crossed)), 1)
        turned = crossed.intersection(passed[:2] if k == 1 else passed[k : k + 1])
        problems.append(
            f"t{trace.start + k - 1}: crossing track disturbed at {sorted(turned, key=scenario.crossing_track.index)}"
        )
    if stuck := [c for c in scenario.segment_cells if c in passed[-2:]]:
        idle = "bridge cells not idle after traversal" if scenario.crossing_track else "segment cells not idle after exit"
        problems.append(f"{idle}: {stuck}")
    return CheckResult(name, not problems, "; ".join(problems) or clean)


check_segment = check_bridge = check_track  # the benchmark's tracer times these names; they go with its next change


def check_oracle_agreement(scenario: Scenario, trace: Trace) -> CheckResult:
    name = f"oracle:{scenario.name}"
    kind, laterality, mode = scenario.crossing
    want_exit, want_state = railway.cross(railway.SwitchState(kind, laterality), mode)
    try:
        got_exit, got_selected = ca_outcome(trace, kind)
    except ValueError as exc:  # an end state with no reading is a failed check
        return CheckResult(name, False, str(exc))
    ok = got_exit is want_exit and got_selected is want_state.selected
    detail = (
        f"exit {got_exit.value}, selected {got_selected.value}"
        if ok
        else f"CA (exit {got_exit.value}, selected {got_selected.value}) "
        f"!= oracle (exit {want_exit.value}, selected {want_state.selected.value})"
    )
    return CheckResult(name, ok, detail)


def verify_scenario(scenario: Scenario, table: RuleTable, golden_dir: Path | str | None = None) -> list[CheckResult]:
    """Golden then oracle for a crossing, ``check_track`` for a track; an uncovered run fails as ``run:``."""
    try:
        trace = scenario.run(table)
    except EngineError as exc:
        return [CheckResult(f"run:{scenario.name}", False, str(exc))]
    if scenario.crossing:
        return [check_golden(scenario.name, trace, golden_dir), check_oracle_agreement(scenario, trace)]
    return [check_track(scenario, trace)]


def verify_all(
    rules_dir: Path | str | None = None,
    golden_dir: Path | str | None = None,
) -> list[CheckResult]:
    results = [check_rotation_group()]
    invariance, table = check_catalog_invariance(rules_dir)
    results.append(invariance)
    if table is None:
        return results  # no table to run the rest with
    for entry in SCENARIOS.values():  # built as they run; the crossings of one switch kind share its graph
        results += verify_scenario(entry.build(), table, golden_dir)
    return results
