"""Checks behind ``verify`` and ``verify-all``: golden runs, properties, oracle agreement.

Every check returns a ``CheckResult``; the matrix printed by ``verify-all`` is
just the ordered list of them.  A check judges the trace it is given and never
builds or runs a scenario: only ``verify_scenario`` runs one, once, and picks
its checks, for ``verify`` and for each scenario of ``verify-all`` alike.

The checks read a trace through ``Trace``: its first row, then
``Trace.steps``, never a dense row per step, so they cost what the run
changed, not the size of its graph.  A golden trace is compared with the
run in one tuple comparison; only one that differs is read further, both
traces step by step in lockstep up to the first divergence, to name it
(``trace_divergence``).  One check, ``check_track``, judges segments and
bridges, and compares a run the same way: a lone locomotive has one clean
traversal, a ``Trace`` as a golden file is (``expected_traversal``), and a
run equal to it passes when the locomotive ends off the segment and off
any crossing track.  The oracle check reads a crossing with
``scenarios.ca_outcome``, next to the switch layout it reads.
``chain_rows`` gives dense rows, and ``one_d_violations`` and
``locomotive_progress`` walk them, for callers that hold rows.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from collections.abc import Collection
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


def trace_divergence(got: Trace, want: Trace) -> str | None:
    """First mismatch as ``time T cell C: expected X, got Y``; None when equal.

    Equal traces are equal tuples: both list each step's changes in
    ascending index order and only cells that do change, so equal rows have
    equal changes.  Unequal ones are compared first row first, then read in
    lockstep through ``Trace.steps``, step by step; steps that set the same
    cells to the same states are equal.  Only a step whose changes differ is
    judged cell by cell, on the cells either trace sets, against the row
    both traces share so far: equal rows stored in other changes pass, and
    the first cell that differs ends the read.  So a divergence costs the
    steps up to it, not a dense replay of both traces.
    """
    if got == want:
        return None
    if got.cell_ids != want.cell_ids:
        return f"cell ordering differs: {got.cell_ids} vs {want.cell_ids}"
    if got.start != want.start:  # times count up by one from the start
        return f"time labels differ: {got.start} vs {want.start}"
    if got.initial != want.initial:  # compared whole first, as most traces share their first row
        for i, (s_got, s_want) in enumerate(zip(got.initial, want.initial)):
            if s_got != s_want:
                return f"time {got.start} cell {got.cell_ids[i]}: expected {LETTERS[s_want]}, got {LETTERS[s_got]}"
    row = list(got.initial)
    for t, changes_got, changes_want in zip(itertools.count(got.start + 1), got.steps(), want.steps()):
        if changes_got != changes_want:
            new_got, new_want = dict(changes_got), dict(changes_want)
            for i in sorted(new_got.keys() | new_want.keys()):
                s_got, s_want = new_got.get(i, row[i]), new_want.get(i, row[i])
                if s_got != s_want:
                    return f"time {t} cell {got.cell_ids[i]}: expected {LETTERS[s_want]}, got {LETTERS[s_got]}"
        for i, state in changes_got:
            row[i] = state
    steps_got, steps_want = got.end - got.start, want.end - want.start
    if steps_got != steps_want:
        return f"row counts differ: {steps_got + 1} vs {steps_want + 1}"
    return None


def check_golden(name: str, trace: Trace, golden_dir: Path | str | None = None) -> CheckResult:
    want = load_golden_trace(name, golden_dir)  # missing file raises
    diff = trace_divergence(trace, want)
    return CheckResult(f"golden:{name}", diff is None, diff or f"{want.end - want.start + 1} rows match")


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
    cell_ids: tuple[int, ...], start: int, initial: tuple[CellState, ...], track: tuple[int, ...], steps: int
) -> tuple[tuple[int, ...], Trace] | None:
    """The track cells a clean traversal of ``steps`` steps passes over, and its trace from time ``start``.

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
        indices, new_states = array("I", [i for i, _ in changes]), bytes(s for _, s in changes)
        return passed, Trace(cell_ids, start, initial, ends, indices, new_states)
    order = (0, 1, 2) if at[0] < at[1] else (2, 1, 0)  # a step's three positions by ascending index
    at = array("I", at)
    indices = array("I", [0]) * (3 * steps)
    for k, position in enumerate(order):
        indices[k::3] = at[position : position + steps]
    return passed, Trace(cell_ids, start, initial, ends, indices, bytes(step[k] for k in order) * steps)


def expected_traversal(scenario: Scenario, steps: int) -> Trace | None:
    """The scenario's clean traversal of ``steps`` steps: the ``Trace`` its run must equal.

    None when its initial row is not a lone locomotive that can run ``steps``
    steps forward along ``track_cells`` (see ``_traversal``).
    """
    cell_ids, initial = scenario.graph.cell_ids, scenario.initial
    first = tuple(map(initial.states.get, cell_ids))
    clean = _traversal(cell_ids, initial.time, first, scenario.track_cells, steps)
    return None if clean is None else clean[1]


def _first_row_problem(scenario: Scenario, trace: Trace, steps: int) -> str:
    """Why no clean traversal starts at the first row: the first of its faults found, located when it can be.

    The track row's ``locomotive_progress``; else the crossing-track cells
    not white, in crossing-track order; else the first cell on neither track
    that is not white; else the locomotive points against the track, the
    track is too short or it meets itself.
    """
    track_row = tuple(trace.initial[i] for i in _positions(trace.cell_ids, scenario.track_cells))
    if shape := locomotive_progress([track_row]):
        return shape[0]
    lit = {c: s for c, s in zip(trace.cell_ids, trace.initial) if s is not W}
    if crossed := [c for c in scenario.crossing_track if c in lit]:
        return f"t{trace.start}: crossing track disturbed at {crossed}"
    on_track = set(scenario.track_cells)
    if off := [c for c in lit if c not in on_track]:
        return f"t{trace.start}: cell {off[0]} off the track is {LETTERS[lit[off[0]]]}"
    return f"no clean traversal of {steps} steps along the track"


def check_track(scenario: Scenario, trace: Trace) -> CheckResult:
    """A bridge's line when the scenario has a crossing track, a segment's otherwise.

    A lone locomotive has one clean traversal, and a track run is compared
    with it as a golden run is with its file: the trace passes when its
    first row is a lone locomotive, ``trace_divergence`` finds nothing
    between it and that traversal (``_traversal``), the locomotive ends off
    the segment and the cells it passes miss the crossing track.  A first
    row with no clean traversal is explained by ``_first_row_problem``,
    changes that differ by their first divergence, and a clean traversal by
    when it first turns a crossing-track cell non-white and which segment
    cells it leaves non-white.  Changes that list the clean rows in another
    way, a change given twice, are judged as clean ones.
    """
    steps = trace.end - trace.start
    if scenario.crossing_track:
        name, detail = f"bridge:{scenario.name}", "clean traversal"
    else:
        name, detail = f"segment:{scenario.name}", f"{steps} steps clean"
    expected = _traversal(trace.cell_ids, trace.start, trace.initial, scenario.track_cells, steps)
    if expected is None:
        return CheckResult(name, False, _first_row_problem(scenario, trace, steps))
    passed, clean = expected
    if diff := trace_divergence(trace, clean):
        return CheckResult(name, False, diff)
    problems = []
    if crossed := set(scenario.crossing_track).intersection(passed):
        # the first row holds the locomotive on passed[0] and passed[1], and row k - 1 turns passed[k] B
        k = max(min(map(passed.index, crossed)), 1)
        turned = crossed.intersection(passed[:2] if k == 1 else passed[k : k + 1])
        problems.append(
            f"t{trace.start + k - 1}: crossing track disturbed at {sorted(turned, key=scenario.crossing_track.index)}"
        )
    if stuck := sorted(set(passed[-2:]).intersection(scenario.segment_cells), key=scenario.segment_cells.index):
        idle = "bridge cells not idle after traversal" if scenario.crossing_track else "segment cells not idle after exit"
        problems.append(f"{idle}: {stuck}")
    return CheckResult(name, not problems, "; ".join(problems) or detail)


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
