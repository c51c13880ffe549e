"""Checks behind ``verify`` and ``verify-all``: golden runs, properties, oracle agreement.

Every check returns a ``CheckResult``; the matrix printed by ``verify-all`` is
just the ordered list of them.  A check judges the trace it is given and never
builds or runs a scenario: only ``verify_scenario`` runs one, once, and picks
its checks, for ``verify`` and for each scenario of ``verify-all`` alike.

The checks read a trace through ``Trace``, its first row and then
``Trace.steps()``, never its flat arrays, so they cost what the run changed,
not the size of its graph.  One check, ``check_track``, judges segments and
bridges: it walks the track once (``walk_track(trace, chain)``, which any
chain of cells can take) and reads a bridge's crossing track up to its first
non-white cell.  A golden trace is compared with the run in one tuple
comparison; only one that differs is replayed row by row, to name the first
divergence.  The oracle check reads a crossing with ``scenarios.ca_outcome``,
next to the switch layout it reads.  ``chain_rows`` gives dense rows, and
``one_d_violations`` and ``locomotive_progress`` take them, for callers that
hold rows, and walk them as a ``Trace.from_rows``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Collection
from operator import itemgetter
from pathlib import Path

from . import railway
from .catalog import load_catalog, load_golden_trace
from .engine import EngineError, Trace
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
    equal changes.  Only unequal ones are replayed, to word the divergence.
    """
    if got == want:
        return None
    if got.cell_ids != want.cell_ids:
        return f"cell ordering differs: {got.cell_ids} vs {want.cell_ids}"
    for (t_got, row_got), (t_want, row_want) in zip(got.rows, want.rows):
        if t_got != t_want:
            return f"time labels differ: {t_got} vs {t_want}"
        for cell, s_got, s_want in zip(got.cell_ids, row_got, row_want):
            if s_got is not s_want:
                return f"time {t_got} cell {cell}: expected {s_want.letter}, got {s_got.letter}"
    if len(got.ends) != len(want.ends):
        return f"row counts differ: {len(got.ends) + 1} vs {len(want.ends) + 1}"
    return None


def check_golden(name: str, trace: Trace, golden_dir: Path | str | None = None) -> CheckResult:
    want = load_golden_trace(name, golden_dir)  # missing file raises
    diff = trace_divergence(trace, want)
    return CheckResult(f"golden:{name}", diff is None, diff or f"{len(want.ends) + 1} rows match")


def _positions(trace: Trace, chain: tuple[int, ...]) -> dict[int, int]:
    """Each cell of ``chain``, by its index into ``trace.cell_ids``, mapped to its position in ``chain``."""
    index = {c: i for i, c in enumerate(trace.cell_ids)}
    return {index[c]: k for k, c in enumerate(chain)}


def chain_rows(trace: Trace, chain: tuple[int, ...]) -> list[tuple[CellState, ...]]:
    index = list(_positions(trace, chain))
    return [tuple(states[i] for i in index) for _, states in trace.rows]


# the 1D rules plus the idle track, which stays white: the new state each judged triple must give
_EXPECTED = {**ONE_D_RULES, (W, W, W): W}


def _transition_problem(triple: tuple[CellState, CellState, CellState], new: CellState) -> str:
    """The detail for a track cell with (behind, cell, ahead) ``triple`` that became ``new``, against the 1D rules."""
    letters = "".join(s.letter for s in triple)
    expected = _EXPECTED.get(triple)
    if expected is None:
        return f"unexpected track triple {letters}"
    return f"{letters} -> {new.letter}, 1D rules say {expected.letter}"


def walk_track(trace: Trace, chain: tuple[int, ...]) -> tuple[list[str], list[str], list[CellState]]:
    """Locomotive progress and 1D-rule violations along the track ``chain`` of ``trace``, and its last row.

    The chain's cells are read by position, in travel order, from ``trace.steps()``.
    Row ``t`` must hold exactly one B and one R, adjacent, and the front must
    advance one cell per step (a jump is labelled by row times).  Every
    transition must follow the 1D rules.  The first step judges every
    position; after it, a position's verdict can change only with its
    (behind, cell, ahead) triple or its new state, so each step judges again
    only the positions within one cell of the previous step's changes and
    those its own changes name.  The positions still violating are carried
    with their details, so a broken transition is reported at every step it
    repeats, as a walk over dense rows reports it.  The B and R positions are
    kept as sets.  So the walk costs the first row plus what the steps change.
    """
    on_chain = _positions(trace, chain)
    row = [trace.initial[i] for i in on_chain]
    n = len(row)
    blue = {i for i, s in enumerate(row) if s is B}
    red = {i for i, s in enumerate(row) if s is R}
    progress: list[str] = []
    violations: list[str] = []
    fronts = []  # (time, front position) of each well-formed row
    violating: dict[int, str] = {}  # position -> what its latest transition broke

    def check_locomotive(t: int) -> None:
        if len(blue) != 1 or len(red) != 1:
            progress.append(f"t{t}: {len(blue)} front cells, {len(red)} rear cells")
            return
        (front,), (rear,) = blue, red
        if abs(front - rear) != 1:
            progress.append(f"t{t}: front and rear not adjacent ({front}, {rear})")
        fronts.append((t, front))

    check_locomotive(0)
    judge = set(range(n))
    for t, changes in enumerate(trace.steps()):
        new = {on_chain[i]: s for i, s in changes if i in on_chain}
        judge.update(new)
        for i in judge:  # W beyond the ends
            triple = (row[i - 1] if i > 0 else W, row[i], row[i + 1] if i + 1 < n else W)
            state = new.get(i, row[i])
            if state is _EXPECTED.get(triple):
                violating.pop(i, None)
            else:
                violating[i] = _transition_problem(triple, state)
        violations += [f"t{t} cell#{i}: {violating[i]}" for i in sorted(violating)]
        for i, s in new.items():
            row[i] = s
            blue.discard(i)
            red.discard(i)
            if s is B:
                blue.add(i)
            elif s is R:
                red.add(i)
        check_locomotive(t + 1)
        judge = {j for i in new for j in (i - 1, i, i + 1) if 0 <= j < n}
    for (t0, a), (t1, b_) in zip(fronts, fronts[1:]):
        if (t1 - t0, b_ - a) != (1, 1):
            progress.append(f"t{t0}->{t1}: front moved {b_ - a} cells")
    return progress, violations, row


def _walk_rows(rows: list[tuple[CellState, ...]]) -> tuple[list[str], list[str], list[CellState]]:
    """``walk_track`` over dense rows, at least one, as the trace of a track whose cells are its positions."""
    trace = Trace.from_rows(range(len(rows[0])), enumerate(rows))
    return walk_track(trace, trace.cell_ids)


def one_d_violations(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Check every track-cell transition against the 1D rules (W beyond the ends), via ``walk_track``."""
    return _walk_rows(rows)[1] if rows else []


def locomotive_progress(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Exactly one B and one R, adjacent, with the front advancing one cell per step, via ``walk_track``."""
    return _walk_rows(rows)[0] if rows else []


def track_problems(scenario: Scenario, trace: Trace) -> list[str]:
    """Every fault of a track run: the crossing track's first disturbance, then the walk's, then stuck cells.

    Only a bridge has a crossing track, so a segment reads its changes once.
    ``segment_cells`` is a sub-span of ``track_cells``: the walk's last row tells which stayed non-white.
    """
    problems = []
    if scenario.crossing_track:
        track = _positions(trace, scenario.crossing_track)
        first = [(i, trace.initial[i]) for i in track if trace.initial[i] is not W]
        # up to its first disturbed row the crossing track is white, so what a row changes there it leaves non-white
        for t, changes in enumerate(itertools.chain([first], trace.steps()), trace.start):
            if disturbed := sorted(track[i] for i, _ in changes if i in track):
                problems.append(f"t{t}: crossing track disturbed at {[scenario.crossing_track[k] for k in disturbed]}")
                break
    progress, violations, last = walk_track(trace, scenario.track_cells)  # track_cells is in travel order
    final = dict(zip(scenario.track_cells, last))
    stuck = [c for c in scenario.segment_cells if final[c] is not W]
    idle = "bridge cells not idle after traversal" if scenario.crossing_track else "segment cells not idle after exit"
    return problems + progress + violations + ([f"{idle}: {stuck}"] if stuck else [])


def check_track(scenario: Scenario, trace: Trace) -> CheckResult:
    """A bridge's line when the scenario has a crossing track, a segment's otherwise."""
    problems = track_problems(scenario, trace)
    if scenario.crossing_track:
        name, clean = f"bridge:{scenario.name}", "clean traversal"
    else:
        name, clean = f"segment:{scenario.name}", f"{len(trace.ends)} steps clean"
    return CheckResult(name, not problems, "; ".join(problems[:3]) or clean)


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
