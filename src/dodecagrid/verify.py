"""Checks behind ``verify`` and ``verify-all``: golden runs, properties, oracle agreement.

Every check returns a ``CheckResult``; the matrix printed by ``verify-all`` is
just the ordered list of them.  A check judges the trace it is given and never
builds or runs a scenario: only ``verify_scenario`` runs one, once, and picks
its checks, for ``verify`` and for each scenario of ``verify-all`` alike.
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path
from typing import Collection

from . import railway
from .catalog import load_catalog, load_golden_trace
from .engine import EngineError, Trace
from .geometry import IDENTITY, FacePermutation, enumerate_motions, inverse, preserves_adjacency
from .railway import Exit, Side, SwitchKind
from .record import Record
from .rules import B, CellState, R, RuleConflictError, RuleTable, W
from .scenarios import (
    APPROACH,
    LEFT_BRANCH,
    RIGHT_BRANCH,
    SCENARIOS,
    Scenario,
    idle_states,
    oracle_mode,
)


class CheckResult(Record):
    __slots__ = _fields = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)

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
    """First mismatch as ``time T cell C: expected X, got Y``; None when equal."""
    if got.cell_ids != want.cell_ids:
        return f"cell ordering differs: {got.cell_ids} vs {want.cell_ids}"
    for (t_got, row_got), (t_want, row_want) in zip(got.rows, want.rows):
        if t_got != t_want:
            return f"time labels differ: {t_got} vs {t_want}"
        for cell, s_got, s_want in zip(got.cell_ids, row_got, row_want):
            if s_got is not s_want:
                return f"time {t_got} cell {cell}: expected {s_want.letter}, got {s_got.letter}"
    if len(got.changes) != len(want.changes):
        return f"row counts differ: {len(got.changes) + 1} vs {len(want.changes) + 1}"
    return None


def check_golden(name: str, trace: Trace, golden_dir: Path | str | None = None) -> CheckResult:
    want = load_golden_trace(name, golden_dir)  # missing file raises
    diff = trace_divergence(trace, want)
    return CheckResult(f"golden:{name}", diff is None, diff or f"{len(want.changes) + 1} rows match")


def chain_rows(trace: Trace, chain: tuple[int, ...]) -> list[tuple[CellState, ...]]:
    position = {c: i for i, c in enumerate(trace.cell_ids)}
    index = [position[c] for c in chain]
    return [tuple(states[i] for i in index) for _, states in trace.rows]


def one_d_violations(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Check every track-cell transition against the 1D rules (W beyond the ends)."""
    out = []
    for t in range(len(rows) - 1):
        old, new = rows[t], rows[t + 1]
        for i in range(len(old)):
            behind = old[i - 1] if i > 0 else W
            ahead = old[i + 1] if i + 1 < len(old) else W
            triple = (behind, old[i], ahead)
            expected = ONE_D_RULES.get(triple, W if triple == (W, W, W) else None)
            if new[i] is expected:
                continue
            letters = "".join(s.letter for s in triple)
            if expected is None:
                out.append(f"t{t} cell#{i}: unexpected track triple {letters}")
            else:
                out.append(f"t{t} cell#{i}: {letters} -> {new[i].letter}, 1D rules say {expected.letter}")
    return out


def locomotive_progress(rows: list[tuple[CellState, ...]]) -> list[str]:
    """Exactly one B and one R, adjacent, with the front advancing one cell per step (jumps labelled by row time)."""
    out = []
    fronts = []  # (time, front index) of each well-formed row
    for t, row in enumerate(rows):
        bs = [i for i, s in enumerate(row) if s is B]
        rs = [i for i, s in enumerate(row) if s is R]
        if len(bs) != 1 or len(rs) != 1:
            out.append(f"t{t}: {len(bs)} front cells, {len(rs)} rear cells")
            continue
        if abs(bs[0] - rs[0]) != 1:
            out.append(f"t{t}: front and rear not adjacent ({bs[0]}, {rs[0]})")
        fronts.append((t, bs[0]))
    for (t0, a), (t1, b_) in zip(fronts, fronts[1:]):
        if (t1 - t0, b_ - a) != (1, 1):
            out.append(f"t{t0}->{t1}: front moved {b_ - a} cells")
    return out


def traversal_problems(scenario: Scenario, trace: Trace, stuck_label: str) -> list[str]:
    """Locomotive progress and 1D rules along the track, and ``segment_cells`` all white at the end.

    ``segment_cells`` is a sub-span of ``track_cells``, so the final states
    are read from the last track row, not from a second replay.
    """
    rows = chain_rows(trace, scenario.track_cells)  # track_cells is in travel order
    problems = locomotive_progress(rows) + one_d_violations(rows)
    final = dict(zip(scenario.track_cells, rows[-1]))
    stuck = [c for c in scenario.segment_cells if final[c] is not W]
    if stuck:
        problems.append(f"{stuck_label}: {stuck}")
    return problems


def check_segment(scenario: Scenario, trace: Trace) -> CheckResult:
    problems = traversal_problems(scenario, trace, "segment cells not idle after exit")
    detail = "; ".join(problems[:3]) or f"{len(trace.changes)} steps clean"
    return CheckResult(f"segment:{scenario.name}", not problems, detail)


def crossing_disturbance(scenario: Scenario, trace: Trace) -> str | None:
    """The first row with a non-white crossing-track cell, and those cells, read from the trace's changes.

    Up to that row every crossing cell is white, so the cells a step changes
    among them are exactly the ones it leaves non-white.
    """
    position = {c: i for i, c in enumerate(trace.cell_ids)}
    crossing = [(c, position[c]) for c in scenario.crossing_track]
    watched = {i for _, i in crossing}
    t = trace.start
    touched = [c for c, i in crossing if trace.initial[i] is not W]
    for changes in trace.changes:
        if touched:
            break
        t += 1
        hit = watched.intersection([i for i, _ in changes])
        touched = [c for c, i in crossing if i in hit]
    return f"t{t}: crossing track disturbed at {touched}" if touched else None


def check_bridge(scenario: Scenario, trace: Trace) -> CheckResult:
    disturbance = crossing_disturbance(scenario, trace)
    problems = [] if disturbance is None else [disturbance]
    problems += traversal_problems(scenario, trace, "bridge cells not idle after traversal")
    return CheckResult(f"bridge:{scenario.name}", not problems, "; ".join(problems[:3]) or "clean traversal")


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


def check_oracle_agreement(scenario: Scenario, trace: Trace) -> CheckResult:
    name = f"oracle:{scenario.name}"
    kind, laterality, mode = scenario.crossing
    want_exit, want_state = railway.cross(railway.SwitchState(kind, laterality), oracle_mode(mode, laterality))
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
    """Golden then oracle for a crossing, bridge or segment for a track; an uncovered run fails as ``run:``."""
    try:
        trace = scenario.run(table)
    except EngineError as exc:
        return [CheckResult(f"run:{scenario.name}", False, str(exc))]
    if scenario.crossing:
        return [check_golden(scenario.name, trace, golden_dir), check_oracle_agreement(scenario, trace)]
    check = check_bridge if scenario.crossing_track else check_segment
    return [check(scenario, trace)]


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
