"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the matrix.  The
property criteria use check logic local to this file (frozen one-dimensional
motion table, local outcome extraction) rather than the package's own
verification helpers.
"""

import itertools
import time
from functools import wraps

import pytest

from dodecagrid import railway
from dodecagrid.catalog import golden_path, load_catalog
from dodecagrid.engine import format_trace, trace_tokens
from dodecagrid.geometry import IDENTITY, compose, enumerate_motions, inverse, preserves_adjacency
from dodecagrid.pentagrid import coord_value, fib, level_size, longest_repr, NodeKind
from dodecagrid.railway import Side
from dodecagrid.rules import (
    B,
    R,
    W,
    blank_count,
    check_rotation_invariance,
    context_from_letters,
    minimal_context,
    rotated_context,
)
from dodecagrid.scenarios import (
    APPROACH,
    LEFT_BRANCH,
    RIGHT_BRANCH,
    SCENARIOS,
    build_bridge,
    build_horizontal_segment,
    build_vertical_segment,
)


def criterion(number, summary):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{summary}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{summary}]: PASS")

        return wrapper

    return decorate


@criterion(1, "rotation group: 60 adjacency-preserving permutations forming a group, < 1 s")
def test_criterion_1_rotation_group():
    enumerate_motions.cache_clear()
    started = time.perf_counter()
    perms = enumerate_motions()
    pset = set(perms)
    assert len(perms) == 60 and len(pset) == 60
    assert IDENTITY in pset
    assert all(preserves_adjacency(p) for p in perms)
    assert all(inverse(p) in pset for p in perms)
    assert all(compose(a, b) in pset for a in perms for b in perms)
    assert time.perf_counter() - started < 1.0


@criterion(2, "full rule catalog passes the rotation-invariance check, zero conflicts, < 5 s")
def test_criterion_2_catalog_invariance():
    started = time.perf_counter()
    table = load_catalog()
    report = check_rotation_invariance(table.rules)
    assert report.ok and not report.conflicts, str(report)
    # the at-least-ten-blanks default is itself rotation invariant: spot-check
    # every two-non-blank context shape against every rotation
    for faces in itertools.combinations(range(12), 2):
        for values in itertools.product((B, R), repeat=2):
            neighbors = tuple(
                values[faces.index(i)] if i in faces else W for i in range(12)
            )
            ctx = type(table.rules[0].context)(B, neighbors)
            assert blank_count(ctx) >= 10
            outcome = table.lookup(ctx)
            for perm in enumerate_motions()[::7]:
                assert table.lookup(rotated_context(ctx, perm)) == outcome
    assert time.perf_counter() - started < 5.0


@criterion(3, "the two anchored contexts canonicalize identically")
def test_criterion_3_rotated_pair_witness():
    a = context_from_letters("R W B B W W B B B W W W W".split())
    b = context_from_letters("R W B W W W B B B W W W B".split())
    assert minimal_context(a) == minimal_context(b)


@criterion(4, "all eleven golden traces reproduced token-for-token, < 1 s total")
def test_criterion_4_golden_traces():
    table = load_catalog()
    crossings = [s for s in (e.build() for e in SCENARIOS.values()) if s.crossing]
    assert len(crossings) == 11
    started = time.perf_counter()
    for scenario in crossings:
        got = trace_tokens(format_trace(scenario.run(table)))
        assert got == trace_tokens(golden_path(scenario.name).read_text()), scenario.name
    assert time.perf_counter() - started < 1.0


@criterion(5, "switch end-state semantics at the stated rows")
def test_criterion_5_end_states():
    table = load_catalog()

    nonsel = SCENARIOS["memo-left-nonsel"].build().run(table)
    at5 = nonsel.states_at(5)
    assert [at5[c].letter for c in range(17, 23)] == list("RBBBBR")

    for name, before, after in (
        ("flipflop-left-active", (B, R), (R, B)),
        ("flipflop-right-active", (R, B), (B, R)),
    ):
        trace = SCENARIOS[name].build().run(table)
        assert (trace.states_at(0)[17], trace.states_at(0)[18]) == before
        assert (trace.states_at(7)[17], trace.states_at(7)[18]) == after

    for name in ("fixed-active", "fixed-sel", "fixed-nonsel"):
        trace = SCENARIOS[name].build().run(table)
        first, last = trace.states_at(0), trace.states_at(7)
        assert all(first[c] == last[c] for c in range(17, 23)), name


def read_ca_outcome(trace):
    """(exit, selected side) from a crossing trace, local to the acceptance suite."""
    final = trace.states_at(7)
    if any(final[c] is not W for c in APPROACH):
        exit_taken = railway.Exit.U
    elif any(final[c] is not W for c in LEFT_BRANCH[1:]):
        exit_taken = railway.Exit.LEFT
    else:
        assert any(final[c] is not W for c in RIGHT_BRANCH[1:])
        exit_taken = railway.Exit.RIGHT
    selected = {(B, R): Side.LEFT, (R, B): Side.RIGHT}[(final[17], final[18])]
    return exit_taken, selected


@criterion(6, "CA outcomes agree with the railway oracle for every kind/laterality/mode")
def test_criterion_6_oracle_agreement():
    table = load_catalog()
    checked = 0
    for entry in SCENARIOS.values():
        scenario = entry.build()
        if not scenario.crossing:
            continue
        kind, laterality, mode = scenario.crossing
        want_exit, want_state = railway.cross(railway.SwitchState(kind, laterality), mode)
        got_exit, got_selected = read_ca_outcome(scenario.run(table))
        assert got_exit is want_exit, scenario.name
        assert got_selected is want_state.selected, scenario.name
        checked += 1
    assert checked == 11


# the eight one-dimensional motion rules, frozen here independently of the
# package's verification helpers; (behind, cell, ahead) -> new cell state
ONE_D = {
    (B, W, W): B,
    (W, W, B): B,
    (R, B, W): R,
    (W, B, R): R,
    (W, R, B): W,
    (B, R, W): W,
    (W, W, R): W,
    (R, W, W): W,
}


def check_chain_run(scenario, table):
    trace = scenario.run(table)
    order = [trace.cell_ids.index(c) for c in scenario.track_cells]
    rows = [tuple(states[i] for i in order) for _, states in trace.rows]
    # exactly one front, one rear, adjacent, advancing one cell per step
    fronts = []
    for t, row in enumerate(rows):
        assert sum(1 for s in row if s is B) == 1, f"t{t}"
        assert sum(1 for s in row if s is R) == 1, f"t{t}"
        front = row.index(B)
        assert abs(front - row.index(R)) == 1, f"t{t}"
        fronts.append(front)
    assert all(b - a == 1 for a, b in zip(fronts, fronts[1:]))
    # every transition obeys the one-dimensional rules
    for t in range(len(rows) - 1):
        old, new = rows[t], rows[t + 1]
        for i in range(len(old)):
            behind = old[i - 1] if i > 0 else W
            ahead = old[i + 1] if i + 1 < len(old) else W
            triple = (behind, old[i], ahead)
            expected = ONE_D.get(triple)
            if expected is None:
                assert triple == (W, W, W), f"t{t} #{i}: {triple}"
                expected = W
            assert new[i] is expected, f"t{t} #{i}"
    # the segment returns to all-white once the locomotive has left it
    final = trace.states_at(trace.rows[-1][0])
    assert all(final[c] is W for c in scenario.segment_cells)


@criterion(7, "vertical and horizontal segments up to size 12: 1D rules, one cell per step, idle restored")
def test_criterion_7_track_dynamics():
    table = load_catalog()
    for n in range(3, 13):
        for forward in (True, False):
            check_chain_run(build_vertical_segment(n, forward=forward), table)
    for k in range(2, 13):
        for forward in (True, False):
            check_chain_run(build_horizontal_segment(k, forward=forward), table)


@criterion(8, "bridge: clean traversals both ways, crossing track untouched, idle restored")
def test_criterion_8_bridge():
    table = load_catalog()
    for track in ("v0", "v1"):
        for forward in (True, False):
            scenario = build_bridge(track, forward=forward)
            trace = scenario.run(table)  # a missing rule would raise here
            other = scenario.crossing_track
            for _, states in trace.rows:
                row = dict(zip(trace.cell_ids, states))
                assert all(row[c] is W for c in other)
            final = trace.states_at(trace.rows[-1][0])
            assert all(final[c] is W for c in scenario.segment_cells)


@criterion(9, "pentagrid: level sizes fib(2n+1) to depth 10, preferred sons to depth 8")
def test_criterion_9_pentagrid(fibonacci_tree):
    # fibonacci_tree (conftest.py) is the breadth-first reference, built from the son rule to depth 10
    assert fib(0) == 1 and fib(1) == 1
    for n, level in enumerate(fibonacci_tree):
        assert len(level) == level_size(n) == fib(2 * n + 1)
    assert [len(lvl) for lvl in fibonacci_tree[:4]] == [1, 3, 8, 21]
    for level in fibonacci_tree[:9]:
        for number, kind, _, sons in level:
            target = coord_value(longest_repr(number) + "00")
            hits = [s for s in sons if s == target]
            assert len(hits) == 1, number
            want_position = 0 if kind is NodeKind.BLACK else 1
            assert sons.index(target) == want_position, number


@criterion(10, "headline universality out of desk-scale scope; component verifications stand in")
def test_criterion_10_scope_note():
    # The weak-universality theorem needs the unbounded circuitry; at desk
    # scale the acceptance rests on criteria 1-9, the same checks the
    # original verification program performed.
    assert True
