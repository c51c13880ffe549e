import itertools
import re
import shutil
import tracemalloc
from array import array
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodecagrid import rules, scenarios, verify
from dodecagrid.catalog import default_rules_dir, golden_path, load_catalog, load_golden_trace
from dodecagrid.engine import EngineError, Trace, TraceFormatError, format_trace
from dodecagrid.geometry import IDENTITY, Motion, compose, enumerate_motions, permutation_from_motion
from dodecagrid.railway import SwitchKind
from dodecagrid.rules import B, R, RuleConflictError, RuleTable, W, load_rule_files
from dodecagrid.scenarios import (
    APPROACH,
    LEFT_BRANCH,
    RIGHT_BRANCH,
    SCENARIOS,
    Scenario,
    build_bridge,
    build_horizontal_segment,
    build_vertical_segment,
    ca_outcome,
)
from dodecagrid.verify import (
    ONE_D_RULES,
    CheckResult,
    chain_rows,
    check_catalog_invariance,
    check_golden,
    check_oracle_agreement,
    check_rotation_group,
    check_track,
    closed_under_composition,
    expected_traversal,
    locomotive_progress,
    one_d_violations,
    trace_divergence,
    track_problems,
    verify_all,
    verify_scenario,
)


def test_rotation_group_check():
    assert check_rotation_group().ok


FIFTH_TURN = permutation_from_motion(Motion(0, 5))  # about face 0, order 5
FIFTH_TURN_BACK = permutation_from_motion(Motion(0, 2))  # its inverse
HALF_TURN = permutation_from_motion(Motion(1, 0))  # about the edge between faces 0 and 1, order 2
FACE_SWAP = (1, 0, *range(2, 12))  # faces 0 and 1 exchanged, no rotation


@pytest.mark.parametrize(
    "perms, detail",
    [
        ((IDENTITY, FIFTH_TURN, FIFTH_TURN_BACK), "3 distinct permutations; not closed under composition"),
        ((HALF_TURN,), "1 distinct permutations; identity missing; not closed under composition"),
        ((IDENTITY, FACE_SWAP), "2 distinct permutations; adjacency broken"),
        ((IDENTITY, FIFTH_TURN), "2 distinct permutations; inverse missing; not closed under composition"),
        ((IDENTITY, HALF_TURN), "2 distinct permutations"),
    ],
)
def test_rotation_group_check_fails(monkeypatch, perms, detail):
    monkeypatch.setattr(verify, "enumerate_motions", lambda: perms)
    assert check_rotation_group().line() == f"FAIL  rotation-group  ({detail})"


MOTIONS = enumerate_motions()


def brute_force_closed(perms):
    """The reference closure check: all len(perms)**2 compositions are members."""
    members = set(perms)
    return all(compose(a, b) in members for a in members for b in members)


def generated_group(generators):
    """The subgroup the given rotations generate, in the order its elements are first reached."""
    group = [IDENTITY]
    for a in group:  # grows as it is walked
        for g in generators:
            if (b := compose(a, g)) not in group:
                group.append(b)
    return group


def product_set(a, b):
    """``compose(x, y)`` for x in the powers of ``a`` and y in those of ``b``, listed so that ``a`` is met before ``b``.

    Walking it with ``a``, then with ``b`` alone, reaches exactly the set, so a
    check that skipped composing with earlier generators would call it closed.
    """
    return list(dict.fromkeys(compose(x, y) for y in generated_group([b]) for x in generated_group([a])))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_orbit_closure_check_agrees_with_brute_force(data):
    base = data.draw(st.sampled_from(["subgroup", "subset", "product"]))
    if base == "subgroup":
        perms = generated_group(data.draw(st.lists(st.sampled_from(MOTIONS), max_size=3)))
    elif base == "subset":
        perms = data.draw(st.lists(st.sampled_from(MOTIONS), max_size=60, unique=True))
    else:
        perms = product_set(data.draw(st.sampled_from(MOTIONS)), data.draw(st.sampled_from(MOTIONS)))
    edit = data.draw(st.sampled_from(["none", "drop", "add"]))
    if edit == "drop" and perms:
        perms.pop(data.draw(st.integers(0, len(perms) - 1)))
    elif edit == "add":  # a permutation of the faces that is, almost surely, no rotation
        perms.append(data.draw(st.permutations(range(12)).map(tuple)))
    if data.draw(st.booleans(), label="shuffle"):  # the generators are picked greedily in list order
        perms = data.draw(st.permutations(perms))
    assert closed_under_composition(perms) == brute_force_closed(perms)


def order(p):
    return len(generated_group([p]))


def test_the_rotations_are_closed_and_no_set_of_59_of_them_is():
    assert closed_under_composition(MOTIONS)
    assert not any(closed_under_composition(MOTIONS[:i] + MOTIONS[i + 1 :]) for i in range(60))
    assert closed_under_composition(generated_group([MOTIONS[7]]))


def test_a_product_of_two_cyclic_subgroups_is_not_closed():
    # orders 5 and 3 give 15 rotations, and the rotation group has no subgroup of order 15
    fifth = next(p for p in MOTIONS if order(p) == 5)
    third = next(p for p in MOTIONS if order(p) == 3)
    perms = product_set(fifth, third)
    assert len(perms) == 15
    assert not brute_force_closed(perms)
    assert not closed_under_composition(perms)


def test_catalog_invariance_check():
    result, table = check_catalog_invariance()
    assert result.ok
    assert result.detail == f"{len(table)} rules" == "134 rules"


def test_catalog_invariance_check_fails_on_conflict(tmp_path):
    # the catalogue plus one rotated controller rule with the other new state
    rules_dir = tmp_path / "rules"
    shutil.copytree(default_rules_dir(), rules_dir)
    (rules_dir / "zz.rules").write_text("B W W R W W W W W W R R R -> B\n")
    conflict = (
        "rotation-invariance conflict between [memory_controller_motion.rules:28] B | R W W W W W W W W R R R -> R"
        " and [zz.rules:1] B | W W R W W W W W W R R R -> B"
    )
    result, table = check_catalog_invariance(rules_dir)
    assert result.line() == f"FAIL  rule-catalog-invariance  ({conflict})"
    assert table is None


def test_verify_all_judges_an_edited_catalogue_as_it_now_reads(tmp_path):
    # one process, one directory, edited between two calls: the second verdict
    # comes from the edited files, not from the table the first call read
    rules_dir = tmp_path / "rules"
    shutil.copytree(default_rules_dir(), rules_dir)
    assert [r.name for r in verify_all(rules_dir) if not r.ok] == []
    target = rules_dir / "memory_track_motion.rules"
    text = target.read_text()
    arrival = "W B B B W W B B B W W W B -> B"  # the scanned cell's arrival rule
    assert arrival in text
    target.write_text(text.replace(arrival, "W B B B W W B B B W W W B -> R"))
    results = verify_all(rules_dir)
    assert [r.name for r in results if not r.ok] == [
        "run:memo-left-active",
        "run:memo-right-active",
        "run:fixed-active",
        "run:flipflop-left-active",
        "run:flipflop-right-active",
    ]
    assert len(results) == 27


def test_golden_checks_pass(catalog):
    for name, entry in SCENARIOS.items():
        scenario = entry.build()
        if not scenario.crossing:
            continue
        result = check_golden(name, scenario.run(catalog))
        assert result.ok, name
        assert result.detail == "8 rows match"


def test_golden_check_fails_closed_on_missing_file(catalog, tmp_path):
    trace = SCENARIOS["memo-left-active"].build().run(catalog)
    with pytest.raises(FileNotFoundError):
        check_golden("memo-left-active", trace, tmp_path)


def test_golden_detail_counts_the_golden_rows(catalog, tmp_path):
    name = "memo-left-active"
    lines = golden_path(name).read_text().splitlines(keepends=True)
    header = [line for line in lines if not line.startswith("time ")]
    rows = [line for line in lines if line.startswith("time ")]
    golden_path(name, tmp_path).write_text("".join(header + rows[:5]))
    trace = SCENARIOS[name].build().run(catalog)
    result = check_golden(name, Trace.from_rows(trace.cell_ids, trace.rows[:5]), tmp_path)
    assert result.line() == f"PASS  golden:{name}  (5 rows match)"


def test_trace_divergence_reports_location():
    a = Trace.from_rows((1, 2), ((0, (W, B)), (1, (B, W))))
    b = Trace.from_rows((1, 2), ((0, (W, B)), (1, (B, R))))
    assert trace_divergence(a, a) is None
    assert trace_divergence(a, b) == "time 1 cell 2: expected R, got W"


def test_golden_check_refuses_a_header_only_golden_file(catalog, tmp_path):
    # a golden trace always has a first row; without one it is malformed, not a zero-row trace to compare
    name = "memo-left-active"
    header = [line for line in golden_path(name).read_text().splitlines(keepends=True) if not line.startswith("time ")]
    path = golden_path(name, tmp_path)
    path.write_text("".join(header))
    trace = SCENARIOS[name].build().run(catalog)
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: trace has no rows$"):
        check_golden(name, trace, tmp_path)


@pytest.fixture(scope="module")
def memo_left_active(catalog):
    return SCENARIOS["memo-left-active"].build().run(catalog)


def test_golden_check_fails_on_cell_order(memo_left_active):
    swapped = (2, 1, *range(3, 23))
    rows = tuple((t, (states[1], states[0], *states[2:])) for t, states in memo_left_active.rows)
    result = check_golden("memo-left-active", Trace.from_rows(swapped, rows))
    detail = f"cell ordering differs: {swapped} vs {tuple(range(1, 23))}"
    assert result.line() == f"FAIL  golden:memo-left-active  ({detail})"


def test_golden_check_fails_on_time_labels(memo_left_active):
    rows = tuple((t + 1, states) for t, states in memo_left_active.rows)
    result = check_golden("memo-left-active", Trace.from_rows(memo_left_active.cell_ids, rows))
    assert result.line() == "FAIL  golden:memo-left-active  (time labels differ: 1 vs 0)"


def test_golden_check_fails_on_row_count(memo_left_active):
    trace = Trace.from_rows(memo_left_active.cell_ids, memo_left_active.rows[:-1])
    result = check_golden("memo-left-active", trace)
    assert result.line() == "FAIL  golden:memo-left-active  (row counts differ: 7 vs 8)"


def test_golden_check_replays_each_trace_once(memo_left_active, monkeypatch, tmp_path):
    short = Trace.from_rows(memo_left_active.cell_ids, memo_left_active.rows[:5])
    golden_path("short", tmp_path).write_text(format_trace(short))
    replayed = []
    replay = Trace.rows.fget
    monkeypatch.setattr(Trace, "rows", property(lambda trace: replayed.append(trace) or replay(trace)))
    # an equal golden trace is compared as a record; an unequal one is read from both traces' flat arrays in
    # lockstep, so no trace is replayed into dense rows
    assert check_golden("memo-left-active", memo_left_active).detail == "8 rows match"
    assert check_golden("short", memo_left_active, tmp_path).detail == "row counts differ: 8 vs 5"
    assert replayed == []


def test_one_d_violations_flag_unexpected_triple():
    # a lone front with white on both sides matches none of the 1D rules
    assert one_d_violations([(B,), (W,)]) == ["t0 cell#0: unexpected track triple WBW"]


def test_locomotive_progress_flags_detached_rear():
    assert locomotive_progress([(R, W, B)]) == ["t0: front and rear not adjacent (2, 0)"]


def test_locomotive_progress_flags_jumping_front():
    assert locomotive_progress([(R, B, W, W), (W, W, R, B)]) == ["t0->1: front moved 2 cells"]


def test_locomotive_progress_labels_a_jump_by_row_times():
    # the split row at t1 is skipped, so the jump is from t0 to t2
    rows = [(R, B, W, W, W), (W, W, W, W, W), (W, W, R, B, W), (W, W, W, R, B)]
    assert locomotive_progress(rows) == ["t1: 0 front cells, 0 rear cells", "t0->2: front moved 2 cells"]


def test_segment_check_fails_on_stuck_segment_cell(catalog):
    # cut short while the rear is still on the first segment cell past the buffer
    scenario = build_vertical_segment(7)
    trace = scenario.run(catalog, 6)
    rear = scenario.track_cells[11]
    assert rear in scenario.segment_cells
    assert track_problems(scenario, trace) == [f"segment cells not idle after exit: [{rear}]"]
    assert check_track(scenario, trace).line() == (
        f"FAIL  segment:vertical-fwd-n7  (segment cells not idle after exit: [{rear}])"
    )


def test_stuck_cells_are_listed_in_segment_order_on_a_reversed_track(catalog):
    # travelling backwards, the locomotive sits on cells 8 (rear) then 7 (front);
    # the detail lists them as segment_cells does, not in travel order
    scenario = build_vertical_segment(7, forward=False)
    trace = scenario.run(catalog, 4)
    assert scenario.track_cells.index(8) < scenario.track_cells.index(7)
    assert track_problems(scenario, trace) == ["segment cells not idle after exit: [7, 8]"]


def test_bridge_check_fails_on_disturbed_crossing_track(catalog):
    scenario = build_bridge("v1")
    trace = scenario.run(catalog)
    crossing = scenario.crossing_track[6]
    rows = tuple(
        (t, tuple(B if t == 3 and cell == crossing else s for cell, s in zip(trace.cell_ids, states)))
        for t, states in trace.rows
    )
    result = check_track(scenario, Trace.from_rows(trace.cell_ids, rows))
    assert result.line() == f"FAIL  bridge:v1-fwd  (t3: crossing track disturbed at [{crossing}])"


def disturbed_bridge_trace(catalog, disturbances):
    """The v1 bridge run with each ``(time, k): state`` written into the row at time into crossing-track cell k."""
    scenario = build_bridge("v1")
    trace = scenario.run(catalog)
    by_cell = {(t, scenario.crossing_track[k]): s for (t, k), s in disturbances.items()}
    rows = tuple(
        (t, tuple(by_cell.get((t, cell), s) for cell, s in zip(trace.cell_ids, states))) for t, states in trace.rows
    )
    return scenario, Trace.from_rows(trace.cell_ids, rows)


@pytest.mark.parametrize(
    "disturbances, detail",
    [
        ({(0, 2): R}, "t0: crossing track disturbed at [{2}]"),  # in the initial row
        ({(4, 5): B, (4, 1): R}, "t4: crossing track disturbed at [{1}, {5}]"),  # two at once, in track order
        ({(2, 3): B, (3, 3): B, (3, 0): R}, "t2: crossing track disturbed at [{3}]"),  # only the first row's cells
    ],
)
def test_crossing_disturbance_matches_dense_scan(catalog, disturbances, detail):
    scenario, trace = disturbed_bridge_trace(catalog, disturbances)
    want = detail.format(*scenario.crossing_track)
    assert dense_track_problems(scenario, trace)[0] == want
    assert track_problems(scenario, trace)[0] == want
    assert check_track(scenario, trace).detail.startswith(want)


def test_disturbed_cells_are_listed_in_crossing_track_order():
    # the crossing track runs against cell order, and both its cells turn at t1, after the first row
    scenario = Scenario("reversed", None, None, track_cells=(1, 2, 3), segment_cells=(), crossing_track=(5, 4))
    trace = Trace.from_rows((1, 2, 3, 4, 5), ((0, (R, B, W, W, W)), (1, (W, R, B, B, R))))
    want = ["t1: crossing track disturbed at [5, 4]"]
    assert track_problems(scenario, trace) == dense_track_problems(scenario, trace) == want


# the v1 bridge run has 13 rows and 17 crossing-track cells
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 16)), st.sampled_from([B, R]), max_size=4))
@settings(max_examples=60, deadline=None)
def test_crossing_disturbance_agrees_with_dense_scan(catalog, disturbances):
    scenario, trace = disturbed_bridge_trace(catalog, disturbances)
    assert track_problems(scenario, trace) == dense_track_problems(scenario, trace)


def test_crossing_disturbance_of_a_one_row_trace(catalog):
    # no disturbance: the one fault is the locomotive, still on its first two cells
    scenario = build_bridge("v1")
    assert track_problems(scenario, scenario.run(catalog, 0)) == ["bridge cells not idle after traversal: [23, 24]"]


def test_ca_outcome_rejects_trace_with_no_locomotive_on_an_exit(memo_left_active):
    t, final = memo_left_active.rows[-1]
    track = set(APPROACH + LEFT_BRANCH + RIGHT_BRANCH)
    cleared = tuple(W if cell in track else s for cell, s in zip(memo_left_active.cell_ids, final))
    trace = Trace.from_rows(memo_left_active.cell_ids, memo_left_active.rows[:-1] + ((t, cleared),))
    with pytest.raises(ValueError, match="^no locomotive on any exit track at the end of the run$"):
        ca_outcome(trace, SwitchKind.MEMORY)


def test_oracle_agreement_fails_on_another_crossings_trace(memo_left_active):
    # an active crossing leaves by the left arm; a passive one by the selected arm leaves by the single track
    result = check_oracle_agreement(SCENARIOS["memo-left-sel"].build(), memo_left_active)
    assert result.line() == (
        "FAIL  oracle:memo-left-sel  (CA (exit left, selected left) != oracle (exit u, selected left))"
    )


def test_one_d_violations_flag_bad_transition():
    rows = [(R, B, W), (W, R, W)]  # front should have advanced into cell 2
    assert one_d_violations(rows) == ["t0 cell#2: BWW -> W, 1D rules say B"]
    good = [(R, B, W), (W, R, B)]
    assert not one_d_violations(good)


def test_locomotive_progress_flags_split_locomotive():
    rows = [(B, W, B)]
    assert locomotive_progress(rows)


def test_segment_checks(catalog):
    for scenario in (build_vertical_segment(7), build_vertical_segment(7, forward=False)):
        assert check_track(scenario, scenario.run(catalog)).ok


def test_bridge_checks(catalog):
    for scenario in (build_bridge("v1"), build_bridge("v0", forward=False)):
        assert check_track(scenario, scenario.run(catalog)).ok


def test_oracle_agreement_all_modes(catalog):
    for entry in SCENARIOS.values():
        scenario = entry.build()
        if not scenario.crossing:
            continue
        result = check_oracle_agreement(scenario, scenario.run(catalog))
        assert result.ok, result.line()


def test_verify_scenario_dispatch(catalog):
    built = [SCENARIOS["memo-left-sel"].build(), build_vertical_segment(7), build_bridge("v0")]
    names = [[r.name for r in verify_scenario(s, catalog)] for s in built]
    assert names == [["golden:memo-left-sel", "oracle:memo-left-sel"], ["segment:vertical-fwd-n7"], ["bridge:v0-fwd"]]


def test_ca_outcome_rejects_switch_cells_in_no_idle_state(catalog):
    # a garbled controller (cell 19) leaves the sensors readable, but the
    # switch cells match neither side's idle state
    trace = SCENARIOS["memo-left-active"].build().run(catalog)
    t, final = trace.rows[-1]
    garbled = tuple(W if cell == 19 else s for cell, s in zip(trace.cell_ids, final))
    assert garbled != final
    message = "^switch cells read 17:B 18:R 19:W 20:B 21:R 22:B, no idle state of the memory switch$"
    with pytest.raises(ValueError, match=message):
        ca_outcome(Trace.from_rows(trace.cell_ids, trace.rows[:-1] + ((t, garbled),)), SwitchKind.MEMORY)


def test_verify_all_green():
    results = verify_all()
    assert all(r.ok for r in results)
    assert len(results) == 32


def test_verify_all_runs_each_scenario_once(monkeypatch):
    # 11 switch crossings, each read by its golden and its oracle check, and 8 track scenarios
    calls = 0
    original = scenarios.run

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(scenarios, "run", counted)
    verify_all()
    assert calls == 19


def test_verify_all_replays_states_at_only_for_oracle_checks(monkeypatch):
    # one replay per switch crossing's oracle check; segment and bridge checks
    # read their final states from the track rows they already replayed
    calls = 0
    original = Trace.states_at

    def counted(trace, time):
        nonlocal calls
        calls += 1
        return original(trace, time)

    monkeypatch.setattr(Trace, "states_at", counted)
    verify_all()
    assert calls == 11


def _minimal_context_calls(monkeypatch, work) -> int:
    """``minimal_context`` calls made by ``work`` on a freshly built catalogue table."""
    calls = 0
    original = rules.minimal_context

    def counted(ctx):
        nonlocal calls
        calls += 1
        return original(ctx)

    monkeypatch.setattr(rules, "minimal_context", counted)
    work()
    return calls


def test_catalog_invariance_reads_the_table_pass(monkeypatch):
    # one census-index pass builds both the index and the report; only a conflict needs a minimal form
    assert _minimal_context_calls(monkeypatch, check_catalog_invariance) == 0


def test_verify_all_canonicalises_each_rule_once(monkeypatch):
    # of the 123 distinct contexts the matrix looks up, 112 are written in rules and answered from the
    # table's seeded cache; 6 of the other 11 have a rule's census and are rotated once into the index,
    # and 5 have none: none is canonicalised
    assert _minimal_context_calls(monkeypatch, verify_all) == 0


# --- the dense references the change-reading checks must agree with ---------


def dense_trace_divergence(got, want):
    """The reference golden compare: walk the replayed rows, with no shortcut for equal records."""
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


def dense_one_d_violations(rows):
    """The reference 1D check: every position of every dense row, against the 1D rules (W beyond the ends)."""
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


def dense_locomotive_progress(rows):
    """The reference progress check: every dense row searched for its B and R cells."""
    out = []
    fronts = []
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


def dense_track_problems(scenario, trace):
    """The reference track check: every replayed row as a dict of every cell, then the dense track rows."""
    problems = []
    for t, states in trace.rows:
        row = dict(zip(trace.cell_ids, states))
        touched = [c for c in scenario.crossing_track if row[c] is not W]
        if touched:
            problems.append(f"t{t}: crossing track disturbed at {touched}")
            break
    rows = chain_rows(trace, scenario.track_cells)
    problems += dense_locomotive_progress(rows) + dense_one_d_violations(rows)
    final = dict(zip(scenario.track_cells, rows[-1]))
    stuck = [c for c in scenario.segment_cells if final[c] is not W]
    if stuck:
        label = "bridge cells not idle after traversal" if scenario.crossing_track else "segment cells not idle after exit"
        problems.append(f"{label}: {stuck}")
    return problems


def one_d_step(row):
    """The next track row under the 1D rules; a cell whose triple has no rule keeps its state."""
    triples = zip((W, *row), row, (*row[1:], W))
    return tuple(ONE_D_RULES.get(triple, W if triple == (W, W, W) else triple[1]) for triple in triples)


@st.composite
def track_traces(draw):
    """A scenario of 1-12 track cells among up to 3 others, and a trace of 0-8 steps over them.

    Some of the others, in a drawn order, may form a crossing track, as a
    bridge's other track does; it may start white.  Each step moves the track
    by the 1D rules, then redraws each cell with a drawn chance (none, some or
    about 30 %), so most traces break the rules somewhere, repeat a broken
    transition, split the locomotive, or disturb the crossing track.
    """
    n_track = draw(st.integers(1, 12))
    cell_ids = tuple(draw(st.permutations(range(1, n_track + draw(st.integers(0, 3)) + 1))))
    track = tuple(draw(st.permutations(cell_ids)))[:n_track]
    spare = tuple(draw(st.permutations([c for c in cell_ids if c not in track])))
    crossing = spare[: draw(st.integers(0, len(spare)))]
    lo = draw(st.integers(0, n_track))
    segment = track[lo : draw(st.integers(lo, n_track))]
    if draw(st.booleans(), label="segment against travel order"):
        segment = segment[::-1]
    state = st.sampled_from([W, W, B, R])
    row = dict(zip(cell_ids, draw(st.lists(state, min_size=len(cell_ids), max_size=len(cell_ids)))))
    if draw(st.booleans(), label="crossing track starts white"):
        row.update(dict.fromkeys(crossing, W))
    redraw = draw(st.sampled_from([0, 1, 3]))  # in tenths
    start = draw(st.integers(0, 3))
    rows = [(start, tuple(row[c] for c in cell_ids))]
    for t in range(start + 1, start + 1 + draw(st.integers(0, 8))):
        row.update(zip(track, one_d_step(tuple(row[c] for c in track))))
        for c in cell_ids:
            if draw(st.integers(0, 9)) < redraw:
                row[c] = draw(state)
        rows.append((t, tuple(row[c] for c in cell_ids)))
    scenario = Scenario("random", None, None, track_cells=track, segment_cells=segment, crossing_track=crossing)
    return scenario, Trace.from_rows(cell_ids, rows)


@given(track_traces())
@settings(max_examples=400, deadline=None)
def test_track_problems_agree_with_the_dense_reference(scenario_and_trace):
    scenario, trace = scenario_and_trace
    assert track_problems(scenario, trace) == dense_track_problems(scenario, trace)
    rows = chain_rows(trace, scenario.track_cells)
    assert one_d_violations(rows) == dense_one_d_violations(rows)
    assert locomotive_progress(rows) == dense_locomotive_progress(rows)


def test_a_repeated_broken_transition_is_reported_at_every_step():
    # the lone rear keeps its unexpected triple with nothing near it changing, so its
    # verdict is carried; the last cell misfires once, and its next verdict is judged anew
    rows = [(R, W, W, W, W), (R, W, W, W, W), (R, W, W, W, R), (R, W, W, W, W)]
    assert one_d_violations(rows) == dense_one_d_violations(rows) == [
        "t0 cell#0: unexpected track triple WRW",
        "t1 cell#0: unexpected track triple WRW",
        "t1 cell#4: WWW -> R, 1D rules say W",
        "t2 cell#0: unexpected track triple WRW",
        "t2 cell#4: unexpected track triple WRW",
    ]


def test_track_checks_of_no_rows_find_nothing():
    assert one_d_violations([]) == locomotive_progress([]) == []


TRACK_RULE_FILES = ("corner_motion.rules", "straight_motion.rules", "track_conservative.rules")
TRACK_SCENARIOS = [entry.build() for entry in SCENARIOS.values() if entry.build().track_cells]


def single_rule_flips(files):
    """The whole catalogue with one rule of ``files`` given another new state, for each such rule and state."""
    catalogue = load_catalog().rules
    for k, rule in enumerate(catalogue):
        if rule.source.split(":")[0] in files:
            for new_state in (s for s in rules.CellState if s is not rule.new_state):
                yield (*catalogue[:k], rule._replace(new_state=new_state), *catalogue[k + 1 :])


def test_track_checks_agree_with_the_dense_reference_under_track_rule_flips():
    compared = 0
    for mutated in single_rule_flips(TRACK_RULE_FILES):
        try:
            table = RuleTable(mutated)
        except RuleConflictError:
            continue
        for scenario in TRACK_SCENARIOS:
            try:
                trace = scenario.run(table)
            except EngineError:
                continue
            want = dense_track_problems(scenario, trace)
            assert track_problems(scenario, trace) == want, scenario.name
            compared += 1
    assert compared > 0


# --- the compare against the clean traversal, and the walk it stands in for --------


def walked_line(scenario, trace):
    """``check_track``'s line with the compare taken out, so that ``track_problems`` judges every trace."""
    with patch.object(verify, "_traversal", return_value=None):
        return check_track(scenario, trace).line()


def checked(scenario, trace):
    """``check_track``'s line, and whether it came from the compare alone, with no call of ``track_problems``."""
    with patch.object(verify, "track_problems", wraps=track_problems) as walk:
        line = check_track(scenario, trace).line()
    return line, not walk.called


LONG_TRACKS = {
    "vertical-fwd-n2000": lambda: build_vertical_segment(2000),
    "horizontal-rev-k200": lambda: build_horizontal_segment(200, forward=False),
}


@pytest.mark.parametrize("name", [scenario.name for scenario in TRACK_SCENARIOS] + list(LONG_TRACKS))
def test_the_expected_traversal_is_the_runs_trace(catalog, name):
    scenario = LONG_TRACKS[name]() if name in LONG_TRACKS else SCENARIOS[name].build()
    trace = scenario.run(catalog)
    assert expected_traversal(scenario, len(trace.ends)) == (trace.ends, trace.indices, trace.new_states)
    assert checked(scenario, trace) == (walked_line(scenario, trace), True)


def test_there_is_no_expected_traversal_past_the_end_of_the_track(catalog):
    scenario = build_vertical_segment(7, forward=False)
    assert expected_traversal(scenario, scenario.default_steps) is not None
    assert expected_traversal(scenario, scenario.default_steps + 1) is None
    scenario = scenario._replace(initial=scenario.initial._replace(states={**scenario.initial.states, 1: B}))
    assert expected_traversal(scenario, 0) is None  # a third cell not white


def test_a_clean_prefix_that_stops_on_the_segment_fails_through_the_walk(catalog):
    # the changes are the clean traversal's, but the rear is still on a segment cell after them
    scenario = build_vertical_segment(7)
    trace = scenario.run(catalog, 6)
    assert expected_traversal(scenario, 6) == (trace.ends, trace.indices, trace.new_states)
    line, compared = checked(scenario, trace)
    assert not compared
    assert line == walked_line(scenario, trace) == (
        f"FAIL  segment:vertical-fwd-n7  (segment cells not idle after exit: [{scenario.track_cells[11]}])"
    )


@pytest.mark.parametrize(
    "first_row",
    [
        {7: W, 8: B},  # the front two cells ahead of the rear
        {6: B, 7: R},  # the locomotive turned round
        {17: B},  # a third cell not white, where the front ends
    ],
)
def test_the_clean_changes_from_another_first_row_are_left_to_the_walk(catalog, first_row):
    scenario = build_vertical_segment(7)  # the rear on cell 6, the front on 7, 17 cells
    trace = scenario.run(catalog)
    altered = trace._replace(initial=tuple(first_row.get(c, s) for c, s in zip(trace.cell_ids, trace.initial)))
    line, compared = checked(scenario, altered)
    assert not compared
    assert line == walked_line(scenario, altered)
    assert line.startswith("FAIL")


def test_a_track_that_meets_itself_is_left_to_the_walk():
    # round a loop of four cells the clean changes repeat a cell, which the walk's positions cannot hold
    rows = [(0, (R, B, W, W)), (1, (W, R, B, W)), (2, (W, W, R, B)), (3, (B, W, W, R))]
    scenario = Scenario("loop", None, None, track_cells=(1, 2, 3, 4, 1), segment_cells=(), crossing_track=())
    with patch.object(verify, "track_problems", return_value=["walked"]):
        assert check_track(scenario, Trace.from_rows((1, 2, 3, 4), rows)).line() == "FAIL  segment:loop  (walked)"


def flat_trace(trace, steps):
    """``trace`` with each step's changes given as a list of ``(index, state value)`` pairs, stored as listed."""
    ends = array("Q", itertools.accumulate(map(len, steps)))
    indices = array("I", [i for changes in steps for i, _ in changes])
    new_states = bytes(s for changes in steps for _, s in changes)
    return Trace(trace.cell_ids, trace.start, trace.initial, ends, indices, new_states)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_the_compare_passes_exactly_when_the_walk_finds_nothing(catalog, data):
    """One change of a track run flipped, dropped, duplicated or moved one step; the line stays the walk's."""
    scenario = data.draw(st.sampled_from(TRACK_SCENARIOS), label="scenario")
    trace = scenario.run(catalog)
    steps, done = [], 0
    for end in trace.ends:
        steps.append(list(zip(trace.indices[done:end], trace.new_states[done:end])))
        done = end
    k = data.draw(st.integers(0, len(steps) - 1), label="step")
    m = data.draw(st.integers(0, len(steps[k]) - 1), label="change")
    index, state = steps[k][m]
    how = data.draw(st.sampled_from(["flip", "drop", "duplicate", "move"]), label="alteration")
    if how == "flip":
        steps[k][m] = index, data.draw(st.sampled_from([s for s in range(3) if s != state]), label="state")
    elif how == "drop":
        del steps[k][m]
    elif how == "duplicate":
        steps[k].insert(m + 1, (index, state))
    else:
        to = data.draw(st.sampled_from([j for j in (k - 1, k + 1) if 0 <= j < len(steps)]), label="to step")
        del steps[k][m]
        steps[to] = sorted([*steps[to], (index, state)], key=lambda change: change[0])
    altered = flat_trace(trace, steps)
    line, compared = checked(scenario, altered)
    canonical = altered == Trace.from_rows(altered.cell_ids, altered.rows)  # as a run or a parsed trace stores it
    assert compared == (canonical and track_problems(scenario, altered) == [])
    assert line == walked_line(scenario, altered)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_clean_traversal_over_any_cell_order_passes_on_the_compare_alone(data):
    """A lone locomotive run by the 1D rules along a track laid in any index order, with or against it.

    The segment and the crossing track are drawn from the track and from
    every cell, so the compare must leave a locomotive that ends on the
    segment, or a crossing track it passes over, to the walk.
    """
    cell_ids = tuple(data.draw(st.permutations(range(1, data.draw(st.integers(2, 12)) + 1)), label="cell order"))
    track = data.draw(st.permutations(cell_ids), label="track")[: data.draw(st.integers(2, len(cell_ids)))]
    if data.draw(st.booleans(), label="track in index order"):
        track = sorted(track, key=cell_ids.index, reverse=data.draw(st.booleans(), label="against index order"))
    track = tuple(track)
    p = data.draw(st.integers(0, len(track) - 2), label="rear position")
    steps = data.draw(st.integers(0, len(track) - 2 - p), label="steps")
    lo = data.draw(st.integers(0, len(track)), label="segment start")
    segment = track[lo : data.draw(st.integers(lo, len(track)), label="segment end")]
    crossing = data.draw(st.permutations(cell_ids), label="crossing")[: data.draw(st.integers(0, 2))]
    row = dict.fromkeys(cell_ids, W)
    row.update({track[p]: R, track[p + 1]: B})
    rows = [(0, tuple(row[c] for c in cell_ids))]
    for t in range(1, steps + 1):
        row.update(zip(track, one_d_step(tuple(row[c] for c in track))))
        rows.append((t, tuple(row[c] for c in cell_ids)))
    scenario = Scenario("random", None, None, track_cells=track, segment_cells=segment, crossing_track=crossing)
    trace = Trace.from_rows(cell_ids, rows)
    line, compared = checked(scenario, trace)
    assert compared == (track_problems(scenario, trace) == [])
    assert line == walked_line(scenario, trace)
    passed = track[p : p + steps + 2]
    assert compared == (not {*passed[-2:]} & {*segment} and not {*passed} & {*crossing})


@pytest.mark.parametrize("name", [name for name, entry in SCENARIOS.items() if entry.build().crossing])
def test_golden_divergence_agrees_with_the_dense_walk_at_every_altered_cell(catalog, name):
    want = load_golden_trace(name)
    got = SCENARIOS[name].build().run(catalog)
    assert trace_divergence(got, want) is dense_trace_divergence(got, want) is None
    rows = got.rows
    for k, (t, states) in enumerate(rows):
        for i, state in enumerate(states):
            for other in (s for s in rules.CellState if s is not state):
                altered_row = (t, (*states[:i], other, *states[i + 1 :]))
                altered = Trace.from_rows(got.cell_ids, (*rows[:k], altered_row, *rows[k + 1 :]))
                diff = trace_divergence(altered, want)
                assert diff is not None
                assert diff == dense_trace_divergence(altered, want)


def test_golden_divergence_of_equal_rows_in_non_canonical_changes_is_none(memo_left_active):
    # a first step that lists its changes out of index order, then a cell that keeps its state:
    # a different record with the same rows
    trace = memo_left_active
    first = trace.ends[0]
    kept = next(i for i in range(len(trace.cell_ids)) if i not in trace.indices[:first])
    indices = array("I", [*trace.indices[:first][::-1], kept, *trace.indices[first:]])
    new_states = bytes([*trace.new_states[:first][::-1], trace.initial[kept], *trace.new_states[first:]])
    ends = array("Q", [end + 1 for end in trace.ends])
    other = Trace(trace.cell_ids, trace.start, trace.initial, ends, indices, new_states)
    assert other != trace
    assert other.rows == trace.rows
    assert trace_divergence(other, trace) is None


def test_a_divergence_at_time_one_reads_no_further(catalog):
    # on a 1 000-element segment, a dense replay of both traces peaked at 15.6 MiB
    trace = build_vertical_segment(1000).run(catalog)
    altered = trace._replace(new_states=bytes([(trace.new_states[0] + 1) % 3]) + trace.new_states[1:])
    tracemalloc.start()
    try:
        diff = trace_divergence(altered, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rear = trace.cell_ids[trace.indices[0]]
    assert diff == dense_trace_divergence(altered, trace) == f"time 1 cell {rear}: expected W, got B"
    assert peak < 256 * 1024, f"{peak} B at the peak"


def test_check_result_line():
    assert CheckResult("x", True, "d").line() == "PASS  x  (d)"
    assert CheckResult("x", False).line() == "FAIL  x"
