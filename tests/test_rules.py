import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodecagrid.catalog import default_rules_dir, load_catalog
from dodecagrid.geometry import Motion, enumerate_motions, permutation_from_motion
from dodecagrid.rules import (
    B,
    CellState,
    Context,
    MissingRuleError,
    R,
    Rule,
    RuleConflictError,
    RuleParseError,
    RuleTable,
    W,
    blank_count,
    check_rotation_invariance,
    context_from_letters,
    minimal_context,
    minimal_form,
    parse_rules,
    rotated_context,
)

MOTIONS = enumerate_motions()


def ctx(text: str) -> Context:
    return context_from_letters(text.split())


states = st.sampled_from(list(CellState))
contexts = st.builds(
    Context, states, st.tuples(*[states] * 12)
)
rotations = st.sampled_from(MOTIONS)

# the two rotated forms anchoring the scanned-cell/straight-element coincidence
SCANNED_REAR_LEAVES = "R W B W W W B B B W W W B"
STRAIGHT_REAR_LEAVES = "R W B B W W B B B W W W W"


def test_parse_single_rule():
    table = RuleTable(parse_rules("W W W B W W B B B W W W W -> W"))
    assert len(table) == 1
    rule = table.rules[0]
    assert rule.context.current is W
    assert rule.context.neighbors[2] is B and rule.context.neighbors[5] is B
    assert rule.new_state is W


def test_parse_comments_and_blanks():
    text = "# header\n\nW W W W W W W W W W W W W -> W  # quiescent\n"
    assert len(parse_rules(text)) == 1


def test_parse_empty_file_gives_empty_table():
    table = RuleTable(parse_rules(""))
    assert len(table) == 0
    # lookup falls through to the blank default
    assert table.lookup(ctx("B R W W W W W W W W W W W")) is B


def test_parse_arity_error():
    with pytest.raises(RuleParseError, match=r"^<string>:1: expected 'CURRENT N0 \.\. N11 -> NEW', got 14 tokens$"):
        parse_rules("W W W B W W B B B W W W -> W")  # 11 neighbours


def test_parse_bad_letter():
    with pytest.raises(RuleParseError, match=r"^<string>:1: not a cell state: 'X'$"):
        parse_rules("W W W B W W B B B W W W X -> W")


def test_rotated_context_identity():
    c = ctx("R W B B W W B B B W W W W")
    assert rotated_context(c, MOTIONS[0]) == c


def test_rotated_context_uniform_fixed_by_all():
    c = ctx("B W W W W W W W W W W W W")
    assert all(rotated_context(c, p) == c for p in MOTIONS)


def test_anchored_rotation_between_scanned_and_straight_contexts():
    # the two printed forms are images of one another; under this ring table
    # the witness motion is labelled (8 7) (and (10 6) for the inverse)
    a, b = ctx(STRAIGHT_REAR_LEAVES), ctx(SCANNED_REAR_LEAVES)
    perm = permutation_from_motion(Motion(8, 7))
    assert rotated_context(a, perm) == b
    hits = [p for p in MOTIONS if rotated_context(a, p) == b]
    assert len(hits) == 1


def test_witness_pair_same_minimal_form():
    assert minimal_context(ctx(SCANNED_REAR_LEAVES)) == minimal_context(ctx(STRAIGHT_REAR_LEAVES))


def test_minimal_form_of_uniform_rule():
    rule = Rule(ctx("W W W W W W W W W W W W W"), W)
    assert minimal_form(rule) == rule


def test_minimal_context_is_minimum_of_orbit():
    c = ctx("R W B W W W B B B W W W B")
    m = minimal_context(c)
    orbit = {rotated_context(c, p) for p in MOTIONS}
    assert m in orbit
    key = (m.current, *m.neighbors)
    assert all(key <= (o.current, *o.neighbors) for o in orbit)


@given(contexts)
def test_minimal_form_idempotent(c):
    m = minimal_context(c)
    assert minimal_context(m) == m


@given(contexts, rotations)
@settings(max_examples=200)
def test_minimal_form_rotation_invariant(c, perm):
    assert minimal_context(rotated_context(c, perm)) == minimal_context(c)


def test_full_catalog_checks_out(catalog):
    report = check_rotation_invariance(catalog.rules)
    assert report.ok, str(report)


def test_straight_element_subtable_checks_out():
    from dodecagrid.catalog import default_rules_dir

    rules = []
    for name in ("track_conservative.rules", "straight_motion.rules"):
        rules.extend(parse_rules((default_rules_dir() / name).read_text(), name))
    assert check_rotation_invariance(rules).ok


def test_constructed_conflict_detected():
    base = Rule(ctx("W W W W W W W W W W W W W"), W, "a")
    clash = Rule(ctx("W W W W W W W W W W W W W"), B, "b")
    report = check_rotation_invariance([base, clash])
    assert not report.ok
    assert len(report.conflicts) == 1
    assert {report.conflicts[0].a.source, report.conflicts[0].b.source} == {"a", "b"}


def test_table_raises_on_conflict():
    text = "W B W W W W W W W W W W W -> W\nW W B W W W W W W W W W W -> B\n"
    with pytest.raises(RuleConflictError) as raised:
        RuleTable(parse_rules(text))
    assert raised.value.report == check_rotation_invariance(parse_rules(text))
    assert not raised.value.report.ok


def test_load_catalog_one_table_per_directory():
    load_catalog.cache_clear()
    table = load_catalog()
    assert load_catalog(None) is table
    assert load_catalog(default_rules_dir()) is table
    assert load_catalog(str(default_rules_dir())) is table


def test_lookup_quiescent(catalog):
    assert catalog.lookup(ctx("W W W W W W W W W W W W W")) is W


def test_lookup_blank_default(catalog):
    # one red neighbour, eleven blanks: not in any table, current state kept
    assert catalog.lookup(ctx("B R W W W W W W W W W W W")) is B


def test_lookup_straight_front_arrival(catalog):
    assert catalog.lookup(ctx("W W B B W W B B B W W W W")) is B


def test_lookup_rotated_form_found(catalog):
    c = ctx(SCANNED_REAR_LEAVES)
    assert blank_count(c) < 10  # not reachable through the default
    assert catalog.lookup(c) is W


def test_lookup_missing_rule_raises(catalog):
    lone_rear = ctx("R W W B W W B B B W W W W")
    with pytest.raises(MissingRuleError):
        catalog.lookup(lone_rear)


@given(contexts, rotations)
@settings(max_examples=200)
def test_lookup_rotation_invariant_when_covered(catalog, c, perm):
    # a context and its rotation are both covered, with the same new state, or both raise
    def answer(context):
        try:
            return catalog.lookup(context)
        except MissingRuleError:
            return None

    assert answer(rotated_context(c, perm)) is answer(c)


sparse_contexts = st.builds(
    lambda current, faces, values: Context(
        current,
        tuple(values[faces.index(i)] if i in faces else W for i in range(12)),
    ),
    states,
    st.lists(st.integers(0, 11), min_size=0, max_size=2, unique=True),
    st.lists(st.sampled_from([B, R]), min_size=2, max_size=2),
)


@given(sparse_contexts)
@settings(max_examples=200)
def test_default_rule_soundness(catalog, c):
    # at most two non-blank neighbours: if no explicit rule claims the orbit,
    # the state must persist
    assert blank_count(c) >= 10
    if not catalog.has_explicit(c):
        assert catalog.lookup(c) == c.current


def test_rule_table_reports_sources():
    table = RuleTable(parse_rules("W W W W W W W W W W W W W -> W", source="demo.rules"))
    assert table.rules[0].source == "demo.rules:1"
