import random
from collections import Counter
from copy import deepcopy
from itertools import combinations, product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodecagrid import rules
from dodecagrid.catalog import default_rules_dir, load_catalog
from dodecagrid.geometry import IDENTITY, RINGS, Motion, enumerate_motions, permutation_from_motion
from dodecagrid.rules import (
    B,
    CellState,
    Conflict,
    Context,
    InvarianceReport,
    MissingRuleError,
    R,
    Rule,
    RuleConflictError,
    RuleParseError,
    RuleTable,
    W,
    blank_count,
    census,
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
# at most two non-blank neighbours, so at least ten blanks
sparse_contexts = st.builds(
    lambda current, faces, values: Context(
        current,
        tuple(values[faces.index(i)] if i in faces else W for i in range(12)),
    ),
    states,
    st.lists(st.integers(0, 11), min_size=0, max_size=2, unique=True),
    st.lists(st.sampled_from([B, R]), min_size=2, max_size=2),
)
# at most two blank neighbours
dense_contexts = st.builds(
    lambda current, neighbors, blanks: Context(
        current, tuple(W if i in blanks else s for i, s in enumerate(neighbors))
    ),
    states,
    st.tuples(*[st.sampled_from([B, R])] * 12),
    st.sets(st.integers(0, 11), max_size=2),
)

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


@pytest.mark.parametrize(
    "line, letter",
    [
        ("x W W B W W B B B W W W W -> W", "x"),  # context position 0, the current state
        ("W W W B W W B B B W W W y -> W", "y"),  # context position 12, neighbour 11
        ("W W W B W W B B B W W W W -> z", "z"),  # the new state
        ("q W W B W W B B B W W W y -> z", "q"),  # the context is read before the new state, in order
        ("W W W B W W B B B W W W y -> z", "y"),
    ],
)
def test_parse_reports_the_first_bad_letter(line, letter):
    with pytest.raises(RuleParseError) as err:
        parse_rules("W W W W W W W W W W W W W -> W\n" + line, "a.rules")
    assert str(err.value) == f"a.rules:2: not a cell state: {letter!r}"


def test_every_catalogue_rule_reads_as_its_letters_name():
    # the reference decodes each letter through the enum's own name lookup
    for path in sorted(default_rules_dir().glob("*.rules")):
        text = path.read_text()
        expected = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                current, *neighbours = (CellState[t] for t in tokens[:13])
                context = Context(current, tuple(neighbours))
                expected.append(Rule(context, CellState[tokens[14]], f"{path.name}:{line_no}"))
        assert parse_rules(text, path.name) == expected, path.name


def test_parse_bad_letter_names_file_and_line():
    text = "# header\nW W W W W W W W W W W W W -> W\n\nW W W W W W W W W W W W W -> BB\n"
    with pytest.raises(RuleParseError, match=r"^a\.rules:4: not a cell state: 'BB'$"):
        parse_rules(text, "a.rules")
    with pytest.raises(RuleParseError, match=r"^a\.rules:2: not a cell state: 'w'$"):
        parse_rules(text.replace("W W W W W W W W W W W W W -> W", "W W W W W W W W W W W w W -> W"), "a.rules")


def test_from_letter_reads_each_state():
    assert [CellState.from_letter(s.letter) for s in CellState] == [W, B, R]


@pytest.mark.parametrize("letter", ["w", "", "BB"])
def test_from_letter_rejects_anything_else(letter):
    with pytest.raises(ValueError) as err:
        CellState.from_letter(letter)
    assert str(err.value) == f"not a cell state: {letter!r}"


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


def test_each_face_reaches_slot_zero_by_five_rotations():
    # so the minimum over the rotations that put a least state in slot 0
    # is the minimum over all 60
    assert Counter(p[0] for p in MOTIONS) == {face: 5 for face in range(12)}


@pytest.mark.parametrize("face", range(12))
def test_slot_zero_rotations_of_a_face_shift_one_ring(face):
    # the table minimal_context, _anchored and _index_rules read: the five rotations taking this face to slot 0,
    # in enumerate_motions order, so _anchored's first is the same rotation for every caller
    perms = [p for p in MOTIONS if p[0] == face]
    assert [rotate(IDENTITY) for rotate in rules._slot_zero_rotations()[face]] == perms
    # they lay the face's ring in slots 1..5 as the five cyclic shifts of one sequence
    ring = perms[0][1:6]
    assert set(ring) == set(RINGS[face])
    assert sorted(p[1:6] for p in perms) == sorted(ring[k:] + ring[:k] for k in range(5))


def _antipode(face):
    near = {face, *RINGS[face], *(g for f in RINGS[face] for g in RINGS[f])}
    (far,) = set(range(12)) - near
    return far


ANTIPODES = tuple(_antipode(face) for face in range(12))
# one state per antipodal pair of faces: every ring meets its antipode's ring in the same states
antipodal_contexts = st.builds(
    lambda current, pair_states: Context(current, tuple(pair_states[min(f, ANTIPODES[f])] for f in range(12))),
    states,
    st.tuples(*[states] * 12),
)


def _fixed_by(current, perm, palette):
    """A context that ``perm`` fixes: each cycle of ``perm`` takes one state of ``palette``."""
    n = [None] * 12
    for start in range(12):
        face = start
        while n[face] is None:
            n[face] = palette[start]
            face = perm[face]
    return Context(current, tuple(n))


# each is fixed by a rotation, so at least two rotations tie on the whole 12-tuple
symmetric_contexts = st.builds(_fixed_by, states, rotations, st.tuples(*[st.sampled_from([W, B])] * 12))


def test_tie_heavy_strategies_hold_their_symmetry():
    assert all(ANTIPODES[ANTIPODES[f]] == f != ANTIPODES[f] for f in range(12))
    perm = permutation_from_motion(Motion(1, 2))
    c = _fixed_by(B, perm, (W, B) * 6)
    assert rotated_context(c, perm) == c
    assert len({rotated_context(c, p) for p in MOTIONS}) < 60


@given(st.one_of(sparse_contexts, dense_contexts, antipodal_contexts, symmetric_contexts))
@settings(max_examples=400)
def test_minimal_context_matches_brute_force(c):
    # forms built, 5 per face holding the least neighbour state: 50-60 for
    # sparse contexts, as few as 5 for dense ones; antipodal and
    # rotation-fixed colourings give several rotations the very same form
    assert minimal_context(c) == min(rotated_context(c, p) for p in MOTIONS)


def _cycle_count(perm):
    seen, cycles = set(), 0
    for start in range(12):
        if start not in seen:
            cycles += 1
            face = start
            while face not in seen:
                seen.add(face)
                face = perm[face]
    return cycles


def test_canonicaliser_exhaustive():
    # Burnside: the number of orbits of 3-colourings of the 12 faces is the
    # mean over the rotations of 3 ** (number of cycles)
    fixed_colourings = sum(3 ** _cycle_count(p) for p in MOTIONS)
    assert fixed_colourings % len(MOTIONS) == 0
    orbit_count = fixed_colourings // len(MOTIONS)
    assert orbit_count == 9099
    forms = {minimal_context(Context(W, n)) for n in product(CellState, repeat=12)}
    assert len(forms) == orbit_count
    assert all(minimal_context(m) == m for m in forms)
    # and each is the least of its own orbit
    rotations = [itemgetter(*p) for p in MOTIONS]
    assert all(m.neighbors == min(rotate(m.neighbors) for rotate in rotations) for m in forms)


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


def test_lookup_quiescent(catalog):
    assert catalog.lookup(ctx("W W W W W W W W W W W W W")) is W


def test_lookup_blank_default(catalog):
    # one red neighbour, eleven blanks: not in any table, current state kept
    assert catalog.lookup(ctx("B R W W W W W W W W W W W")) is B


def test_lookup_fallback_starts_at_ten_blanks(catalog):
    # neither context has a rule, so the blank count alone decides: ten keep the state, nine do not
    ten = ctx("W R R W W W W W W W W W W")
    nine = ctx("W R R R W W W W W W W W W")
    assert (blank_count(ten), blank_count(nine)) == (10, 9)
    assert not catalog.has_explicit(ten) and not catalog.has_explicit(nine)
    assert catalog.lookup(ten) is W
    with pytest.raises(MissingRuleError):
        catalog.lookup(nine)


def test_lookup_straight_front_arrival(catalog):
    assert catalog.lookup(ctx("W W B B W W B B B W W W W")) is B


def test_lookup_rotated_form_found(catalog):
    c = ctx(SCANNED_REAR_LEAVES)
    assert blank_count(c) < 10  # not reachable through the default
    assert catalog.lookup(c) is W


def test_lookup_missing_rule_raises(catalog):
    lone_rear = ctx("R W W B W W B B B W W W W")
    assert blank_count(lone_rear) < 10
    with pytest.raises(MissingRuleError) as raised:
        catalog.lookup(lone_rear)
    assert raised.value.context == lone_rear
    assert raised.value.minimal == minimal_context(lone_rear)


def test_missing_rule_error_message():
    c = ctx("R W W B W W B B B W W W W")
    error = MissingRuleError(c)
    assert str(error) == "no rule covers context R | W W B W W B B B W W W W"


def test_missing_rule_error_from_a_pair_builds_its_context_when_read():
    c = ctx("R W W B W W B B B W W W W")
    error = MissingRuleError((c.current, c.neighbors))
    assert "context" not in vars(error)
    assert type(error.context) is Context
    assert error.context == c
    assert error.minimal == minimal_context(c)
    assert str(error) == "no rule covers context R | W W B W W B B B W W W W"


@pytest.mark.parametrize("as_pair", [True, False], ids=["pair", "Context"])
def test_missing_rule_error_carries_what_was_looked_up(catalog, as_pair):
    c = ctx("R W W B W W B B B W W W W")
    looked_up = (c.current, c.neighbors) if as_pair else c
    with pytest.raises(MissingRuleError) as raised:
        catalog.lookup(looked_up)
    error = raised.value
    assert error.args == (looked_up,)
    assert error.args[0] is looked_up
    assert type(error.context) is Context
    assert error.context == c
    assert "minimal" not in vars(error)
    minimal = error.minimal
    assert minimal == context_from_letters("R W W W W W W W B B B B W".split())
    assert error.minimal is minimal  # computed on the first read, then kept
    assert str(error) == "no rule covers context R | W W B W W B B B W W W W"


CATALOGUE_RULES = load_catalog().rules
# a catalogue context under a rotation, or under any face shuffle: the same
# census, so the lookup always rotates it into the index, but mostly not a rule's orbit
catalogue_contexts = st.sampled_from([rule.context for rule in CATALOGUE_RULES])
rotated_catalogue_contexts = st.builds(rotated_context, catalogue_contexts, rotations)
shuffled_catalogue_contexts = st.builds(rotated_context, catalogue_contexts, st.permutations(range(12)).map(tuple))


def brute_minimal(c):
    return min(rotated_context(c, p) for p in MOTIONS)


REFERENCE_INDEX = {brute_minimal(rule.context): rule.new_state for rule in CATALOGUE_RULES}


def reference_lookup(c):
    """The lookup with no census index: always the brute-force minimal form, then the index, then the fallback."""
    new_state = REFERENCE_INDEX.get(brute_minimal(c))
    if new_state is None and blank_count(c) >= 10:
        new_state = c.current
    return new_state


@given(st.one_of(contexts, sparse_contexts, rotated_catalogue_contexts, shuffled_catalogue_contexts))
@settings(max_examples=200)
def test_census_gated_lookup_matches_always_canonicalising_reference(c):
    table = RuleTable(CATALOGUE_RULES)  # a fresh cache, so every example not written in a rule goes through the index
    want = reference_lookup(c)
    try:
        got = table.lookup(c)
    except MissingRuleError as exc:
        assert want is None
        assert exc.context == c
        assert exc.minimal == brute_minimal(c)
    else:
        assert got is want


def contexts_with_census(current, whites, blacks):
    """Every context with this census: each choice of white faces, then of black faces among the rest."""
    for white in combinations(range(12), whites):
        rest = [f for f in range(12) if f not in white]
        base = [R] * 12
        for f in white:
            base[f] = W
        for black in combinations(rest, blacks):
            n = base.copy()
            for f in black:
                n[f] = B
            yield Context(current, tuple(n))


def test_lookup_is_exact_on_every_context_with_a_rule_census():
    # the union of the rules' 60-rotation orbits is what the index must find, and only that
    orbits = {rotated_context(rule.context, p): rule.new_state for rule in CATALOGUE_RULES for p in MOTIONS}
    table = RuleTable(CATALOGUE_RULES)
    checked = 0
    for key in {census(rule.context) for rule in CATALOGUE_RULES}:
        for c in contexts_with_census(*key):
            checked += 1
            want = orbits.get(c)
            assert table.has_explicit(c) is (want is not None), c
            if want is None and key[1] >= 10:
                want = c.current
            try:
                got = table.lookup(c)
            except MissingRuleError:
                got = None
            assert got is want, c
    assert checked == 337318


def grouped_report(rules, minimal_forms):
    """The invariance report of grouping ``rules`` by their given minimal forms: each disagreement with a group's first."""
    first, conflicts = {}, []
    for rule, minimal in zip(rules, minimal_forms):
        prior = first.setdefault(minimal, rule)
        if prior.new_state is not rule.new_state:
            conflicts.append(Conflict(prior, rule, minimal))
    return InvarianceReport(tuple(conflicts))


def test_every_single_rule_flip_is_judged_as_grouping_by_minimal_form():
    minimal_forms = [brute_minimal(rule.context) for rule in CATALOGUE_RULES]
    refused = 0
    for i, rule in enumerate(CATALOGUE_RULES):
        for other in CellState:
            if other is rule.new_state:
                continue
            flipped = [*CATALOGUE_RULES[:i], rule._replace(new_state=other), *CATALOGUE_RULES[i + 1 :]]
            want = grouped_report(flipped, minimal_forms)
            assert check_rotation_invariance(flipped) == want
            try:
                RuleTable(flipped)
            except RuleConflictError as exc:
                refused += 1
                assert exc.report == want
            else:
                assert want.ok
    assert refused == 48


def outcome(table, c):
    """The new state ``table`` gives ``c``, or the context, minimal form and message of its error."""
    try:
        return table.lookup(c)
    except MissingRuleError as exc:
        assert type(exc.context) is Context
        return exc.context, exc.minimal, str(exc)


@given(st.one_of(contexts, sparse_contexts, rotated_catalogue_contexts))
@settings(max_examples=200)
def test_pair_lookup_matches_context_lookup(c):
    # fresh tables, so each form not written in a rule goes through the census index itself
    pair = (c.current, c.neighbors)
    got = outcome(RuleTable(CATALOGUE_RULES), pair)
    assert got == outcome(RuleTable(CATALOGUE_RULES), c)
    if not isinstance(got, CellState):
        assert got[0] == c


@given(st.one_of(contexts, sparse_contexts, rotated_catalogue_contexts), rotations)
@settings(max_examples=100)
def test_context_helpers_accept_plain_pairs(catalog, c, perm):
    pair = (c.current, c.neighbors)
    assert rotated_context(pair, perm) == rotated_context(c, perm)
    assert census(pair) == census(c)
    assert blank_count(pair) == blank_count(c)
    assert type(minimal_context(pair)) is Context
    assert minimal_context(pair) == minimal_context(c)
    assert catalog.has_explicit(pair) is catalog.has_explicit(c)


def test_a_lookup_leaves_the_table_unchanged():
    # a lookup reads the index and stores nothing: an explicit rule, the fallback and a miss, as pairs and contexts
    table = RuleTable(CATALOGUE_RULES)
    before = deepcopy(vars(table))
    rotated, fallback = ctx(SCANNED_REAR_LEAVES), ctx("B R W W W W W W W W W W W")
    missing = ctx("R W W B W W B B B W W W W")
    for c in (rotated, fallback, missing) * 2:
        for looked_up in (c, (c.current, c.neighbors)):
            try:
                assert table.lookup(looked_up) is {rotated: W, fallback: B}[c]
            except MissingRuleError:
                assert c is missing
    assert vars(table) == before


def _counting_minimal_context(monkeypatch) -> list:
    """Patch ``rules.minimal_context`` to record each context it is called with; return that record."""
    seen = []
    original = rules.minimal_context

    def counted(c):
        seen.append(c)
        return original(c)

    monkeypatch.setattr(rules, "minimal_context", counted)
    return seen


def test_a_table_answers_its_written_contexts_without_canonicalising(monkeypatch):
    table = RuleTable(CATALOGUE_RULES)
    seen = _counting_minimal_context(monkeypatch)
    assert [table.lookup(rule.context) for rule in CATALOGUE_RULES] == [rule.new_state for rule in CATALOGUE_RULES]
    assert seen == []


def test_every_rotation_of_a_written_context_gets_its_rules_answer(monkeypatch):
    # the rotations that are not themselves written go through the census index, rotated once and never
    # canonicalised, and agree with the seeded cache
    table = RuleTable(CATALOGUE_RULES)
    seen = _counting_minimal_context(monkeypatch)
    for rule in CATALOGUE_RULES:
        for perm in MOTIONS:
            assert table.lookup(rotated_context(rule.context, perm)) is rule.new_state
    assert seen == []


def seeded_contexts(count, seed):
    """A stream of rotated and face-shuffled catalogue contexts and uniform random ones, a third each."""
    rng = random.Random(seed)
    written = [rule.context for rule in CATALOGUE_RULES]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            yield rotated_context(rng.choice(written), rng.choice(MOTIONS))
        elif kind == 1:
            yield rotated_context(rng.choice(written), tuple(rng.sample(range(12), 12)))
        else:
            yield Context(rng.choice(list(CellState)), tuple(rng.choices(list(CellState), k=12)))


@pytest.fixture(scope="module")
def seeded_stream():
    """20 000 seeded contexts and what a catalogue table built with the real slot-zero table gives each."""
    stream = list(seeded_contexts(20000, seed=5))
    table = RuleTable(CATALOGUE_RULES)
    return stream, [outcome(table, c) for c in stream]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_index_does_not_depend_on_which_slot_zero_rotation_anchors(monkeypatch, seeded_stream, k):
    # _anchored applies each face's first slot-zero rotation; a table built and read with the five cycled by k
    # anchors every context differently, and must still find each rotation its rules stored
    stream, want = seeded_stream
    assert {type(got) for got in want} == {CellState, tuple}  # answers and misses both
    cycled = tuple(rotations[k:] + rotations[:k] for rotations in rules._slot_zero_rotations())
    monkeypatch.setattr(rules, "_slot_zero_rotations", lambda: cycled)
    assert rules._anchored(IDENTITY, 0) == MOTIONS[k]  # face 0's rotations come first in enumerate_motions
    table = RuleTable(CATALOGUE_RULES)
    for rule in CATALOGUE_RULES:
        for perm in MOTIONS:
            c = rotated_context(rule.context, perm)
            assert table.has_explicit(c), c
            assert table.lookup(c) is rule.new_state, c
    table = RuleTable(CATALOGUE_RULES)  # a fresh cache, so the stream's rotated contexts go through the index
    assert [outcome(table, c) for c in stream] == want


@pytest.mark.parametrize("as_written", [True, False], ids=["same-context", "rotated-context"])
def test_a_conflicting_table_is_still_refused(as_written):
    rule = CATALOGUE_RULES[0]
    context = rule.context if as_written else rotated_context(rule.context, MOTIONS[7])
    other = next(s for s in CellState if s is not rule.new_state)
    with pytest.raises(RuleConflictError):
        RuleTable([*CATALOGUE_RULES, Rule(context, other, "clash")])


def test_census_is_rotation_invariant():
    c = ctx(SCANNED_REAR_LEAVES)
    assert {census(rotated_context(c, p)) for p in MOTIONS} == {(R, 7, 5)}


def test_lookup_rejected_by_census_canonicalises_only_when_minimal_is_read(catalog, monkeypatch):
    uncovered = ctx("R R R B R R B W R R R B R")
    assert census(uncovered) not in {census(minimal_context(rule.context)) for rule in catalog.rules}
    assert blank_count(uncovered) < 10
    calls = 0
    original = rules.minimal_context

    def counted(c):
        nonlocal calls
        calls += 1
        return original(c)

    monkeypatch.setattr(rules, "minimal_context", counted)
    with pytest.raises(MissingRuleError) as raised:
        catalog.lookup(uncovered)
    assert calls == 0
    minimal = raised.value.minimal
    assert raised.value.minimal is minimal  # computed once, then kept
    assert calls == 1
    assert minimal == original(uncovered)


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
