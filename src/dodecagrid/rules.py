"""Rules of the 3-state automaton, their canonical forms under rotation, and the rule index.

A rule maps a context (current state plus the 12 neighbour states indexed by
face) to a new state.  Two contexts are equivalent when one is a rotated form
of the other; the canonical representative is the lexicographic minimum over
the 60 rotations, with states ordered W < B < R.  A rule set is rotation
invariant exactly when no two rules share an orbit but disagree on the new
state.

One table, built once from ``enumerate_motions``, holds for each face the five
rotations that bring it to slot 0.  The minimum starts with the least
neighbour state, so it is the least of the forms that the rotations of the
faces holding that state build: 5 forms per such face, 60 when every
neighbour is the same.

Lookups do not canonicalise.  A rotation only permutes faces, so it keeps a
context's census: its current state and its numbers of white and black
neighbours.  It also keeps the census's anchor, its rarest neighbour state
that is present (the lower one on a tie).  A table indexes each rule under
its census, storing every rotation of its neighbours that puts an
anchor-state face at slot 0: the table's five per such face.  A lookup
rotates the context once, by the table's first rotation of its first
anchor-state face, and that anchored form is stored exactly when some
rotation of the context is a rule's.  One pass over the rules builds this
index and finds every rule that disagrees with the first rule of its orbit;
only such a conflict is reported with a minimal form.  A lookup is one census,
one rotation and one dict read, and stores nothing: ``engine.run`` looks up
each context at most once per run, so a cache here would save only repeats
across runs.

Contexts that miss the index but have at least ten white neighbours fall back
to keeping their current state; anything else is a hard ``MissingRuleError``,
whose ``Context`` and minimal form are built the first time they are read.

Every function here that reads a context takes any ``(current, neighbours)``
pair; a ``Context`` is one, and equals and hashes as the plain pair with the
same fields, so a caller on a hot path can pass plain pairs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from enum import IntEnum
from functools import cached_property, lru_cache
from operator import itemgetter
from pathlib import Path

from .geometry import FACE_COUNT, FacePermutation, enumerate_motions

DEFAULT_BLANK_THRESHOLD = 10


class CellState(IntEnum):
    """The three states; the integer order W < B < R is the lexicographic one."""

    W = 0
    B = 1
    R = 2

    @classmethod
    def from_letter(cls, letter: str) -> "CellState":
        return states_from_letters((letter,))[0]

    @property
    def letter(self) -> str:
        return self.name


W, B, R = CellState.W, CellState.B, CellState.R
_BY_LETTER = {"W": W, "B": B, "R": R}  # a dict read, not the Enum's slower ``__getitem__``


def states_from_letters(letters: Iterable[str]) -> tuple[CellState, ...]:
    """The state of each letter in order; the first that is not ``W``, ``B`` or ``R`` raises ``ValueError``."""
    try:
        return tuple(map(_BY_LETTER.__getitem__, letters))
    except KeyError as exc:
        raise ValueError(f"not a cell state: {exc.args[0]!r}") from None


class Context(namedtuple("Context", "current neighbors")):
    """A cell's current state and its 12 neighbour states, indexed by face."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.current.letter} | " + " ".join(s.letter for s in self.neighbors)


class Rule(namedtuple("Rule", "context new_state source", defaults=("",))):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.context} -> {self.new_state.letter}"


class RuleParseError(ValueError):
    """A rule text not in the ``CURRENT N0 .. N11 -> NEW`` layout, located by line."""


class RuleConflictError(ValueError):
    """A rule set in which two rules share a minimal context but disagree on the new state.

    The message names the first such pair; ``report`` holds every conflict.
    """

    def __init__(self, report: InvarianceReport):
        a, b = report.conflicts[0].a, report.conflicts[0].b
        super().__init__(f"rotation-invariance conflict between [{a.source}] {a} and [{b.source}] {b}")
        self.report = report


class MissingRuleError(LookupError):
    """A context no rule covers, raised with the pair looked up as its one argument, ``args[0]``.

    Its ``context`` and ``minimal`` form are built from that pair the first
    time they are read.  It has no ``__init__`` of its own, so a raise costs
    what a plain exception's does.
    """

    @cached_property
    def context(self) -> Context:
        return Context(*self.args[0])

    @cached_property
    def minimal(self) -> Context:
        return minimal_context(self.args[0])

    def __str__(self) -> str:
        return f"no rule covers context {self.context}"


def context_from_letters(letters: Iterable[str]) -> Context:
    states = states_from_letters(letters)
    if len(states) != FACE_COUNT + 1:
        raise ValueError(f"a context needs 13 states, got {len(states)}")
    return Context(states[0], states[1:])


def rotated_context(ctx: Context, perm: FacePermutation) -> Context:
    """Neighbour at slot i of the result is the input neighbour at perm[i]."""
    current, n = ctx
    return Context(current, itemgetter(*perm)(n))


@lru_cache(maxsize=1)
def _slot_zero_rotations() -> tuple[tuple[itemgetter, ...], ...]:
    """Per face f: getters for the five rotations with ``perm[0] == f``, in ``enumerate_motions`` order."""
    motions = enumerate_motions()
    return tuple(tuple(itemgetter(*perm) for perm in motions if perm[0] == face) for face in range(FACE_COUNT))


def minimal_context(ctx: Context) -> Context:
    """Lexicographic minimum of the 60 rotated forms, key (current, n0..n11).

    The rotations are transitive on faces, so the minimum starts with
    ``least = min(n)``, and only the five rotations of each face holding
    ``least`` put it in slot 0.  The minimum is the least of those forms.
    """
    current, n = ctx
    least = min(n)
    forms = [rotate(n) for state, rotations in zip(n, _slot_zero_rotations()) if state == least for rotate in rotations]
    return Context(current, min(forms))


def minimal_form(rule: Rule) -> Rule:
    return Rule(minimal_context(rule.context), rule.new_state, rule.source)


def blank_count(ctx: Context) -> int:
    _, n = ctx
    return n.count(W)


def census(ctx: Context) -> tuple[CellState, int, int]:
    """Current state and the numbers of white and black neighbours: the same for every rotated form."""
    current, n = ctx
    return current, n.count(W), n.count(B)


# two rules whose contexts share the minimal form ``minimal`` but whose new states differ
Conflict = namedtuple("Conflict", "a b minimal")


class InvarianceReport(namedtuple("InvarianceReport", "conflicts")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def __str__(self) -> str:
        if self.ok:
            return "rotation invariance: ok"
        lines = ["rotation invariance: FAILED"]
        for c in self.conflicts:
            lines.append(f"  minimal context {c.minimal}")
            lines.append(f"    [{c.a.source}] {c.a}")
            lines.append(f"    [{c.b.source}] {c.b}")
        return "\n".join(lines)


class RuleTable:
    """An ordered rule list with a lookup index keyed by census.

    ``_index`` maps each rule context's census to that census's anchor state
    and to a dict taking each stored anchored form to the rule that decides
    its orbit.  A rule set that is not rotation invariant is refused with
    ``RuleConflictError``.  A lookup reads the index and changes nothing.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        self._index, report = _index_rules(self.rules)
        if not report.ok:
            raise RuleConflictError(report)

    def __len__(self) -> int:
        return len(self.rules)

    def lookup(self, ctx: Context) -> CellState:
        """New state for ``ctx``, any ``(current, neighbours)`` pair; a ``Context`` is one.

        ``MissingRuleError.context`` is built from the pair when first read.
        """
        current, n = ctx
        whites = n.count(W)
        entry = self._index.get((current, whites, n.count(B)))
        rule = entry[1].get(_anchored(n, entry[0])) if entry is not None else None
        if rule is not None:
            return rule.new_state
        if whites >= DEFAULT_BLANK_THRESHOLD:
            return current
        raise MissingRuleError(ctx)

    def has_explicit(self, ctx: Context) -> bool:
        entry = self._index.get(census(ctx))
        return entry is not None and _anchored(ctx[1], entry[0]) in entry[1]


def _anchored(n: tuple[CellState, ...], anchor: CellState) -> tuple[CellState, ...]:
    """``n`` rotated so that its first face holding ``anchor`` comes to slot 0, by that face's first slot-zero rotation."""
    return _slot_zero_rotations()[n.index(anchor)][0](n)


def _index_rules(rules: Iterable[Rule]) -> tuple[dict, InvarianceReport]:
    """One pass: the census index of each orbit's first rule, and every rule disagreeing with it.

    The anchor is the census's rarest present neighbour state, the lower on a
    tie.  A first rule stores each rotation putting an anchor-state face at
    slot 0, so the ``_anchored`` form of any rotation of its context is stored.
    """
    index: dict[tuple[CellState, int, int], tuple[CellState, dict[tuple[CellState, ...], Rule]]] = {}
    conflicts: list[Conflict] = []
    for rule in rules:
        n = rule.context.neighbors
        key = census(rule.context)
        if key not in index:
            index[key] = min(sorted(set(n)), key=n.count), {}
        anchor, forms = index[key]
        prior = forms.get(_anchored(n, anchor))
        if prior is None:
            for state, rotations in zip(n, _slot_zero_rotations()):
                if state is anchor:
                    for rotation in rotations:
                        forms[rotation(n)] = rule
        elif prior.new_state is not rule.new_state:
            conflicts.append(Conflict(prior, rule, minimal_context(rule.context)))
    return index, InvarianceReport(tuple(conflicts))


def check_rotation_invariance(rules: Iterable[Rule]) -> InvarianceReport:
    """Group rules by rotation orbit; report any rule disagreeing with its orbit's first."""
    return _index_rules(rules)[1]


def parse_rules(text: str, source: str = "<string>") -> list[Rule]:
    """One rule per non-comment line: ``CURRENT N0 .. N11 -> NEW``."""
    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 15 or tokens[13] != "->":
            raise RuleParseError(f"{source}:{line_no}: expected 'CURRENT N0 .. N11 -> NEW', got {len(tokens)} tokens")
        try:
            states = states_from_letters(tokens[:13] + tokens[14:])  # the context, then the new state
        except ValueError as exc:
            raise RuleParseError(f"{source}:{line_no}: {exc}") from None
        rules.append(Rule(Context(states[0], states[1:13]), states[13], f"{source}:{line_no}"))
    return rules


def load_rule_files(paths: Iterable[Path | str]) -> RuleTable:
    rules: list[Rule] = []
    for path in paths:
        path = Path(path)
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise RuleParseError(f"{path.name}: {exc}") from None
        rules.extend(parse_rules(text, path.name))
    return RuleTable(rules)


def load_rule_dir(directory: Path | str) -> RuleTable:
    """Concatenate every ``*.rules`` file in ``directory`` (sorted by name)."""
    paths = sorted(Path(directory).glob("*.rules"))
    if not paths:
        raise FileNotFoundError(f"no .rules files in {directory}")
    return load_rule_files(paths)
