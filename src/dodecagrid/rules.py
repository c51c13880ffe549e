"""Rules of the 3-state automaton and their canonical forms under rotation.

A rule maps a context (current state plus the 12 neighbour states indexed by
face) to a new state.  Two contexts are equivalent when one is a rotated form
of the other; the canonical representative is the lexicographic minimum over
the 60 rotations, with states ordered W < B < R.  A rule set is rotation
invariant exactly when no two rules share a minimal context but disagree on
the new state, and lookups go through the minimal form so that any rotated
variant of a listed rule is found.

The minimum is found without building the 60 forms.  It starts with the least
neighbour state, and the five rotations that bring a face f holding it to slot
0 lay f's ring of five neighbours in slots 1..5 as the five cyclic shifts of
one sequence (checked once against ``enumerate_motions``).  So each such face
allows at best its ring's least cyclic shift, found by one memoised lookup per
ring pattern (the least-circular-shift problem, Booth 1980), and only the
rotations reaching the least of these 6-slot prefixes build 12-tuples.

A rotation only permutes faces, so it keeps a context's census: its current
state and its numbers of white and black neighbours.  A lookup canonicalises
only a context whose census some indexed minimal form has; any other context
is certain to miss the index, and the lookup does not canonicalise it.  Nor
does it canonicalise a context written in a rule: a table's lookup cache
starts out holding each rule's context and new state, which is exact because
a table, once built, has no conflict, so that new state is the one the
context's minimal form indexes.

Contexts that miss the index but have at least ten white neighbours fall back
to keeping their current state; anything else is a hard ``MissingRuleError``,
whose ``Context`` and minimal form are built the first time they are read.

Every function here that reads a context takes any ``(current, neighbours)``
pair; a ``Context`` is one.  A ``Context`` equals and hashes as the plain pair
with the same fields, so the lookup cache keeps one entry per context
whichever form filled it, and a caller on a hot path can pass plain pairs.
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
def _ring_shifts() -> tuple[tuple[itemgetter, tuple[itemgetter, ...]], ...]:
    """Per face f: a getter for f's ring as slots 1..5 read it, and the rotations with ``perm[0] == f`` by shift.

    Entry k of the rotations puts ``ring[k:] + ring[:k]`` in slots 1..5, where
    ``ring`` is what the getter reads.  That the five rotations taking f to
    slot 0 are exactly these five cyclic shifts is checked here, against
    ``enumerate_motions``, and a ``ValueError`` is raised if it fails.
    """
    faces = []
    motions = enumerate_motions()
    for face in range(FACE_COUNT):
        perms = [perm for perm in motions if perm[0] == face]
        ring = perms[0][1:6]
        shifts = [ring[k:] + ring[:k] for k in range(5)]
        if sorted(perm[1:6] for perm in perms) != sorted(shifts):
            raise ValueError(f"the rotations taking face {face} to slot 0 are not the shifts of one ring: {perms}")
        perms.sort(key=lambda perm: shifts.index(perm[1:6]))
        faces.append((itemgetter(*ring), tuple(itemgetter(*perm) for perm in perms)))
    return tuple(faces)


@lru_cache(maxsize=None)  # keyed by a ring of states: at most 3 ** 5 = 243 entries
def _least_shift(ring: tuple[CellState, ...]) -> tuple[tuple[CellState, ...], tuple[int, ...]]:
    """The least cyclic shift of ``ring``, and every k for which ``ring[k:] + ring[:k]`` is it."""
    shifts = [ring[k:] + ring[:k] for k in range(len(ring))]
    least = min(shifts)
    return least, tuple(k for k, shift in enumerate(shifts) if shift == least)


def minimal_context(ctx: Context) -> Context:
    """Lexicographic minimum of the 60 rotated forms, key (current, n0..n11).

    This is exact without building all 60 forms.  The rotations are
    transitive on faces, so the minimum starts with ``least = min(n)``, and
    only the five rotations of each face f holding ``least`` can reach it.
    Those five put f's ring in slots 1..5 as the five cyclic shifts of one
    sequence (``_ring_shifts`` checks this), so the best 6-slot prefix f
    allows is ``least`` followed by the least shift of its ring, which
    ``_least_shift`` finds once per ring pattern.  Only the rotations that
    reach the least such prefix over all those faces build full 12-tuples.
    """
    current, n = ctx
    least = min(n)
    best = None
    for state, (ring, rotations) in zip(n, _ring_shifts()):
        if state == least:
            prefix, shifts = _least_shift(ring(n))
            if best is None or prefix < best:
                best = prefix
                tied = [(rotations, shifts)]
            elif prefix == best:
                tied.append((rotations, shifts))
    if len(tied) == 1 and len(tied[0][1]) == 1:  # one rotation reaches the least prefix
        rotations, (k,) = tied[0]
        return Context(current, rotations[k](n))
    return Context(current, min([rotations[k](n) for rotations, shifts in tied for k in shifts]))


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
    """An ordered rule list with a canonical lookup index: each minimal form maps to its deciding rule.

    ``_censuses`` holds the census of every indexed minimal form; a context
    whose census is not among them cannot match a rule under any rotation.
    ``_cache`` starts with every rule's context as written.  A rule set that
    is not rotation invariant is refused with ``RuleConflictError``.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        self._index, report = _index_minimal_forms(self.rules)
        if not report.ok:
            raise RuleConflictError(report)
        self._censuses = {census(mctx) for mctx in self._index}
        self._cache: dict[Context, CellState] = {rule.context: rule.new_state for rule in self.rules}

    def __len__(self) -> int:
        return len(self.rules)

    def lookup(self, ctx: Context) -> CellState:
        """New state for ``ctx``, any ``(current, neighbours)`` pair; a ``Context`` is one.

        ``MissingRuleError.context`` is built from the pair when first read.
        """
        hit = self._cache.get(ctx)
        if hit is not None:
            return hit
        key = census(ctx)  # (current, white neighbours, black neighbours)
        rule = self._index.get(minimal_context(ctx)) if key in self._censuses else None
        if rule is not None:
            new_state = rule.new_state
        elif key[1] >= DEFAULT_BLANK_THRESHOLD:
            new_state = key[0]
        else:
            raise MissingRuleError(ctx)
        self._cache[ctx] = new_state
        return new_state

    def has_explicit(self, ctx: Context) -> bool:
        return minimal_context(ctx) in self._index


def _index_minimal_forms(rules: Iterable[Rule]) -> tuple[dict[Context, Rule], InvarianceReport]:
    """One minimal-form pass: the first rule per minimal context, and every rule disagreeing with it."""
    first: dict[Context, Rule] = {}
    conflicts: list[Conflict] = []
    for rule in rules:
        mctx = minimal_context(rule.context)
        prior = first.setdefault(mctx, rule)
        if prior.new_state is not rule.new_state:
            conflicts.append(Conflict(prior, rule, mctx))
    return first, InvarianceReport(tuple(conflicts))


def check_rotation_invariance(rules: Iterable[Rule]) -> InvarianceReport:
    """Group rules by minimal context; report any pair disagreeing on new state."""
    return _index_minimal_forms(rules)[1]


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
