"""Fibonacci-tree coordinates for the pentagrid and the Fibonacci word.

The spanning tree of a pentagrid sector has white nodes (three sons) and
black nodes (two sons); in both cases the leftmost son is black and the rest
are white.  Nodes are numbered breadth-first from 1 at the root, and the
coordinate of a node is the representation of its number in the Fibonacci
numeration basis 1, 2, 3, 5, 8, ...  Among the several representations of a
number we use the maximal one: no digit 1 sits above two consecutive zeros,
which makes it unique.  Appending "00" to a coordinate names the node's
preferred son.

``tree_nodes`` streams the tree node by node: each level's kinds are read
off the level above through the son rule, one generator per level, so its
memory grows with the depth, not with the size of a level.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import lru_cache
from itertools import chain


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """Fibonacci numbers with fib(0) = fib(1) = 1."""
    if n < 0:
        raise ValueError("fib index must be non-negative")
    if n < 2:
        return 1
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def level_size(n: int) -> int:
    """Number of tree nodes on level n (root is level 0)."""
    return fib(2 * n + 1)


class NodeKind(Enum):
    WHITE = "white"  # three sons
    BLACK = "black"  # two sons

    @property
    def son_kinds(self) -> tuple["NodeKind", ...]:
        tail = (NodeKind.WHITE,) * (2 if self is NodeKind.WHITE else 1)
        return (NodeKind.BLACK, *tail)


# Digit strings are most-significant first; position p (1-based from the
# right) weighs fib(p), so "100" = fib(3) = 3 and "1100" = 5 + 3 = 8.


def coord_value(digits: str) -> int:
    if not digits or digits.strip("01"):
        raise ValueError(f"not a digit string: {digits!r}")
    return sum(fib(pos) for pos, d in enumerate(reversed(digits), start=1) if d == "1")


def longest_repr(n: int) -> str:
    """The maximal Fibonacci representation of n.

    Take the fewest positions k whose all-ones string reaches n (its value is
    fib(k + 2) - 2), then clear the digits of the surplus written in greedy
    (Zeckendorf) form.  A greedy form has no two adjacent 1s, so the result
    has no 1 with two zeros directly below it, which pins it uniquely.
    """
    if n < 1:
        raise ValueError("only positive integers have a coordinate")
    k = 1
    while fib(k + 2) - 2 < n:
        k += 1
    digits = ["1"] * (k + 1)  # index p = basis position, index 0 unused
    surplus = fib(k + 2) - 2 - n  # below fib(k), so the leading 1 stays
    for p in range(k - 1, 0, -1):
        if fib(p) <= surplus:
            digits[p] = "0"
            surplus -= fib(p)
    return "".join(reversed(digits[1:]))


def preferred_son_number(n: int) -> int:
    """The node number named by appending "00" to the node's coordinate."""
    return coord_value(longest_repr(n) + "00")


def preferred_son(coord: str) -> str:
    """Coordinate of the preferred son, back in maximal form."""
    return longest_repr(coord_value(coord + "00"))


def tree_nodes(depth: int) -> Iterator[tuple[int, NodeKind, str]]:
    """The Fibonacci tree down to ``depth``, one ``(number, kind, coordinate)`` at a time, breadth-first from 1.

    A negative depth raises ``ValueError`` here, not at the first node.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    kinds = chain.from_iterable(_level_kinds(level) for level in range(depth + 1))
    return ((number, kind, longest_repr(number)) for number, kind in enumerate(kinds, start=1))


def _level_kinds(level: int) -> Iterator[NodeKind]:
    """The kinds on ``level``, left to right: the son kinds of each node on the level above, in order."""
    if level == 0:
        yield NodeKind.WHITE
    else:
        for parent in _level_kinds(level - 1):
            yield from parent.son_kinds


def fibonacci_word(k: int) -> str:
    """Length-k prefix of the infinite Fibonacci word over {a, b}."""
    if k < 1:
        raise ValueError("k must be positive")
    word = "a"
    while len(word) < k:
        word = word.replace("a", "A").replace("b", "a").replace("A", "ab")
    return word[:k]
