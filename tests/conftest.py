import pytest

from dodecagrid.catalog import load_catalog
from dodecagrid.pentagrid import NodeKind


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def fibonacci_tree():
    """The reference tree to depth 10, built breadth-first from ``NodeKind.son_kinds``.

    One list per level of ``(number, kind, parent, sons)`` tuples; the leaves on level 10 list no sons.
    """
    depth = 10
    levels = []
    next_number = 2
    frontier = [(1, NodeKind.WHITE, None)]
    for level in range(depth + 1):
        nodes, next_frontier = [], []
        for number, kind, parent in frontier:
            son_kinds = kind.son_kinds if level < depth else ()
            sons = tuple(range(next_number, next_number + len(son_kinds)))
            next_number += len(son_kinds)
            nodes.append((number, kind, parent, sons))
            next_frontier.extend((s, k, number) for s, k in zip(sons, son_kinds))
        levels.append(nodes)
        frontier = next_frontier
    return levels
