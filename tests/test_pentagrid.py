import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dodecagrid import pentagrid
from dodecagrid.pentagrid import (
    NodeKind,
    coord_value,
    fib,
    fibonacci_word,
    level_size,
    longest_repr,
    preferred_son,
    preferred_son_number,
    tree_nodes,
)


def test_fib_base_cases():
    assert fib(0) == 1
    assert fib(1) == 1


def test_fib_frozen_values():
    # from the recurrence by hand: 1 1 2 3 5 8 13 21
    assert fib(5) == 8
    assert fib(7) == 21


def test_fib_negative_rejected():
    with pytest.raises(ValueError):
        fib(-1)


def test_level_sizes_frozen():
    assert level_size(0) == 1
    assert level_size(1) == 3
    assert level_size(3) == 21


def test_level_sizes_match_tree(fibonacci_tree):
    for n, level in enumerate(fibonacci_tree):
        assert len(level) == level_size(n) == fib(2 * n + 1)


def test_breadth_first_numbering_is_gapless(fibonacci_tree):
    numbers = [number for level in fibonacci_tree for number, _, _, _ in level]
    assert numbers == list(range(1, len(numbers) + 1))


def test_root_is_white_number_one(fibonacci_tree):
    assert fibonacci_tree[0] == [(1, NodeKind.WHITE, None, (2, 3, 4))]
    assert list(tree_nodes(0)) == [(1, NodeKind.WHITE, "1")]


def test_tree_nodes_match_the_breadth_first_reference(fibonacci_tree):
    expected = [(number, kind, longest_repr(number)) for level in fibonacci_tree for number, kind, _, _ in level]
    assert list(tree_nodes(10)) == expected


def test_a_node_is_black_exactly_when_its_coordinate_ends_in_0(fibonacci_tree):
    # a fact of the tree that tree_nodes does not use: it takes kinds from the son rule alone;
    # the root, "1", is white and obeys it too
    for level in fibonacci_tree:
        for number, kind, _, _ in level:
            assert (kind is NodeKind.BLACK) == longest_repr(number).endswith("0"), number


def test_tree_nodes_hold_no_level_whole():
    # memory grows with the depth, not with the level: level 9 alone has 6 765 nodes; the stream's
    # generators and the node in hand take about 4 KiB, and a list of the kinds on level 8 already 20 KiB
    nodes = tree_nodes(9)
    longest_repr(10**6)  # fill fib's cache before tracing
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        count = sum(1 for _ in nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == sum(map(level_size, range(10))) == 10_945
    assert peak < 16 * 1024


def test_levels_are_built_only_as_they_are_read(monkeypatch):
    # each node's coordinate is computed when the node is read; depth 40 holds about 10^33 nodes
    calls = []
    monkeypatch.setattr(pentagrid, "longest_repr", lambda n: calls.append(n) or longest_repr(n))
    nodes = tree_nodes(40)
    assert calls == []
    assert next(nodes) == (1, NodeKind.WHITE, "1")
    assert calls == [1]
    with pytest.raises(ValueError, match="^depth must be non-negative$"):
        tree_nodes(-1)  # refused at the call, before any node is read


def test_son_pattern_leftmost_black(fibonacci_tree):
    kind_of = {number: kind for level in fibonacci_tree for number, kind, _, _ in level}
    for level in fibonacci_tree[:-1]:
        for number, kind, _, sons in level:
            kinds = [kind_of[s] for s in sons]
            assert kinds[0] is NodeKind.BLACK
            assert all(k is NodeKind.WHITE for k in kinds[1:])
            assert len(kinds) == (3 if kind is NodeKind.WHITE else 2)


def test_longest_repr_frozen_values():
    # maximal form: no digit 1 directly above two zeros
    assert longest_repr(1) == "1"
    assert longest_repr(2) == "10"
    assert longest_repr(3) == "11"
    assert longest_repr(5) == "110"
    assert longest_repr(6) == "111"
    assert longest_repr(11) == "1111"


def test_longest_repr_shape():
    for n in range(1, 2000):
        digits = longest_repr(n)
        assert "100" not in digits
        assert digits[0] == "1"


def test_value_round_trip_to_10000():
    for n in range(1, 10_001):
        assert coord_value(longest_repr(n)) == n


@given(st.integers(min_value=1, max_value=10**9))
def test_value_round_trip_random(n):
    assert coord_value(longest_repr(n)) == n


def test_coord_value_rejects_junk():
    with pytest.raises(ValueError):
        coord_value("10z1")
    with pytest.raises(ValueError):
        coord_value("")


def test_root_preferred_son():
    # "1" + "00" reads as the number 3, the root's second son
    assert preferred_son_number(1) == 3
    assert preferred_son("1") == longest_repr(3)


def test_preferred_son_unique_and_in_position(fibonacci_tree):
    for level in fibonacci_tree[:9]:  # down to depth 8
        for number, kind, _, sons in level:
            coord = longest_repr(number)
            target = coord_value(coord + "00")
            hits = [s for s in sons if s == target]
            assert len(hits) == 1, f"node {number}"
            position = sons.index(target)
            expected = 0 if kind is NodeKind.BLACK else 1
            assert position == expected, f"node {number}"
            assert preferred_son_number(number) == target
            assert preferred_son(coord) == longest_repr(target)


def test_fibonacci_word_prefix_property():
    long = fibonacci_word(200)
    for k in (1, 2, 5, 13, 100):
        assert fibonacci_word(k) == long[:k]


def test_fibonacci_word_frozen_prefix():
    assert fibonacci_word(13) == "abaababaabaab"


def test_fibonacci_word_contains_cubes_but_no_fourth_powers():
    # brute force: cubes do occur (the word's critical exponent is above 3),
    # the earliest being (aba)^3 at index 5; fourth powers never do
    word = fibonacci_word(200)
    assert word[5:14] == "aba" * 3
    for size in range(1, len(word) // 4 + 1):
        for start in range(len(word) - 4 * size + 1):
            chunk = word[start : start + size]
            assert word[start : start + 4 * size] != chunk * 4


def test_fibonacci_word_rejects_nonpositive():
    with pytest.raises(ValueError):
        fibonacci_word(0)


def test_level_kind_sequences_are_word_factors(fibonacci_tree):
    word = fibonacci_word(20_000)
    for level in fibonacci_tree[:9]:  # down to depth 8
        seq = "".join("a" if kind is NodeKind.WHITE else "b" for _, kind, _, _ in level)
        assert seq in word
