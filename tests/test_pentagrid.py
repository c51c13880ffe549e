import pytest
from hypothesis import given
from hypothesis import strategies as st

from dodecagrid import pentagrid
from dodecagrid.pentagrid import (
    NodeKind,
    coord_value,
    enumerate_levels,
    fib,
    fibonacci_word,
    level_size,
    longest_repr,
    preferred_son,
    preferred_son_number,
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


def test_level_sizes_match_tree():
    levels = enumerate_levels(7)
    for n, level in enumerate(levels):
        assert len(level) == level_size(n) == fib(2 * n + 1)


def test_breadth_first_numbering_is_gapless():
    levels = enumerate_levels(6)
    numbers = [node.number for level in levels for node in level]
    assert numbers == list(range(1, len(numbers) + 1))


def test_root_is_white_number_one():
    root = list(enumerate_levels(0))[0][0]
    assert root.number == 1
    assert root.kind is NodeKind.WHITE
    assert root.coord == "1"


def test_levels_are_built_only_as_they_are_read(monkeypatch):
    # each node's coordinate is computed once, when its level is built; depth 12 holds 196 417 nodes
    calls = []
    monkeypatch.setattr(pentagrid, "longest_repr", lambda n: calls.append(n) or longest_repr(n))
    levels = enumerate_levels(12)
    assert calls == []
    assert [node.coord for node in next(levels)] == ["1"]
    assert calls == [1]
    with pytest.raises(ValueError, match="^depth must be non-negative$"):
        enumerate_levels(-1)  # refused at the call, before any level is read


def test_son_pattern_leftmost_black():
    levels = list(enumerate_levels(4))
    by_number = {node.number: node for level in levels for node in level}
    for level in levels[:-1]:
        for node in level:
            kinds = [by_number[s].kind for s in node.sons]
            assert kinds[0] is NodeKind.BLACK
            assert all(k is NodeKind.WHITE for k in kinds[1:])
            assert len(kinds) == (3 if node.kind is NodeKind.WHITE else 2)


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


def test_preferred_son_unique_and_in_position():
    levels = list(enumerate_levels(9))
    by_number = {node.number: node for level in levels for node in level}
    for level in levels[:9]:  # every node down to depth 8 has its sons enumerated
        for node in level:
            target = coord_value(node.coord + "00")
            hits = [s for s in node.sons if s == target]
            assert len(hits) == 1, f"node {node.number}"
            position = node.sons.index(target)
            expected = 0 if node.kind is NodeKind.BLACK else 1
            assert position == expected, f"node {node.number}"
            assert preferred_son_number(node.number) == target
            assert preferred_son(node.coord) == by_number[target].coord


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


def test_level_kind_sequences_are_word_factors():
    word = fibonacci_word(20_000)
    for level in enumerate_levels(8):
        seq = "".join("a" if n.kind is NodeKind.WHITE else "b" for n in level)
        assert seq in word
