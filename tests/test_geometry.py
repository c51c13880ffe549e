from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dodecagrid.geometry import (
    FACE_COUNT,
    IDENTITY,
    Motion,
    are_adjacent,
    compose,
    dump_rotations,
    enumerate_motions,
    inverse,
    motion_label,
    permutation_from_motion,
    preserves_adjacency,
    ring_of,
)


def test_ring_rows_frozen():
    assert ring_of(0) == (1, 5, 4, 3, 2)
    assert ring_of(11) == (6, 7, 8, 9, 10)
    assert ring_of(7) == (1, 2, 8, 11, 6)


def test_ring_table_shape():
    seen = Counter()
    for face in range(FACE_COUNT):
        ring = ring_of(face)
        assert len(ring) == 5
        assert len(set(ring)) == 5
        assert face not in ring
        seen.update(ring)
    # every face is a neighbour of exactly five others
    assert all(seen[f] == 5 for f in range(FACE_COUNT))
    # adjacency is symmetric
    for i in range(FACE_COUNT):
        for j in ring_of(i):
            assert i in ring_of(j)


def test_ring_of_rejects_bad_face():
    with pytest.raises(ValueError):
        ring_of(12)


def test_identity_motion():
    assert permutation_from_motion(Motion(0, 1)) == IDENTITY


def test_motion_0_2_is_five_fold_rotation():
    # derived by hand-propagating the ring alignment before implementing
    perm = permutation_from_motion(Motion(0, 2))
    assert perm == (0, 2, 3, 4, 5, 1, 7, 8, 9, 10, 6, 11)
    assert perm[0] == 0 and perm[11] == 11


def test_invalid_motion_rejected():
    with pytest.raises(ValueError):
        permutation_from_motion(Motion(0, 11))  # opposite faces, not adjacent


def test_sixty_distinct_motions():
    perms = enumerate_motions()
    assert len(perms) == 60
    assert len(set(perms)) == 60
    assert IDENTITY in perms


def test_group_closure_identity_inverses():
    perms = set(enumerate_motions())
    for p in perms:
        assert inverse(p) in perms
    for a in perms:
        for b in perms:
            assert compose(a, b) in perms


def test_every_face_is_image_of_face0_five_times():
    counts = Counter(p[0] for p in enumerate_motions())
    assert counts == {f: 5 for f in range(FACE_COUNT)}


def test_motion_to_permutation_injective():
    perms = enumerate_motions()
    labels = {motion_label(p) for p in perms}
    assert len(labels) == 60


def test_all_motions_preserve_adjacency():
    assert all(preserves_adjacency(p) for p in enumerate_motions())


def test_compose_basics():
    perms = enumerate_motions()
    sigma = perms[17]
    assert compose(IDENTITY, sigma) == sigma
    assert compose(sigma, inverse(sigma)) == IDENTITY


def test_face0_rotations_form_subgroup():
    stabilizer = [p for p in enumerate_motions() if p[0] == 0]
    assert len(stabilizer) == 5
    for a in stabilizer:
        for b in stabilizer:
            assert compose(a, b)[0] == 0


def test_dump_rotations_format():
    lines = dump_rotations().splitlines()
    assert len(lines) == 60
    assert lines[0].split(":")[0].split() == ["0", "1"]
    assert lines[0].split(":")[1].split() == [str(i) for i in range(12)]


def pairwise_preserves_adjacency(perm):
    """Reference: every pair of faces keeps its adjacency, one ``are_adjacent`` test per pair."""
    return all(
        are_adjacent(perm[i], perm[j]) == are_adjacent(i, j)
        for i in range(FACE_COUNT)
        for j in range(i + 1, FACE_COUNT)
    )


INVERSION = (11, 9, 10, 6, 7, 8, 3, 4, 5, 1, 2, 0)  # each face to its opposite face: a reflection
FACE_SWAP = (1, 0, *range(2, 12))  # faces 0 and 1 exchanged, no symmetry


# the 120 symmetries of the solid: the 60 rotations and the 60 reflections
SYMMETRIES = [*enumerate_motions(), *(compose(INVERSION, p) for p in enumerate_motions())]


@given(st.one_of(st.permutations(range(FACE_COUNT)).map(tuple), st.sampled_from(SYMMETRIES)))
def test_preserves_adjacency_matches_pairwise_on_permutations(perm):
    assert preserves_adjacency(perm) == pairwise_preserves_adjacency(perm)


@pytest.mark.parametrize(
    "perm, preserved",
    [
        (INVERSION, True),
        (FACE_SWAP, False),
        ((0,) * 12, False),  # every face onto one
        ((*range(11), 10), False),  # adjacent faces 10 and 11 onto one
        ((*range(11), 0), False),  # opposite faces 0 and 11 onto one
        ((*INVERSION[:11], INVERSION[1]), False),  # a reflection that sends faces 1 and 11 both to 9
    ],
)
def test_preserves_adjacency_matches_pairwise_on_chosen_tuples(perm, preserved):
    assert preserves_adjacency(perm) is pairwise_preserves_adjacency(perm) is preserved
