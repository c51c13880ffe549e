"""Face adjacency of the right-angled dodecahedron and its 60 rotations.

Faces are numbered 0..11.  ``RINGS[i]`` lists the five faces around face ``i``
in a fixed rotational order (clockwise as seen from outside the solid).  A
rotation of the solid is fully determined by the image of face 0 and the image
of face 1, which must be adjacent to the image of face 0; propagating ring
alignments through ``RINGS`` reconstructs the full face permutation.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

FACE_COUNT = 12

# Row i: the five neighbours of face i, in rotational order.
RINGS: tuple[tuple[int, ...], ...] = (
    (1, 5, 4, 3, 2),
    (0, 2, 7, 6, 5),
    (0, 3, 8, 7, 1),
    (0, 4, 9, 8, 2),
    (0, 5, 10, 9, 3),
    (0, 1, 6, 10, 4),
    (1, 7, 11, 10, 5),
    (1, 2, 8, 11, 6),
    (2, 3, 9, 11, 7),
    (3, 4, 10, 11, 8),
    (4, 5, 6, 11, 9),
    (6, 7, 8, 9, 10),
)

# A permutation maps face i to images[i]; stored as a plain 12-tuple.
FacePermutation = tuple[int, ...]

IDENTITY: FacePermutation = tuple(range(FACE_COUNT))

# Ring chain whose images determine every face: each entry is a face whose
# own image and whose ring anchor's image are already known when reached.
_PROPAGATION_ORDER = (1, 5, 7, 8)


# a rotation named by the images of faces 0 and 1
Motion = namedtuple("Motion", "f0 f1")


def ring_of(face: int) -> tuple[int, ...]:
    """The five faces around ``face``, in the fixed rotational order."""
    if not 0 <= face < FACE_COUNT:
        raise ValueError(f"face index out of range: {face}")
    return RINGS[face]


def are_adjacent(a: int, b: int) -> bool:
    return b in RINGS[a]


def _align(images: list[int], pivot: int) -> None:
    # The ring of `pivot` maps onto the ring of its image with the same cyclic
    # order; the offset is fixed by any ring member whose image is known.
    ring = RINGS[pivot]
    image_ring = RINGS[images[pivot]]
    anchor = next(f for f in ring if images[f] >= 0)
    k = ring.index(anchor)
    j = image_ring.index(images[anchor])
    for step in range(5):
        face = ring[(k + step) % 5]
        image = image_ring[(j + step) % 5]
        if images[face] >= 0 and images[face] != image:
            raise ValueError(f"inconsistent ring alignment at face {face}")
        images[face] = image


def permutation_from_motion(motion: Motion | tuple[int, int]) -> FacePermutation:
    """The unique orientation-preserving permutation sending 0, 1 to f0, f1."""
    f0, f1 = motion
    if not are_adjacent(f0, f1):
        raise ValueError(f"invalid motion ({f0} {f1}): faces not adjacent")
    images = [-1] * FACE_COUNT
    images[0], images[1] = f0, f1
    for pivot in _PROPAGATION_ORDER:
        _align(images, pivot)
    assert sorted(images) == list(range(FACE_COUNT))
    return tuple(images)


@lru_cache(maxsize=1)
def enumerate_motions() -> tuple[FacePermutation, ...]:
    """All 60 orientation-preserving symmetries, ordered by (f0, f1)."""
    return tuple(
        permutation_from_motion(Motion(f0, f1))
        for f0 in range(FACE_COUNT)
        for f1 in RINGS[f0]
    )


def motion_label(perm: FacePermutation) -> Motion:
    """The (f0 f1) name of a permutation."""
    return Motion(perm[0], perm[1])


def compose(a: FacePermutation, b: FacePermutation) -> FacePermutation:
    """(a o b)[i] = a[b[i]]."""
    return tuple(a[b[i]] for i in range(FACE_COUNT))


def inverse(perm: FacePermutation) -> FacePermutation:
    out = [0] * FACE_COUNT
    for i, image in enumerate(perm):
        out[image] = i
    return tuple(out)


# The 60 ordered pairs of adjacent faces.
_EDGES = frozenset((face, other) for face in range(FACE_COUNT) for other in RINGS[face])


def preserves_adjacency(perm: FacePermutation) -> bool:
    """Whether ``perm`` maps the adjacent pairs of faces exactly onto themselves.

    Every face lies on an edge, so this holds only for a bijection of the 12
    faces, and then it says that adjacent and non-adjacent pairs both keep
    their kind.
    """
    return {(perm[a], perm[b]) for a, b in _EDGES} == _EDGES


def dump_rotations() -> str:
    """One line per rotation: ``f0 f1 : i0 i1 ... i11``."""
    lines = []
    for perm in enumerate_motions():
        f0, f1 = motion_label(perm)
        lines.append(f"{f0:2d} {f1:2d} : " + " ".join(f"{i:2d}" for i in perm))
    return "\n".join(lines)
