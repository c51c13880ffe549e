"""Schematic SVG drawings of a configuration, in the pseudo-projection style.

Each cell is drawn as a pentagon split into a central region and two rings of
five sectors; every region shows the state of the neighbour across the
corresponding face, never the cell's own state.  Seen from above, the centre
is face 11, the inner ring faces 6..10 and the outer ring faces 1..5; seen
from below it is face 0, faces 1..5 and faces 6..10, with left and right
exchanged.  The one exception to neighbour colouring: in the view from below
a cell holding the locomotive shows a pale hue of its own colour in the
centre, since the track plane would otherwise hide it.

Cells that are white with all-white neighbours are omitted, so an all-white
configuration renders as an empty drawing body.
"""

from __future__ import annotations

import math
from enum import Enum

from .engine import Configuration, context_of
from .rules import B, R, W
from .scenarios import Scenario

FILL = {W: "#ffffff", B: "#2b5fd9", R: "#d23b3b"}
PALE = {B: "#b9c9f0", R: "#f0c0c0"}
STROKE = "#888888"

CELL_SPACING = 64.0
OUTER_RADIUS = 28.0
MID_FRACTION = 0.66
CORE_FRACTION = 0.32
MARGIN = 48.0


class ViewSide(Enum):
    ABOVE = "above"
    BELOW = "below"


class LayoutError(ValueError):
    pass


def _pentagon(cx: float, cy: float, radius: float, mirror: bool) -> list[tuple[float, float]]:
    sign = -1.0 if mirror else 1.0
    pts = []
    for k in range(5):
        angle = math.radians(90.0 + 72.0 * k)
        pts.append((cx + sign * radius * math.cos(angle), cy - radius * math.sin(angle)))
    return pts


def _poly(points: list[tuple[float, float]], fill: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polygon points="{coords}" fill="{fill}" stroke="{STROKE}" stroke-width="0.6"/>'


def _ring_faces(side: ViewSide) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # (centre face, inner ring faces, outer ring faces)
    if side is ViewSide.ABOVE:
        return 11, (6, 7, 8, 9, 10), (1, 2, 3, 4, 5)
    return 0, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)


def render_scenario(scenario: Scenario, config: Configuration, side: ViewSide) -> str:
    """A self-contained SVG document for one configuration; pure and deterministic."""
    if not scenario.layout:
        raise LayoutError(f"scenario {scenario.name!r} has no layout")
    mirror = side is ViewSide.BELOW
    centre_face, inner_faces, outer_faces = _ring_faces(side)

    xs = [pos[0] for pos in scenario.layout.values()]
    ys = [pos[1] for pos in scenario.layout.values()]
    sign = -1.0 if mirror else 1.0
    cxs = [sign * x * CELL_SPACING for x in xs]
    min_x, max_x = min(cxs) - MARGIN, max(cxs) + MARGIN
    min_y = min(ys) * CELL_SPACING - MARGIN
    max_y = max(ys) * CELL_SPACING + MARGIN

    body: list[str] = []
    for cell in scenario.graph.cell_ids:
        if cell not in scenario.layout:
            continue
        ctx = context_of(scenario.graph, config, cell)
        if ctx.current is W and all(s is W for s in ctx.neighbors):
            continue
        x, y = scenario.layout[cell]
        cx, cy = sign * x * CELL_SPACING, y * CELL_SPACING
        outer = _pentagon(cx, cy, OUTER_RADIUS, mirror)
        mid = _pentagon(cx, cy, OUTER_RADIUS * MID_FRACTION, mirror)
        core = _pentagon(cx, cy, OUTER_RADIUS * CORE_FRACTION, mirror)
        parts = [f'<g data-cell="{cell}">']
        for k in range(5):
            quad = [outer[k], outer[(k + 1) % 5], mid[(k + 1) % 5], mid[k]]
            parts.append(_poly(quad, FILL[ctx.neighbors[outer_faces[k]]]))
        for k in range(5):
            quad = [mid[k], mid[(k + 1) % 5], core[(k + 1) % 5], core[k]]
            parts.append(_poly(quad, FILL[ctx.neighbors[inner_faces[k]]]))
        parts.append(_poly(core, FILL[ctx.neighbors[centre_face]]))
        if mirror and ctx.current in PALE:
            parts.append(_poly(core, PALE[ctx.current]))
        parts.append("</g>")
        body.append("".join(parts))

    width = max_x - min_x
    height = max_y - min_y
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{min_x:.2f} {min_y:.2f} '
        f'{width:.2f} {height:.2f}" width="{width:.0f}" height="{height:.0f}">'
    )
    return "\n".join([header, *body, "</svg>"]) + "\n"
