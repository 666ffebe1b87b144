"""Arena geometry: the arena, its cells and its edges.

The world is a convex rectangle, today a square, decomposed into unit cells; agents fly in
continuous coordinates and World scores them by cell. A cell is named by
its row-major index row * cols + col, with col along +x and row along +y
from the minimum corner; -1 names no cell (outside the arena).

cell_boxes, each cell's exact box of positions, is memoized per arena value:
callers build an equal ArenaSpec afresh for every run, and a table takes about
a millisecond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .checks import finite_point, positive_finite


@dataclass(frozen=True)
class ArenaSpec:
    """The arena, its cell decomposition, and the local-metric region size.

    extents alone decides the shape. The values derived from it, one axis at a time, are
    computed on first use and cached; they are not fields, so they stay out of asdict().
    """

    side_length: float = 40.0
    cell_size: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    region_size: float = 10.0

    def __post_init__(self) -> None:
        positive_finite(self, "side_length", "cell_size", "region_size")
        # A non-finite centre puts no position inside the arena, so no cell is ever visited.
        finite_point(self, "center")
        multiples = (
            ("side_length", "cell_size"),
            ("side_length", "region_size"),
            # Otherwise a region is no whole number of cells, and block_uniformities cannot tile the grid.
            ("region_size", "cell_size"),
        )
        for whole, part in multiples:
            a, b = getattr(self, whole), getattr(self, part)
            if abs(round(a / b) - a / b) > 1e-9:
                raise ValueError(f"{whole} must be an integer multiple of {part}, got {whole} {a:g} and {part} {b:g}")

    @cached_property
    def extents(self) -> tuple[float, float]:
        """The side lengths along x and y: this line alone makes the arena a square."""
        return (self.side_length, self.side_length)

    @cached_property
    def half_extents(self) -> tuple[float, float]:
        return (self.extents[0] / 2.0, self.extents[1] / 2.0)

    @cached_property
    def cols(self) -> int:
        return round(self.extents[0] / self.cell_size)

    @cached_property
    def rows(self) -> int:
        return round(self.extents[1] / self.cell_size)

    @cached_property
    def blocks(self) -> tuple[int, int]:  # region blocks along x and along y
        return (round(self.extents[0] / self.region_size), round(self.extents[1] / self.region_size))

    @cached_property
    def cell_count(self) -> int:
        return self.cols * self.rows

    @cached_property
    def min_corner(self) -> tuple[float, float]:
        return (self.center[0] - self.half_extents[0], self.center[1] - self.half_extents[1])

    @cached_property
    def max_corner(self) -> tuple[float, float]:
        return (self.center[0] + self.half_extents[0], self.center[1] + self.half_extents[1])


# Inward unit normals of the four edges, indexed east, west, north, south.
EDGE_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))


def edge_distances(x: float, y: float, arena: ArenaSpec) -> tuple[float, float, float, float]:
    """Signed distances to the four edge lines (positive inside), order E, W, N, S."""
    cx, cy = arena.center
    hx, hy = arena.half_extents
    return (hx - (x - cx), (x - cx) + hx, hy - (y - cy), (y - cy) + hy)


def edges_outside(position: tuple[float, float], arena: ArenaSpec) -> list[tuple[tuple[float, float], float]]:
    """(inward normal, excess) for every edge the position lies beyond."""
    dists = edge_distances(position[0], position[1], arena)
    return [(EDGE_NORMALS[i], -dists[i]) for i in range(4) if dists[i] < 0.0]


@lru_cache(maxsize=16)
def cell_boxes(arena: ArenaSpec) -> tuple[tuple[float, float, float, float], ...]:
    """(xlo, xhi, ylo, yhi) per flat cell index c: World.step maps (x, y) to c exactly when
    xlo <= x < xhi and ylo <= y < yhi. Index -1 finds a last box that no point lies in."""
    axes, cell_size = [], arena.cell_size
    for lo, hi, count in zip(arena.min_corner, arena.max_corner, (arena.cols, arena.rows)):
        edges = [lo]
        for k in range(1, count):
            # Edge k is the least double x with (x - lo) / cell_size >= k, found by bisection:
            # stepping down from lo + k * cell_size does not end where that is 0.0.
            below, at = edges[-1], hi
            while (mid := below + (at - below) / 2) not in (below, at):
                below, at = (below, mid) if (mid - lo) / cell_size >= k else (mid, at)
            edges.append(at)
        # World.step clamps index count to count - 1, so the last cell ends just after hi.
        axes.append(edges + [math.nextafter(hi, math.inf)])
    xe, ye = axes
    boxes = [(xe[c], xe[c + 1], ye[r], ye[r + 1]) for r in range(arena.rows) for c in range(arena.cols)]
    return tuple(boxes) + ((math.inf, -math.inf, math.inf, -math.inf),)
