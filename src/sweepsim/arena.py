"""Square arena geometry and the coverage grid.

The world is a convex square arena decomposed into unit cells; agents fly in
continuous coordinates and the grid only scores them. A cell is named by
its row-major index row * cols + col, with col along +x and row along +y
from the minimum corner; -1 names no cell (outside the arena).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ArenaSpec:
    """The arena square, its cell decomposition, and the local-metric region size.

    The derived values (half side, grid shape, corners) are computed on first
    use and cached; they are not fields, so they stay out of asdict().
    """

    side_length: float = 40.0
    cell_size: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    region_size: float = 10.0

    def __post_init__(self) -> None:
        lengths = (self.side_length, self.cell_size, self.region_size)
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise ValueError("side_length, cell_size and region_size must be positive and finite")
        if abs(round(self.side_length / self.cell_size) - self.side_length / self.cell_size) > 1e-9:
            raise ValueError("side_length must be an integer multiple of cell_size")
        if abs(round(self.side_length / self.region_size) - self.side_length / self.region_size) > 1e-9:
            raise ValueError("side_length must be an integer multiple of region_size")

    @cached_property
    def half_side(self) -> float:
        return self.side_length / 2.0

    @cached_property
    def cols(self) -> int:
        return round(self.side_length / self.cell_size)

    @cached_property
    def rows(self) -> int:
        return self.cols

    @cached_property
    def cell_count(self) -> int:
        return self.cols * self.rows

    @cached_property
    def min_corner(self) -> tuple[float, float]:
        return (self.center[0] - self.half_side, self.center[1] - self.half_side)

    @cached_property
    def max_corner(self) -> tuple[float, float]:
        return (self.center[0] + self.half_side, self.center[1] + self.half_side)


# Inward unit normals of the four edges, indexed east, west, north, south.
EDGE_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))


def edge_distances(x: float, y: float, arena: ArenaSpec) -> tuple[float, float, float, float]:
    """Signed distances to the four edge lines (positive inside), order E, W, N, S."""
    cx, cy = arena.center
    h = arena.half_side
    return (h - (x - cx), (x - cx) + h, h - (y - cy), (y - cy) + h)


def edges_outside(position: tuple[float, float], arena: ArenaSpec) -> list[tuple[tuple[float, float], float]]:
    """(inward normal, excess) for every edge the position lies beyond."""
    dists = edge_distances(position[0], position[1], arena)
    return [(EDGE_NORMALS[i], -dists[i]) for i in range(4) if dists[i] < 0.0]


class CoverageGrid:
    """Per-cell visit counts, row-major, with a cached covered-cell tally."""

    def __init__(self, arena: ArenaSpec):
        self.arena = arena
        self.visits: list[int] = [0] * arena.cell_count
        self.visited_count = 0

    def record(self, idx: int) -> None:
        """Add one visit to the cell at flat index idx."""
        count = self.visits[idx]
        self.visits[idx] = count + 1
        if count == 0:
            self.visited_count += 1

    def is_complete(self) -> bool:
        return self.visited_count == self.arena.cell_count

    def coverage_fraction(self) -> float:
        return self.visited_count / self.arena.cell_count

    def counts_array(self) -> np.ndarray:
        return np.asarray(self.visits, dtype=np.int64)
