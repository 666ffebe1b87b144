"""Coverage metrics: completion time, uniformity, and progress curves.

Uniformity is the negative mean absolute deviation of per-cell visit counts
from their median; zero means every cell was visited equally often. The
total metric spans the whole grid, the local metric averages the same score
over the arena's region-sized blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev

import numpy as np

from .arena import ArenaSpec


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one seeded run.

    coverage_fraction[i] is the covered fraction after step i+1; cct is the
    step at which full coverage landed, or None when the step budget ran out
    first. final_visits is the per-cell count snapshot at that moment,
    row-major.
    """

    strategy: str
    seed: int
    cct: int | None
    coverage_fraction: np.ndarray
    final_visits: np.ndarray

    @property
    def complete(self) -> bool:
        return self.cct is not None


def _row_uniformities(rows: np.ndarray) -> list[float]:
    """The uniformity of each row of a (rows, cells) array: the one reduction both metrics use."""
    return (-np.mean(np.abs(rows - np.median(rows, axis=1, keepdims=True)), axis=1)).tolist()


def uniformity(visits) -> float:
    """Negative mean absolute deviation from the median visit count."""
    v = np.asarray(visits, dtype=np.float64)
    if v.size == 0:
        raise ValueError("uniformity requires at least one cell")
    return _row_uniformities(v.reshape(1, -1))[0]


def tcu(record: RunRecord) -> float:
    """Whole-grid uniformity at completion time."""
    if not record.complete:
        raise ValueError("tcu is undefined for an incomplete run")
    return uniformity(record.final_visits)


def block_uniformities(record: RunRecord, arena: ArenaSpec) -> list[float]:
    """The uniformity of each region_size x region_size block, in one array pass.

    Blocks are ordered row-major over the block grid: the southern row of
    blocks first, west to east within each row. Each row of the (blocks,
    cells) array is reduced as uniformity reduces its one-row grid.
    """
    if not record.complete:
        raise ValueError("block uniformities are undefined for an incomplete run")
    across, up = arena.blocks
    cells = round(arena.region_size / arena.cell_size)
    grid = np.asarray(record.final_visits, dtype=np.float64).reshape(up, cells, across, cells)
    return _row_uniformities(grid.swapaxes(1, 2).reshape(up * across, cells * cells))


def lcu(record: RunRecord, arena: ArenaSpec) -> float:
    """Mean over the per-block uniformities at completion time."""
    return float(mean(block_uniformities(record, arena)))


def cpr(records) -> np.ndarray:
    """Mean coverage fraction per step across runs.

    Runs that finish early contribute 1.0 beyond their completion step.
    """
    records = list(records)
    if not records:
        raise ValueError("cpr requires at least one record")
    length = max(len(r.coverage_fraction) for r in records)
    acc = np.zeros(length, dtype=np.float64)
    for r in records:
        series = r.coverage_fraction
        acc[: len(series)] += series
        if r.complete and len(series) < length:
            acc[len(series) :] += 1.0
    return acc / len(records)


@dataclass(frozen=True)
class StrategySummary:
    """Mean and sample standard deviation of the headline metrics."""

    strategy: str
    complete_runs: int
    incomplete_runs: int
    mean_cct: float | None
    sd_cct: float | None
    mean_tcu: float | None
    sd_tcu: float | None
    mean_lcu: float | None
    sd_lcu: float | None
    tcu_lcu_ratio: float | None


def _mean_sd(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    if len(values) == 1:
        return float(values[0]), None
    return float(mean(values)), float(stdev(values))


def summarize(records, arena: ArenaSpec) -> StrategySummary:
    """Aggregate one strategy's records; incomplete runs are only counted."""
    records = list(records)
    strategies = {r.strategy for r in records}
    if len(strategies) != 1:
        raise ValueError("summarize expects records from a single strategy")
    done = [r for r in records if r.complete]
    mean_cct, sd_cct = _mean_sd([float(r.cct) for r in done])
    mean_tcu, sd_tcu = _mean_sd([tcu(r) for r in done])
    mean_lcu, sd_lcu = _mean_sd([lcu(r, arena) for r in done])
    ratio = None
    if mean_tcu is not None and mean_lcu not in (None, 0.0):
        ratio = mean_tcu / mean_lcu
    return StrategySummary(
        strategy=strategies.pop(),
        complete_runs=len(done),
        incomplete_runs=len(records) - len(done),
        mean_cct=mean_cct,
        sd_cct=sd_cct,
        mean_tcu=mean_tcu,
        sd_tcu=sd_tcu,
        mean_lcu=mean_lcu,
        sd_lcu=sd_lcu,
        tcu_lcu_ratio=ratio,
    )
