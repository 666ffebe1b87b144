"""Metric definitions against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import split_blocks
from sweepsim.arena import ArenaSpec
from sweepsim.metrics import (
    RunRecord,
    block_uniformities,
    cpr,
    lcu,
    summarize,
    tcu,
    uniformity,
)

ARENA = ArenaSpec()


def record_for(visits, cct=10, strategy="rb", seed=0, steps=None):
    visits = np.asarray(visits, dtype=np.int64)
    length = steps if steps is not None else (cct or 10)
    series = np.linspace(0.1, 1.0, length) if cct else np.linspace(0.1, 0.9, length)
    return RunRecord(
        strategy=strategy,
        seed=seed,
        cct=cct,
        coverage_fraction=series,
        final_visits=visits,
    )


class TestUniformity:
    def test_all_equal_is_zero(self):
        for k in (0, 1, 7):
            assert uniformity([k] * 10) == 0.0

    def test_hand_computed_example(self):
        # median 2.5 -> -(1.5 + 0.5 + 0.5 + 1.5)/4
        assert uniformity([1, 2, 3, 4]) == pytest.approx(-1.0)

    def test_single_extra_visit_on_default_grid(self):
        visits = np.ones(1600, dtype=np.int64)
        visits[123] = 2
        assert uniformity(visits) == pytest.approx(-1.0 / 1600.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniformity([])

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=50), st.integers(-5, 5))
    def test_translation_invariance(self, visits, shift):
        shifted = [v + shift for v in visits]
        assert uniformity(shifted) == pytest.approx(uniformity(visits), abs=1e-12)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=50))
    def test_never_positive_and_zero_iff_constant(self, visits):
        rho = uniformity(visits)
        assert rho <= 0.0
        if len(set(visits)) == 1:
            assert rho == 0.0
        if rho == 0.0:
            assert len(set(visits)) == 1


class TestBlocks:
    def test_block_count_and_size(self):
        blocks = split_blocks(np.arange(1600), ARENA)
        assert len(blocks) == 16
        assert all(b.size == 100 for b in blocks)

    def test_blocks_partition_grid(self):
        visits = np.arange(1600)
        seen = np.concatenate(split_blocks(visits, ARENA))
        assert sorted(seen.tolist()) == sorted(visits.tolist())

    def test_block_layout_row_major(self):
        grid = np.zeros((40, 40), dtype=np.int64)
        grid[0:10, 10:20] = 5  # southern block row, second block from west
        blocks = split_blocks(grid.ravel(), ARENA)
        assert blocks[1].sum() == 5 * 100
        assert sum(b.sum() for b in blocks) == 5 * 100


class TestTcuLcu:
    def test_uniform_grid_scores_zero(self):
        rec = record_for(np.ones(1600))
        assert tcu(rec) == 0.0
        assert lcu(rec, ARENA) == 0.0

    def test_blockwise_constant_distinguishes_metrics(self):
        grid = np.ones((40, 40), dtype=np.int64)
        grid[0:10, 0:10] = 2  # one whole block doubled
        rec = record_for(grid.ravel())
        assert lcu(rec, ARENA) == 0.0
        assert tcu(rec) < 0.0

    def test_single_block_arena_collapses_to_tcu(self):
        arena = ArenaSpec(side_length=10.0, region_size=10.0)
        visits = np.random.default_rng(5).integers(0, 4, size=100)
        rec = record_for(visits)
        assert lcu(rec, arena) == pytest.approx(tcu(rec))

    def test_incomplete_run_rejected(self):
        rec = record_for(np.ones(1600), cct=None, steps=30)
        with pytest.raises(ValueError):
            tcu(rec)
        with pytest.raises(ValueError):
            lcu(rec, ARENA)

    def test_block_values_match_direct_uniformity(self):
        rng = np.random.default_rng(11)
        visits = rng.integers(0, 6, size=1600)
        rec = record_for(visits)
        values = block_uniformities(rec, ARENA)
        assert len(values) == 16
        for value, block in zip(values, split_blocks(visits, ARENA)):
            assert value == uniformity(block)

    @pytest.mark.parametrize(
        "arena",
        [
            ARENA,
            ArenaSpec(side_length=80.0),
            ArenaSpec(region_size=20.0),
            ArenaSpec(cell_size=0.5),
            ArenaSpec(side_length=30.0, center=(0.1, -0.7)),
        ],
        ids=["40m", "80m", "region20", "cell0.5", "off-centre"],
    )
    def test_block_values_match_the_per_block_oracle_bit_for_bit(self, arena):
        assert_blocks_match_oracle(arena, np.random.default_rng(29))


def assert_blocks_match_oracle(arena, rng):
    """block_uniformities against uniformity of each split_blocks slice, by float.hex.

    Visit counts run from all zeros to wide spreads; a south half of equal
    counts makes whole blocks alike, which read -0.0 like uniformity's.
    """
    for high in (1, 2, 3, 7, 100, 2**31):
        for even_south in (False, True):
            visits = rng.integers(0, high, size=arena.cell_count)
            if even_south:
                visits[: arena.cell_count // 2] = 4
            values = block_uniformities(record_for(visits), arena)
            expected = [uniformity(block) for block in split_blocks(visits, arena)]
            assert [v.hex() for v in values] == [e.hex() for e in expected]
            if high == 1 or even_south:
                assert values[0].hex() == "-0x0.0p+0"


class TestCpr:
    def test_single_run_is_identity(self):
        rec = record_for(np.ones(1600), cct=10, steps=10)
        assert np.array_equal(cpr([rec]), rec.coverage_fraction)

    def test_early_finisher_padded_with_one(self):
        short = RunRecord("rb", 0, 10, np.linspace(0.2, 1.0, 10), np.ones(1600, dtype=np.int64))
        long = RunRecord("rb", 1, 20, np.linspace(0.1, 1.0, 20), np.ones(1600, dtype=np.int64))
        series = cpr([short, long])
        assert len(series) == 20
        # beyond the short run's completion it contributes exactly 1.0
        for i in range(10, 20):
            assert series[i] == pytest.approx((1.0 + long.coverage_fraction[i]) / 2.0)

    def test_saturates_at_one_when_all_complete(self):
        recs = [
            RunRecord("rb", s, 10 + s, np.linspace(0.3, 1.0, 10 + s), np.ones(4, dtype=np.int64))
            for s in range(3)
        ]
        series = cpr(recs)
        assert series[-1] == pytest.approx(1.0)

    def test_mean_series_monotone_for_monotone_inputs(self):
        # incomplete runs always span the full step budget; only completed
        # runs stop early (and are padded with 1.0)
        rng = np.random.default_rng(3)
        budget = 30
        recs = []
        for s in range(6):
            fractions = np.minimum(np.cumsum(rng.uniform(0, 0.2, size=budget)), 1.0)
            hits = np.flatnonzero(fractions >= 1.0)
            if hits.size:
                cct = int(hits[0]) + 1
                recs.append(
                    RunRecord("rb", s, cct, fractions[:cct], np.ones(4, dtype=np.int64))
                )
            else:
                recs.append(RunRecord("rb", s, None, fractions, np.ones(4, dtype=np.int64)))
        series = cpr(recs)
        assert (np.diff(series) >= -1e-12).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cpr([])


class TestSummarize:
    def test_identical_runs_zero_sd(self):
        recs = [record_for(np.ones(1600), cct=100, seed=s) for s in range(3)]
        s = summarize(recs, ARENA)
        assert s.mean_cct == 100.0
        assert s.sd_cct == 0.0
        assert s.mean_tcu == 0.0
        assert s.sd_tcu == 0.0
        assert s.complete_runs == 3
        assert s.incomplete_runs == 0

    def test_ratio_of_means(self):
        g1 = np.ones(1600, dtype=np.int64)
        g1[0] = 3
        g2 = np.ones(1600, dtype=np.int64)
        g2[0:40] = 2
        recs = [record_for(g1, cct=50, seed=0), record_for(g2, cct=70, seed=1)]
        s = summarize(recs, ARENA)
        assert s.tcu_lcu_ratio == pytest.approx(s.mean_tcu / s.mean_lcu)

    def test_ratio_none_when_lcu_zero(self):
        recs = [record_for(np.ones(1600), cct=10)]
        assert summarize(recs, ARENA).tcu_lcu_ratio is None

    def test_incomplete_excluded_from_means(self):
        good = record_for(np.ones(1600), cct=100, seed=0)
        bad = record_for(np.full(1600, 2), cct=None, seed=1, steps=40)
        s = summarize([good, bad], ARENA)
        assert s.complete_runs == 1
        assert s.incomplete_runs == 1
        assert s.mean_cct == 100.0
        assert s.sd_cct is None  # single complete run

    def test_mixed_strategies_rejected(self):
        recs = [record_for(np.ones(1600), strategy="rb"), record_for(np.ones(1600), strategy="pm")]
        with pytest.raises(ValueError):
            summarize(recs, ARENA)
