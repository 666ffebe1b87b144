"""Reaction rules of the four decentralized controllers."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audits import faces_inward, inside_arena, pm_sense_mismatches, reactions_with_windows
from oracles import (
    cw_distance,
    flat_index,
    heading_vector,
    pairwise_scan_reference,
    pheromone_level,
    pheromone_snapshot,
    pm_probabilities,
    pm_sense_reference,
)
from sweepsim import decentralized
from sweepsim.angles import TWO_PI, ccw_distance, turn_remaining, wrap_angle
from sweepsim.arena import ArenaSpec
from sweepsim.decentralized import (
    ADD_ON,
    LDR_RANDOM,
    LDR_REPULSIVE,
    PM,
    CommRows,
    DecentralizedController,
    PheromoneField,
    PmParams,
    RbParams,
    avoidance_turn,
    boundary_escape_heading,
    pm_choose,
    pm_sense,
    repulsive_escape,
)
from sweepsim.harness import DECENTRALIZED, ExperimentConfig, PlacementSpec, build_world
from sweepsim.world import HOLD, AgentState, SimConfig, Unicycle, World, agent_stream, compass_index

ARENA = ArenaSpec()
SMALL = ArenaSpec(side_length=3.0, region_size=1.0)  # 3 x 3 cells: one interior, four edges, four corners
HALF_METRE = ArenaSpec(side_length=20.0, cell_size=0.5, center=(7.0, -3.0), region_size=10.0)
RB = RbParams()


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestBoundaryEscape:
    def test_east_edge_samples_interior_minus_reciprocal_cone(self):
        # heading due east at the east edge; reciprocal is due west (180deg)
        rng = rng_for(1)
        for _ in range(500):
            theta = boundary_escape_heading(0.0, [(-1.0, 0.0)], rng, RB.reciprocal_exclusion)
            dx, dy = heading_vector(theta)
            assert dx < 0.0  # interior half-plane
            gap = min(ccw_distance(math.pi, theta), cw_distance(math.pi, theta))
            assert gap >= math.radians(5.0) - 1e-12

    def test_corner_restricts_to_quarter_plane(self):
        rng = rng_for(2)
        normals = [(-1.0, 0.0), (0.0, 1.0)]  # south-east corner
        for _ in range(500):
            theta = boundary_escape_heading(math.radians(-45.0), normals, rng, RB.reciprocal_exclusion)
            dx, dy = heading_vector(theta)
            assert dx < 0.0 and dy > 0.0

    def test_normal_equal_to_reciprocal_keeps_symmetric_halves(self):
        # heading due east; inward normal due west = exactly the reciprocal
        rng = rng_for(3)
        thetas = [boundary_escape_heading(0.0, [(-1.0, 0.0)], rng, RB.reciprocal_exclusion) for _ in range(2000)]
        left = sum(1 for t in thetas if t < math.pi)
        right = len(thetas) - left
        assert abs(left - right) < 5 * math.sqrt(len(thetas)) / 2

    def test_matches_rejection_sampling_oracle(self):
        rng = rng_for(4)
        draws = np.array([
            boundary_escape_heading(math.radians(30.0), [(-1.0, 0.0)], rng, RB.reciprocal_exclusion)
            for _ in range(3000)
        ])
        oracle_rng = rng_for(5)
        reciprocal = wrap_angle(math.radians(30.0) + math.pi)
        oracle = []
        while len(oracle) < 3000:
            t = oracle_rng.uniform(0.0, 2 * math.pi)
            if math.cos(t) < 0.0 and min(
                ccw_distance(reciprocal, t), cw_distance(reciprocal, t)
            ) > math.radians(5.0):
                oracle.append(t)
        bins = np.linspace(math.pi / 2, 3 * math.pi / 2, 13)
        h1, _ = np.histogram(draws, bins=bins)
        h2, _ = np.histogram(np.array(oracle), bins=bins)
        for c1, c2 in zip(h1, h2):
            assert abs(c1 - c2) < 5 * math.sqrt(max(c2, 1.0))


class TestAvoidance:
    def test_short_range_left_neighbor_turns_clockwise(self):
        # neighbor 0.8 m away, 10 degrees left of an east heading
        bearing = math.radians(10.0)
        neighbor = (0.8 * math.cos(bearing), 0.8 * math.sin(bearing), 0.8)
        result = avoidance_turn(0.0, [neighbor], RB, rng_for(1))
        assert result is not None
        target, direction, tier = result
        assert tier == "short"
        assert direction == -1.0
        turn = cw_distance(0.0, target)
        assert math.radians(10.0) <= turn <= math.radians(30.0)

    def test_medium_range_right_neighbor_turns_counterclockwise(self):
        bearing = math.radians(-20.0)
        neighbor = (2.0 * math.cos(bearing), 2.0 * math.sin(bearing), 2.0)
        result = avoidance_turn(0.0, [neighbor], RB, rng_for(2))
        assert result is not None
        target, direction, tier = result
        assert tier == "medium"
        assert direction == 1.0
        turn = ccw_distance(0.0, target)
        assert math.radians(5.0) <= turn <= math.radians(70.0)

    def test_outside_medium_cone_no_reaction(self):
        bearing = math.radians(50.0)
        neighbor = (2.0 * math.cos(bearing), 2.0 * math.sin(bearing), 2.0)
        assert avoidance_turn(0.0, [neighbor], RB, rng_for(3)) is None

    def test_dead_ahead_breaks_tie_clockwise(self):
        result = avoidance_turn(0.0, [(0.5, 0.0, 0.5)], RB, rng_for(4))
        assert result is not None
        _, direction, tier = result
        assert tier == "short"
        assert direction == -1.0

    def test_short_range_outranks_medium(self):
        near = (0.9, 0.0, 0.9)
        far = (2.0 * math.cos(0.2), 2.0 * math.sin(0.2), 2.0)
        _, _, tier = avoidance_turn(0.0, [far, near], RB, rng_for(5))
        assert tier == "short"


class TestRepulsiveEscape:
    def test_mean_opposite_heading(self):
        # neighbors at (1,0) and (0,1): mean (0.5,0.5); opposite bearing 225deg
        target = repulsive_escape([(1.0, 0.0), (0.0, 1.0)])
        assert target == pytest.approx(math.radians(225.0))

    def test_degenerate_mean_returns_none(self):
        assert repulsive_escape([(1.0, 0.0), (-1.0, 0.0)]) is None


class TestPheromoneField:
    def test_deposit_then_three_steps_of_evaporation(self):
        field = PheromoneField(ARENA)
        field.deposit(7, step=10)
        # deposits land before the step's own evaporation tick
        assert pheromone_level(field, 7, step=10) == pytest.approx(4999.0)
        # three ticks after the deposit landed: 5000 - 3
        assert pheromone_level(field, 7, step=12) == pytest.approx(4997.0)

    def test_level_floors_at_zero(self):
        field = PheromoneField(ARENA)
        field.deposit(7, step=0)
        assert pheromone_level(field, 7, step=6000) == 0.0

    def test_double_deposit_same_step_adds(self):
        field = PheromoneField(ARENA)
        field.deposit(7, step=3)
        field.deposit(7, step=3)
        # two deposits, one evaporation tick for that step
        assert pheromone_level(field, 7, step=3) == pytest.approx(2 * 5000.0 - 1.0)

    def test_snapshot_matches_pointwise_levels(self):
        field = PheromoneField(SMALL)
        field.deposit(2, step=1)
        field.deposit(5, step=4)
        snap = pheromone_snapshot(field, step=9)
        for idx in range(SMALL.cell_count):
            assert snap[idx] == pytest.approx(pheromone_level(field, idx, step=9))

    def test_decreases_by_exactly_one_per_step(self):
        field = PheromoneField(SMALL)
        field.deposit(3, step=2)
        previous = pheromone_snapshot(field, step=2)
        for step in range(3, 5010):
            current = pheromone_snapshot(field, step)
            assert (current >= 0.0).all()
            expected = np.maximum(previous - 1.0, 0.0)
            assert np.array_equal(current, expected)
            previous = current


class TestPmSense:
    def make_field_with(self, cells, value=100.0, step=1):
        field = PheromoneField(ARENA)
        for cell in cells:
            field._until[field._slots[flat_index(cell, ARENA)]] = step + value
        return field

    def test_nearly_east_heading_reads_compass_neighbors(self):
        # agent in cell (20, 20); heading 3 degrees quantizes to east
        field = self.make_field_with([(21, 20), (21, 21), (21, 19)], value=7.0)
        centre = flat_index((20, 20), ARENA)
        ahead, left, right = pm_sense(field, 1, centre, math.radians(3.0))
        assert (ahead, left, right) == (7.0, 7.0, 7.0)
        field2 = self.make_field_with([(21, 21)], value=9.0)
        ahead, left, right = pm_sense(field2, 1, centre, math.radians(3.0))
        assert (ahead, left, right) == (0.0, 9.0, 0.0)

    def test_corner_reads_zero_outside_grid(self):
        field = PheromoneField(ARENA)
        readings = pm_sense(field, 1, flat_index((39, 39), ARENA), math.radians(45.0))
        assert readings == (0.0, 0.0, 0.0)
        # no recorded cell (before the first step, or outside the arena)
        assert pm_sense(field, 1, -1, 0.0) == (0.0, 0.0, 0.0)

    def test_compass_quantization(self):
        assert compass_index(math.radians(3.0)) == 0
        assert compass_index(math.radians(44.0)) == 1
        assert compass_index(math.radians(90.0)) == 2
        assert compass_index(math.radians(359.0)) == 0

    def test_inline_compass_index_is_compass_index(self):
        # pm_sense quantizes a heading in [0, 2 pi) without compass_index's wrap. The eight
        # neighbours of the centre read 1..8 at step 1, counterclockwise from east, so the
        # three readings name the index it took: ahead reads index + 1.
        field = PheromoneField(ARENA)
        for k, (dx, dy) in enumerate(((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))):
            field._until[field._slots[flat_index((20 + dx, 20 + dy), ARENA)]] = k + 2.0
        centre = flat_index((20, 20), ARENA)
        headings = [0.0, -0.0, math.nextafter(TWO_PI, 0.0)]
        for k in range(17):  # every compass direction and every rounding boundary between two
            below = above = k * math.pi / 8.0
            for _ in range(4):
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                headings += [below, above]
            headings.append(k * math.pi / 8.0)
        headings += rng_for(38).uniform(0.0, TWO_PI, 2000).tolist()
        for heading in headings:
            k = compass_index(heading)
            expected = (k + 1.0, (k + 1) % 8 + 1.0, (k - 1) % 8 + 1.0)
            assert pm_sense(field, 1, centre, heading) == expected, heading.hex()

    @pytest.mark.parametrize("arena", [ARENA, HALF_METRE], ids=["default", "half_metre_off_centre"])
    def test_matches_bounds_checked_reference(self, arena):
        assert pm_sense_mismatches(arena, seed=8) == []

    def test_border_slots_stay_zero_over_a_pm_run(self):
        world, _ = short_world("pm", seed=1, max_steps=3000, collect=False)
        for _ in range(3000):
            world.step()
        field = world.pheromone
        inside = set(field._slots)
        border = [slot for slot in range(len(field._until)) if slot not in inside]
        assert len(border) == 4 * ARENA.cols + 4
        assert all(field._until[slot] == 0.0 for slot in border)
        assert any(field._until[slot] > 0.0 for slot in inside)


class EagerPheromone:
    """Every cell's level decremented once per step: the rule lazy evaporation stands in for."""

    def __init__(self, cell_count):
        self.levels = [0.0] * cell_count

    def deposit(self, idx):
        self.levels[idx] += 5000.0

    def tick(self):
        self.levels = [v - 1.0 if v > 1.0 else 0.0 for v in self.levels]

    def level(self, idx, step):
        return self.levels[idx]


# A deposit schedule on SMALL: (steps since the previous deposit, flat cell,
# deposits in that step). A gap of 0 or several copies puts more than one
# deposit in a step; gaps near 5000 reach the floor at zero.
DEPOSIT_SCHEDULES = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 3), st.integers(4995, 5005)),
        st.integers(0, SMALL.cell_count - 1),
        st.integers(1, 2),
    ),
    max_size=5,
)


# The step at which the schedule and the eager model begin: a run's first step,
# or one far from step 0, so the field's stored steps pass 2**31 or 2**40.
START_STEPS = st.sampled_from([1, 2**31, 2**40])


@settings(max_examples=30, deadline=None)
@given(START_STEPS, DEPOSIT_SCHEDULES)
@example(2**40, [(0, 4, 1), (5000, 4, 1)])  # the first deposit runs out the step before the second
def test_lazy_evaporation_matches_eager_model(start, schedule):
    field = PheromoneField(SMALL)
    eager = EagerPheromone(SMALL.cell_count)
    due: dict[int, list[int]] = {}
    step = start
    for gap, idx, copies in schedule:
        step += gap
        due.setdefault(step, []).extend([idx] * copies)
    cells = [(col, row) for row in range(SMALL.rows) for col in range(SMALL.cols)]
    last = step + 5002
    for step in range(start, last + 1):
        for idx in due.get(step, ()):
            field.deposit(idx, step)
            eager.deposit(idx)
        eager.tick()
        levels = [pheromone_level(field, idx, step) for idx in range(SMALL.cell_count)]
        assert levels == eager.levels, step
        if step in due or step % 250 == 0 or step == last:
            for cell in cells:
                idx = flat_index(cell, SMALL)
                for k in range(8):
                    heading = k * math.pi / 4.0
                    expected = pm_sense_reference(eager.level, step, cell, heading, SMALL)
                    assert pm_sense(field, step, idx, heading) == expected, (step, cell, k)


class TestPmChoose:
    def test_probability_formulas(self):
        p_a, p_r, p_l = pm_probabilities(10, 10, 10)
        assert p_a == p_r == p_l == Fraction(1, 3)
        p_a, p_r, p_l = pm_probabilities(30, 0, 0)
        assert p_a == 0
        assert p_r == p_l == Fraction(1, 2)

    def test_total_zero_required(self):
        with pytest.raises(ValueError):
            pm_probabilities(0, 0, 0)

    def test_no_reaction_when_nothing_ahead(self):
        assert pm_choose((0.0, 50.0, 50.0), rng_for(0)) == "no_reaction"

    @given(
        st.floats(max_value=0.0, allow_nan=False),
        st.floats(min_value=0.0, allow_nan=False),
        st.floats(min_value=0.0, allow_nan=False),
        st.integers(0, 2**32),
    )
    @example(0.0, 0.0, 0.0, 0)
    @example(-0.0, 5000.0, 1.0, 1)
    def test_nothing_ahead_draws_nothing(self, ahead, left, right, seed):
        # decide skips pm_choose unless the ahead reading is positive. That is exact
        # only because pm_choose then neither reacts nor draws.
        rng = rng_for(seed)
        before = rng.bit_generator.state
        assert pm_choose((ahead, left, right), rng) == "no_reaction"
        assert rng.bit_generator.state == before

    def test_never_ahead_when_all_pheromone_ahead(self):
        rng = rng_for(9)
        outcomes = {pm_choose((10.0, 0.0, 0.0), rng) for _ in range(200)}
        assert outcomes == {"turn_right_45", "turn_left_45"}

    def test_outcome_frequencies_match_probabilities(self):
        rng = rng_for(10)
        readings = (4.0, 1.0, 3.0)  # p_a=1/4, p_r=5/16, p_l=7/16
        counts = {"ahead": 0, "turn_right_45": 0, "turn_left_45": 0}
        n = 4000
        for _ in range(n):
            counts[pm_choose(readings, rng)] += 1
        assert counts["ahead"] == pytest.approx(n / 4, abs=5 * math.sqrt(n))
        assert counts["turn_right_45"] == pytest.approx(5 * n / 16, abs=5 * math.sqrt(n))


def short_world(strategy, seed=2, max_steps=4000, collect=True, arena=ARENA):
    cfg = ExperimentConfig(
        strategy=strategy, runs=1, arena=arena, sim=SimConfig(max_steps=max_steps)
    )
    return build_world(cfg, seed=seed, collect_events=collect), cfg


OFF_CENTRE = ArenaSpec(side_length=20.0, center=(7.0, -3.0), region_size=10.0)


class TestControllerTraces:
    def test_no_agent_ends_step_outside_and_clamp_never_fires(self):
        cases = [(ARENA, "rb")] + [(OFF_CENTRE, s) for s in ("rb", "ldr_repulsive", "pm")]
        for arena, strategy in cases:
            world, _ = short_world(strategy, arena=arena, collect=False)
            outside = []
            world.run(on_step=lambda w: inside_arena(w) or outside.append(w.step_count))
            assert outside == [], (arena.center, strategy)
            assert world.clamp_count == 0

    def test_boundary_reactions_point_inward(self):
        world, _ = short_world("rb", seed=4)
        for _ in range(3000):
            world.step()
        events = [e for e in world.controller.events if e.kind == "boundary"]
        assert len(events) > 20
        assert [e for e in events if not faces_inward(e.target, e.normals)] == []

    def test_event_heading_is_the_heading_reacted_at(self):
        # heading is the agent's heading as the step began, for every kind; target is where
        # the turn it starts ends, or None when it starts none (pm's "ahead").
        for strategy in ("rb", "ldr_random", "ldr_repulsive", "pm"):
            world, _ = short_world(strategy, seed=3)
            controller = world.controller
            kinds, untargeted = set(), 0
            for _ in range(1500):
                before = list(world.hs)
                n_before = len(controller.events)
                world.step()
                for event in controller.events[n_before:]:
                    i = event.agent_id
                    kinds.add(event.kind)
                    assert event.heading == before[i], (strategy, event)
                    assert (controller.turn_dir[i] != 0.0) == (event.target is not None), (strategy, event)
                    if event.target is None:
                        untargeted += 1
                    else:
                        assert controller.turn_target[i] == event.target, (strategy, event)
            assert {"boundary", "avoid_short"} <= kinds, (strategy, kinds)
            if strategy == "pm":
                assert "pheromone" in kinds and untargeted > 0

    def test_density_reactions_respect_suppression(self):
        for strategy in ("ldr_random", "ldr_repulsive"):
            world, _ = short_world(strategy, seed=3)
            density = reactions_with_windows(world, "density", 3000)
            assert density, f"expected at least one {strategy} density reaction in a packed start"
            for event, quiet_until in density:
                assert event.step > quiet_until, (strategy, event)

    def test_pheromone_reactions_respect_suppression(self):
        world, _ = short_world("pm", seed=3)
        reactions = reactions_with_windows(world, "pheromone", 2500)
        assert reactions
        for event, quiet_until in reactions:
            assert event.step > quiet_until, event

    def test_turning_agents_hold_position(self):
        world, _ = short_world("rb", seed=5)
        decide = world.controller.decide
        commanded = []
        world.controller.decide = lambda senses, step: commanded.append(decide(senses, step)) or commanded[-1]
        for _ in range(1500):
            before = list(zip(world.xs, world.ys))
            world.step()
            for i, move in enumerate(commanded[-1]):
                if move.linear_speed == 0.0:
                    assert (world.xs[i], world.ys[i]) == before[i]
        assert any(move.linear_speed == 0.0 for moves in commanded for move in moves)

    def test_pheromone_deposits_follow_visits(self):
        world, _ = short_world("pm", seed=6, max_steps=500)
        for _ in range(500):
            world.step()
            for _, idx in world.visit_events:
                assert pheromone_level(world.pheromone, idx, world.step_count) > 0.0

    def test_ldr_random_density_turn_is_clockwise_70_to_90(self):
        world, _ = short_world("ldr_random", seed=3)
        controller = world.controller
        recorded = []
        # capture headings at reaction time and the eventual turn target
        for _ in range(2500):
            before = list(world.hs)
            n_before = len(controller.events)
            world.step()
            for event in controller.events[n_before:]:
                if event.kind == "density":
                    i = event.agent_id
                    recorded.append((before[i], controller.turn_target[i]))
        assert recorded
        for heading, target in recorded:
            turn = cw_distance(heading, target)
            assert math.radians(70.0) - 1e-9 <= turn <= math.radians(90.0) + 1e-9


def scene(strategy, positions, heading=math.pi / 2):
    """Hand-placed agents, all at one heading, under one decentralized strategy."""
    agents = [
        AgentState(id=i, position=p, heading=heading, altitude=1.5, rng=agent_stream(0, i))
        for i, p in enumerate(positions)
    ]
    controller = DecentralizedController(strategy, agents, ARENA, SimConfig(), ADD_ON[strategy])
    controller.events = []
    return World(ARENA, SimConfig(), agents, controller), controller


class TestLdrNotifications:
    def test_below_threshold_no_reaction(self):
        # four neighbors higher than five distinct IDs: nobody notifies
        positions = [(0.0, 0.0), (1.5, 0.0), (3.0, 0.0), (4.5, 0.0), (6.0, 0.0)]
        world, controller = scene("ldr_random", positions)
        world.step()
        assert not [e for e in controller.events if e.kind == "density"]

    def test_at_threshold_neighbors_react(self):
        # six agents: everyone hears five distinct IDs inside 10 m
        positions = [(float(i), 0.0) for i in range(6)]
        world, controller = scene("ldr_random", positions)
        world.step()
        reacting = {e.agent_id for e in controller.events if e.kind == "density"}
        assert reacting == set(range(6))

    def test_repulsive_reaction_targets_opposite_of_mean(self):
        # threshold 3 for the repulsive variant; 5-m communication range;
        # neighbors sit beyond the 2.5 m avoidance radius so the density
        # reaction is what fires
        positions = [(0.0, 0.0), (3.0, 0.0), (0.0, -3.0), (-3.0, 0.5), (4.0, 1.0)]
        world, controller = scene("ldr_repulsive", positions)
        world.step()
        reacting = {e.agent_id for e in controller.events if e.kind == "density"}
        assert 0 in reacting
        rel = [(p[0], p[1]) for p in positions[1:]]
        expected = repulsive_escape(rel)
        assert controller.turn_target[0] == pytest.approx(expected)


class TestPmQuietWindow:
    def test_suppressed_agent_neither_senses_nor_draws(self, monkeypatch):
        # one pm agent at the centre, facing east, with pheromone in the
        # cells ahead, left and right of it
        agent = AgentState(id=0, position=(0.5, 0.5), heading=0.0, altitude=1.5, rng=agent_stream(0, 0))
        controller = DecentralizedController("pm", [agent], ARENA, SimConfig(), PM)
        world = World(ARENA, SimConfig(), [agent], controller)
        field = world.pheromone
        world.cells[0] = flat_index((20, 20), ARENA)
        for cell in ((21, 20), (21, 21), (21, 19)):
            field.deposit(flat_index(cell, ARENA), step=0)
        assert pm_sense(field, 0, world.cells[0], 0.0)[0] > 0.0

        def no_sensing(*args):
            raise AssertionError("pm_sense called inside the quiet window")

        monkeypatch.setattr(decentralized, "pm_sense", no_sensing)
        now = world.step_count + 1
        controller.quiet_until[0] = now  # the last step of the window
        state = agent.rng.bit_generator.state
        assert controller.decide(world.senses, now) == [Unicycle(world.cfg.target_sampling_velocity, 0.0)]
        assert agent.rng.bit_generator.state == state
        # once the window is over, the agent senses again
        controller.quiet_until[0] = now - 1
        with pytest.raises(AssertionError, match="quiet window"):
            controller.decide(world.senses, now)


# Six agents a metre apart, facing north: each hears the other five, so every
# one is notified under either LDR variant, and none has a neighbour ahead.
LINE_OF_SIX = [(float(i), 0.0) for i in range(6)]


class TestLdrQuietWindow:
    def test_suppressed_agent_neither_reacts_nor_draws(self):
        world, controller = scene("ldr_random", LINE_OF_SIX)
        agent = world.agents[0]
        now = world.step_count + 1
        controller.quiet_until[0] = now  # the last step of the window
        state = agent.rng.bit_generator.state
        assert controller.decide(world.senses, now)[0] == Unicycle(world.cfg.target_sampling_velocity, 0.0)
        assert agent.rng.bit_generator.state == state
        assert not [e for e in controller.events if e.agent_id == 0]
        # once the window is over, the agent reacts
        controller.quiet_until[0] = now - 1
        assert controller.decide(world.senses, now)[0] == HOLD
        assert [e.kind for e in controller.events if e.agent_id == 0] == ["density"]
        assert agent.rng.bit_generator.state != state


def window_scene(strategy, trigger):
    """A world whose first step makes agent 0 react to trigger."""
    if trigger == "boundary":
        return scene(strategy, [(19.97, 0.0)], heading=0.0)  # at the east edge, facing out
    if trigger == "avoid":
        return scene(strategy, [(0.0, 0.0), (2.0, 0.0)], heading=0.0)  # a UAV 2 m ahead
    if trigger == "centred":
        # neighbours 3 m off on all four sides: notified, but no way out
        return scene(strategy, [(0.0, 0.0), (3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0)])
    if strategy != "pm":
        return scene(strategy, LINE_OF_SIX)
    # pheromone only in the cell ahead, so the agent turns left or right
    world, controller = scene("pm", [(0.5, 0.5)], heading=0.0)
    world.cells[0] = flat_index((20, 20), ARENA)
    world.pheromone.deposit(flat_index((21, 20), ARENA), step=0)
    return world, controller


TRIGGER_KIND = {"boundary": "boundary", "avoid": "avoid_medium", "centred": "density"}


class TestQuietWindowTable:
    @pytest.mark.parametrize(
        "strategy, trigger, window",
        [
            ("ldr_random", "boundary", 350),
            ("ldr_random", "avoid", 350),
            ("ldr_random", "own", 50),
            ("ldr_repulsive", "boundary", 350),
            ("ldr_repulsive", "avoid", 350),
            ("ldr_repulsive", "own", 350),
            ("ldr_repulsive", "centred", 350),
            ("pm", "boundary", 50),
            ("pm", "avoid", 50),
            ("pm", "own", 25),
        ],
    )
    def test_a_turn_opens_its_window_when_it_ends(self, strategy, trigger, window):
        world, controller = window_scene(strategy, trigger)
        world.step()
        own = "pheromone" if strategy == "pm" else "density"
        kinds = [e.kind for e in controller.events if e.agent_id == 0]
        assert kinds == [TRIGGER_KIND.get(trigger, own)]
        if trigger == "centred":
            assert not controller.turn_dir[0]  # held its heading
        while controller.turn_dir[0]:
            assert controller.quiet_until[0] == 0
            world.step()
        assert controller.quiet_until[0] == world.step_count + window


class TestRejectsWhatItCannotRun:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: RbParams(short_range=2.5), "short_range"),
            (lambda: replace(LDR_RANDOM, density_threshold=0), "density_threshold"),
            # 2.5 acted as 3 and True as 1
            (lambda: replace(LDR_RANDOM, density_threshold=2.5), "density_threshold must be an integer"),
            (lambda: replace(LDR_RANDOM, density_threshold=True), "density_threshold must be an integer"),
            (lambda: replace(LDR_RANDOM, post_reaction_suppression=-1), "post_reaction_suppression must be non-negative"),
            (lambda: replace(LDR_RANDOM, post_avoidance_suppression=-1), "post_avoidance_suppression must be non-negative"),
            (lambda: replace(LDR_REPULSIVE, comm_range=-10.0), "comm_range"),
            (lambda: replace(LDR_REPULSIVE, comm_range=0.0), "comm_range"),
            (lambda: replace(LDR_RANDOM, comm_range=math.nan), "comm_range"),
            (lambda: replace(LDR_RANDOM, comm_range=math.inf), "comm_range"),
            # True acted as a 1 m range
            (lambda: replace(LDR_RANDOM, comm_range=True), "comm_range must be positive and finite, got True"),
            (lambda: PmParams(post_reaction_suppression=-1), "post_reaction_suppression must be non-negative"),
            (lambda: PmParams(post_avoidance_suppression=-1), "post_avoidance_suppression must be non-negative"),
        ],
    )
    def test_raises_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True])
    @pytest.mark.parametrize("window", ["post_reaction_suppression", "post_avoidance_suppression"])
    @pytest.mark.parametrize("add_on", [LDR_RANDOM, PM], ids=["ldr", "pm"])
    def test_quiet_windows_are_integers(self, add_on, window, value):
        # A nan window switched an agent's add-on off after its first turn.
        with pytest.raises(ValueError, match=f"{window} must be an integer, got {value!r}"):
            replace(add_on, **{window: value})


class TestPmRunState:
    def test_field_nonnegative_throughout_run(self):
        world, _ = short_world("pm", seed=7, max_steps=1200, collect=False)
        for _ in range(1200):
            world.step()
            if world.step_count % 100 == 0:
                assert (pheromone_snapshot(world.pheromone, world.step_count) >= 0.0).all()


# Offsets that put a pair exactly at a range: 2.5 m is the medium range, 5 m
# and 10 m the LDR communication ranges, REACH the edge of the candidate list.
REACH = RB.medium_range + decentralized.SKIN
EXACT_OFFSETS = [
    (2.5, 0.0), (0.0, -2.5), (1.5, 2.0), (-2.0, -1.5),
    (5.0, 0.0), (3.0, -4.0), (-10.0, 0.0), (6.0, 8.0),
    (REACH, 0.0), (0.0, -REACH),
]
# Half-metre coordinates keep those offsets exact.
coordinate = st.one_of(
    st.integers(-30, 30).map(lambda k: k * 0.5),
    st.floats(-15.0, 15.0, allow_nan=False),
)


# One agent: a code that picks how it is placed, relative to which earlier
# agent and at which exact offset, and a fresh (x, y).
agent_recipe = st.tuples(st.integers(0, 5 * 100 * len(EXACT_OFFSETS) - 1), coordinate, coordinate)


def build_swarm(recipes):
    """Points with coincident agents, shared coordinates and exact-range pairs."""
    points = []
    for code, x, y in recipes:
        how, k, offset = code % 5, code // 5 % 100, code // 500
        if not points or how == 0:
            points.append((x, y))
            continue
        px, py = points[k % len(points)]
        if how == 1:
            points.append((px, py))  # coincident
        elif how == 2:
            ox, oy = EXACT_OFFSETS[offset]
            points.append((px + ox, py + oy))
        elif how == 3:
            points.append((px, y))  # same x
        else:
            points.append((x, py))  # same y
    return points


swarm_positions = st.integers(1, 100).flatmap(
    lambda n: st.lists(agent_recipe, min_size=n, max_size=n).map(build_swarm)
)


def hexed(near):
    """Neighbour lists as float.hex strings, so that -0.0 and 0.0 differ."""
    return [[tuple(v.hex() for v in offset) for offset in agent] for agent in near]


# Headings for up to 100 agents, one per agent in index order.
swarm_headings = st.lists(st.floats(0.0, 2.0 * math.pi), min_size=100, max_size=100)
STEP_LEN = SimConfig().step_length


def spawns(points):
    """Spawn records at points, for a controller whose scans are called directly."""
    return [AgentState(id=i, position=p, heading=0.0, altitude=1.5) for i, p in enumerate(points)]


class TestPairwiseScan:
    @settings(max_examples=100, deadline=None)
    @given(points=swarm_positions, headings=swarm_headings)
    @example(
        points=[(0.0, 0.0), (0.0, 0.0), (2.5, 0.0), (1.5, 2.0), (0.0, 5.0), (6.0, 8.0), (10.5, 0.0)],
        headings=[0.0, math.pi] * 50,
    )
    def test_matches_scalar_loop_bit_for_bit(self, points, headings):
        # A freshly built candidate list, then the same list at every step of
        # its window while each agent makes the longest move there is.
        for name, ldr in (("rb", None), ("ldr_random", LDR_RANDOM), ("ldr_repulsive", LDR_REPULSIVE)):
            controller = DecentralizedController(name, spawns(points), ARENA, SimConfig(), ldr)
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            now = 1
            while True:
                near = controller.neighbours(xs, ys, now)
                assert controller._pairs_from == 1, "the list was rebuilt inside its window"
                ref_near, ref_adj, ref_notified = pairwise_scan_reference(xs, ys, RB.medium_range, ldr)
                assert hexed(near) == hexed(ref_near), (name, now)
                if ldr is not None:
                    rows = controller.density(xs, ys)
                    assert [rows.notified(i) for i in range(len(xs))] == ref_notified, (name, now)
                    assert [rows[i] for i in range(len(xs))] == ref_adj, (name, now)
                if now == controller._pairs_until:
                    break
                now += 1
                xs = [x + STEP_LEN * math.cos(h) for x, h in zip(xs, headings)]
                ys = [y + STEP_LEN * math.sin(h) for y, h in zip(ys, headings)]
            assert now > 1, "the list covers no step after the one it was built at"
            controller.neighbours(xs, ys, now + 1)
            assert controller._pairs_from == now + 1, "the list was not rebuilt after its window"

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.integers(2, 60).flatmap(
            lambda n: st.lists(agent_recipe, min_size=n, max_size=n).map(build_swarm)
        ),
        data=st.data(),
    )
    @example(
        # Coincident agents, pairs exactly 5 m and 10 m apart (the two
        # communication ranges), and an agent out of everyone's range.
        points=[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (3.0, 4.0), (-1.0, 0.0), (-5.0, 0.0),
                (40.0, 40.0)],
        data=None,
    )
    def test_density_rows_and_flags_match_scalar_loop(self, points, data):
        # Agents ask in a drawn order; each answer is the reference's, whatever was asked before.
        n = len(points)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        order = data.draw(st.permutations(range(n))) if data is not None else range(n)[::-1]
        for ldr in (LDR_RANDOM, LDR_REPULSIVE):
            _, ref_adj, ref_notified = pairwise_scan_reference(xs, ys, RB.medium_range, ldr)
            rows = DecentralizedController("ldr", spawns(points), ARENA, SimConfig(), ldr).density(xs, ys)
            for i in order:
                assert rows.notified(i) == ref_notified[i], (ldr.comm_range, i)
                assert rows[i] == ref_adj[i], (ldr.comm_range, i)
            assert dict(rows) == dict(enumerate(ref_adj))

    # Total visits after 300 steps at seed 1; with one agent there are no
    # pairs at all, with two exactly one.
    SMALL_SWARM_VISITS = {
        1: dict.fromkeys(DECENTRALIZED, 39),
        2: {"rb": 68, "ldr_random": 68, "ldr_repulsive": 68, "pm": 76},
    }

    @pytest.mark.parametrize("strategy", DECENTRALIZED)
    @pytest.mark.parametrize("n_uavs", [1, 2])
    def test_smallest_swarms_run(self, strategy, n_uavs):
        cfg = ExperimentConfig(strategy, runs=1, n_uavs=n_uavs, sim=SimConfig(max_steps=300))
        world = build_world(cfg, seed=1)
        world.run()
        assert world.step_count == 300
        assert sum(world.visits) == self.SMALL_SWARM_VISITS[n_uavs][strategy]


# Whole runs whose every step is checked against the reference scan: the
# default configuration and four off-default ones, capped at STEPS steps.
SCAN_RUNS = {
    "default": {},
    "dt0.05": {"sim": SimConfig(dt=0.05)},
    "cell0.5": {"arena": ArenaSpec(cell_size=0.5)},
    "n50_40x6": {"n_uavs": 50, "placement": PlacementSpec(width=40.0, depth=6.0)},
    "side80": {"arena": ArenaSpec(side_length=80.0)},
}


def checked_scan(world):
    """Wrap the controller's neighbour lists and density so that each step's
    result is checked against pairwise_scan_reference on that step's positions.

    Returns the tallies: steps scanned, neighbour offsets seen, steps with a
    density memo, and density flags asked for.
    """
    controller = world.controller
    ldr = controller.ldr
    neighbours, density = controller.neighbours, controller.density
    tally = {"steps": 0, "offsets": 0, "density": 0, "asks": 0}
    reference = {}

    def checked_neighbours(xs, ys, now):
        near = neighbours(xs, ys, now)
        px = list(world.xs)
        py = list(world.ys)
        reference["now"] = now
        reference["scan"] = pairwise_scan_reference(px, py, RB.medium_range, ldr)
        assert hexed(near) == hexed(reference["scan"][0]), now
        tally["steps"] += 1
        tally["offsets"] += sum(map(len, near))
        return near

    def checked_density(xs, ys):
        assert reference["now"] == world.step_count + 1
        rows = density(xs, ys)
        _, ref_adj, ref_notified = reference["scan"]
        step = world.step_count

        def checked_notified(i):
            flag = CommRows.notified(rows, i)
            assert flag == ref_notified[i], (step, i)
            # Every row computed so far; a repulsive escape reads only rows[i].
            assert {j: ref_adj[j] for j in rows} == dict(rows), step
            tally["asks"] += 1
            return flag

        rows.notified = checked_notified
        tally["density"] += 1
        return rows

    controller.neighbours = checked_neighbours
    controller.density = checked_density
    return tally


class TestNeighbourScanInRuns:
    STEPS = 1000

    @pytest.mark.parametrize("strategy", DECENTRALIZED)
    @pytest.mark.parametrize("run", SCAN_RUNS)
    def test_every_step_matches_reference(self, strategy, run):
        options = SCAN_RUNS[run]
        sim = replace(options.get("sim", SimConfig()), max_steps=self.STEPS)
        config = ExperimentConfig(strategy, runs=1, **{**options, "sim": sim})
        world = build_world(config, seed=1)
        tally = checked_scan(world)
        world.run()
        assert tally["steps"] == world.step_count
        assert tally["offsets"] > 0
        # LDR runs ask, at least once on every step that builds a memo; rb and pm never ask.
        assert (tally["asks"] > 0) == (world.controller.ldr is not None)
        assert tally["density"] <= tally["asks"]

    @pytest.mark.parametrize("strategy", ["rb", "ldr_random", "ldr_repulsive"])
    def test_head_on_pair_beyond_the_skin_is_seen_in_time(self, strategy):
        # Two agents facing each other, just beyond the candidate list's
        # reach, close at two step lengths a step. The list built at step 1
        # holds no pair; a rebuild must come before they are in medium range.
        gap = math.nextafter(REACH, math.inf)
        world, controller = scene(strategy, [(0.0, 0.0), (gap, 0.0)], heading=0.0)
        world.hs[1] = math.pi
        tally = checked_scan(world)
        closing = 2.0 * STEP_LEN
        first = math.ceil((REACH - RB.medium_range) / closing) + 1  # positions within range from here
        while not controller.events:
            world.step()
        assert tally["steps"] == world.step_count
        assert [(e.step, e.agent_id, e.kind) for e in controller.events] == [
            (first + 1, 0, "avoid_medium"),
            (first + 1, 1, "avoid_medium"),
        ]

    @pytest.mark.parametrize("built, stepped", [(3, 5), (5, 3)])
    def test_swarm_size_mismatch_names_both_sizes(self, built, stepped):
        def line(k):
            return [
                AgentState(id=i, position=(3.0 * i, 0.0), heading=0.0, altitude=1.5, rng=agent_stream(0, i))
                for i in range(k)
            ]

        world = World(ARENA, SimConfig(), line(stepped), DecentralizedController("rb", line(built), ARENA, SimConfig()))
        with pytest.raises(ValueError, match=f"built for {built} agents, world has {stepped}"):
            world.step()


def test_a_pm_controller_built_for_a_smaller_arena_steers_by_its_map():
    # A pm controller built for a 20 m arena, flown in the default 40 m one:
    # the field is the world's, over the grid it is indexed by, so a deposit
    # past the small map no longer raises IndexError.
    sim = SimConfig(max_steps=3000)
    agents = build_world(ExperimentConfig("pm", runs=1, sim=sim), seed=1).agents
    controller = DecentralizedController("pm", agents, ArenaSpec(side_length=20.0), sim, PM)
    world = World(ARENA, sim, agents, controller)
    world.run()
    assert world.step_count == 3000
    assert world.clamp_count == 0


def test_an_agent_with_no_neighbour_gets_the_shared_empty_row():
    # Agents 0 and 1 are 2 m apart, agent 2 is alone: only 0 and 1 get a row.
    points = [(0.0, 0.0), (2.0, 0.0), (10.0, 0.0)]
    near = DecentralizedController("rb", spawns(points), ARENA, SimConfig()).neighbours(
        [p[0] for p in points], [p[1] for p in points], 1
    )
    assert near == [((2.0, 0.0, 2.0),), ((-2.0, -0.0, 2.0),), ()]
    assert type(near[2]) is tuple


def test_shared_commands_are_built_once(monkeypatch):
    # A run builds its cruise and two spins once, with the controller; only
    # a turn's last, shortened step builds its own command.
    built = []
    new = Unicycle.__new__
    monkeypatch.setattr(Unicycle, "__new__", lambda cls, v, w: built.append((v, w)) or new(cls, v, w))
    world = build_world(ExperimentConfig("rb", runs=1, sim=SimConfig(max_steps=300)), seed=1)
    controller = world.controller
    ends = 0
    for _ in range(300):
        turning = list(controller.turn_dir)
        world.step()
        ends += sum(1 for was, now in zip(turning, controller.turn_dir) if was and not now)
    assert ends > 0
    assert len(built) == 3 + ends
    assert sorted(built[:3]) == [(0.0, -math.pi / 6.0), (0.0, math.pi / 6.0), (1.0, 0.0)]


def spin_once(heading, rate, dt):
    """A turning agent's heading after one World.step: the sum, then the wrap outside (0, 2 pi)."""
    heading += rate * dt
    if not 0.0 < heading < TWO_PI:
        heading = wrap_angle(heading)
    return heading


def turn_end(controller, heading, target, direction, checked_from):
    """The step a turn begun at step 0 ends at, and its last rate, when decide reads
    turn_remaining from step checked_from on and spins before it; each spin before it must
    leave more than last_turn to go."""
    rate, dt, last_turn = direction * controller.spins[0].angular_rate, controller.dt, controller.last_turn
    for step in range(1, 10_000):
        remaining = turn_remaining(heading, target, direction)
        if step < checked_from:
            assert remaining > last_turn, (step, remaining)
        elif remaining <= last_turn:
            return step, direction * remaining / dt
        heading = spin_once(heading, rate, dt)
    raise AssertionError("the turn did not end")


@st.composite
def turns(draw):
    """A spin envelope, and a turn's heading, direction and target. The angle to turn is the
    last step's reach plus some whole spins, plus a fraction of one or nudged a few ulps either
    side of the whole number, so counts near the spin boundary are drawn; a heading on either
    side of the 0 / 2 pi wrap sends the target across it."""
    rate = draw(st.floats(1e-6, 1e3))
    dt = draw(st.one_of(st.sampled_from([0.05, 0.1, 1.0]), st.floats(1e-3, 1.0)))  # 1 s: a cruise step fills a cell
    cfg = SimConfig(dt=dt, turn_rate_default=rate)
    heading = draw(st.one_of(
        st.sampled_from([0.0, math.ulp(0.0), 1e-12, math.nextafter(TWO_PI, 0.0), TWO_PI - 1e-12]),
        st.floats(0.0, TWO_PI, exclude_max=True),
    ))
    direction = draw(st.sampled_from([1.0, -1.0]))
    spin = rate * dt
    spins = draw(st.integers(0, 300)) + draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    angle = spin + 1e-12 + spins * spin + draw(st.integers(-64, 64)) * math.ulp(TWO_PI)
    if not 0.0 <= angle < TWO_PI:  # a spin this long ends any turn within a few hundred steps
        angle = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    return cfg, heading, direction, wrap_angle(heading + direction * angle)


@settings(max_examples=500, deadline=None)
@given(turns())
@example((SimConfig(), 0.0, -1.0, math.radians(300.0)))
@example((SimConfig(), math.nextafter(TWO_PI, 0.0), 1.0, math.radians(60.0)))
def test_a_turn_spins_without_reading_the_heading_only_where_it_must_spin(turn):
    # decide spins a turning agent without turn_remaining through spin_until; the turn
    # must end on the step, and with the rate, that reading it on every step gives.
    cfg, heading, direction, target = turn
    controller = DecentralizedController("rb", spawns([(0.0, 0.0)]), ARENA, cfg)
    controller._react(0, 0, "boundary", heading, direction, target)
    certain = controller.spin_until[0]
    assert turn_end(controller, heading, target, direction, certain + 1) == turn_end(
        controller, heading, target, direction, 1
    )


# Offsets on avoidance's edges: the 30 and 45 degree half-cones either side,
# and beside and behind the heading.
EDGE_BEARINGS = [0.0, math.pi / 6.0, -math.pi / 6.0, math.pi / 4.0, -math.pi / 4.0, math.pi / 2.0, math.pi]
TINY = 2e-162  # a distance whose square is subnormal, with a few bits left
forward_heading = st.one_of(
    st.sampled_from([0.0, math.nextafter(2.0 * math.pi, 0.0)]),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


@st.composite
def forward_scene(draw):
    """Agent 0 at the arena's centre, and a few agents around it: coincident
    at either sign of zero, or on an edge bearing or any bearing from agent
    0's heading, at exactly short_range or medium_range, at any distance,
    or at a tiny one. Every agent has its own heading."""
    heading = draw(forward_heading)
    points = [(0.0, 0.0)]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            zero = st.sampled_from([0.0, -0.0])
            points.append((draw(zero), draw(zero)))
            continue
        bearing = heading + draw(st.one_of(st.sampled_from(EDGE_BEARINGS), st.floats(-math.pi, math.pi)))
        dist = draw(st.one_of(st.sampled_from([RB.short_range, RB.medium_range, TINY]), st.floats(0.0, 2.6)))
        points.append((dist * math.cos(bearing), dist * math.sin(bearing)))
    headings = [heading] + [draw(forward_heading) for _ in points[1:]]
    return points, headings


class TestForwardBound:
    @settings(max_examples=200, deadline=None)
    @given(forward_scene())
    # On the 45 degree edge at heading 0, exactly; that edge at a tiny
    # distance; and agents coincident at either sign of zero.
    @example(([(0.0, 0.0), (0.5, 0.5), (0.5, -0.5)], [0.0, math.pi, math.pi]))
    @example(([(0.0, 0.0), (TINY, TINY)], [0.0, 0.0]))
    @example(([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)], [0.0, math.pi, 0.0]))
    def test_decide_skips_avoidance_only_where_it_would_not_dodge(self, drawn):
        points, headings = drawn
        agents = [
            AgentState(id=i, position=p, heading=h, altitude=1.5, rng=agent_stream(0, i))
            for i, (p, h) in enumerate(zip(points, headings))
        ]
        world = World(ARENA, SimConfig(), agents, DecentralizedController("rb", agents, ARENA, SimConfig()))
        near = pairwise_scan_reference(world.xs, world.ys, RB.medium_range, None)[0]
        states = [a.rng.bit_generator.state for a in agents]
        calls = {}
        real = decentralized.avoidance_turn

        def recording(heading, row, params, rng):
            calls[id(rng)] = row
            return real(heading, row, params, rng)

        decentralized.avoidance_turn = recording
        try:
            world.controller.decide(world.senses, 1)
        finally:
            decentralized.avoidance_turn = real
        for i, agent in enumerate(agents):
            if id(agent.rng) in calls:
                assert hexed([calls[id(agent.rng)]]) == hexed([near[i]]), i
            else:
                assert agent.rng.bit_generator.state == states[i], i
                assert real(world.hs[i], near[i], RB, agent.rng) is None, i
