"""Grid, kinematics, sensing, and step-loop semantics."""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import pm_sense_mismatches
from oracles import (
    RefAgent,
    RefCoverage,
    cell_of,
    clamp_into,
    flat_index,
    place_decentralized_reference,
    pose_step_reference,
    record_visit,
    split_blocks,
    step_kinematics,
)
from sweepsim import world as world_module
from sweepsim.angles import TWO_PI, wrap_angle
from sweepsim.arena import ArenaSpec, cell_boxes, edge_distances, edges_outside
from sweepsim.decentralized import DecentralizedController, PheromoneField, pm_sense
from sweepsim.harness import ExperimentConfig, PlacementSpec, build_world, place_decentralized
from sweepsim.metrics import RunRecord, block_uniformities, uniformity
from sweepsim.sons import SonsFormation, follow_formation, make_sons_controller
from sweepsim.world import (
    HOLD,
    SPEED_EPS,
    AgentState,
    PoseTarget,
    Senses,
    SimConfig,
    Unicycle,
    World,
    agent_stream,
    harness_stream,
)

ARENA = ArenaSpec()
CFG = SimConfig()


def make_agent(
    position,
    heading=0.0,
    altitude=1.5,
    speed=1.0,
    sampling=True,
    agent_id=0,
):
    """A mutable agent for the reference step functions."""
    return RefAgent(
        id=agent_id,
        position=position,
        heading=heading,
        altitude=altitude,
        speed=speed,
        sampling_active=sampling,
    )


def spawn(position, heading=0.0, agent_id=0):
    """A World's spawn record at the sampling altitude."""
    return AgentState(
        id=agent_id, position=position, heading=heading, altitude=1.5, rng=agent_stream(0, agent_id)
    )


def pose(world, i):
    """Agent i's live position and heading, from the World's lists."""
    return (world.xs[i], world.ys[i]), world.hs[i]


class TestArenaSpec:
    def test_defaults(self):
        assert ARENA.cols == 40
        assert ARENA.cell_count == 1600
        assert ARENA.min_corner == (-20.0, -20.0)

    def test_side_must_divide_cell(self):
        with pytest.raises(ValueError):
            ArenaSpec(side_length=40.5)

    def test_side_must_divide_region(self):
        with pytest.raises(ValueError):
            ArenaSpec(side_length=25.0, region_size=10.0)

    @pytest.mark.parametrize("cell_size", [4.0, 3.0, 1.5])
    def test_region_must_divide_cell(self, cell_size):
        # 4 m cells made 2.5 cells a region; split_blocks rounded that to 2,
        # and its 16 blocks left 36 of the 100 cells out of LCU and block_NN
        message = f"region_size must be an integer multiple of cell_size, got region_size 10 and cell_size {cell_size:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ArenaSpec(side_length=120.0, cell_size=cell_size, region_size=10.0)

    @pytest.mark.parametrize("length", ["side_length", "cell_size", "region_size"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_lengths_rejected(self, length, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ArenaSpec(**{length: value})

    @pytest.mark.parametrize("length", ["side_length", "cell_size", "region_size"])
    def test_bool_lengths_rejected(self, length):
        # True acted as 1.0; regions of 1 m leave the bool the only fault
        with pytest.raises(ValueError, match=f"{length} must be positive and finite, got True"):
            ArenaSpec(**{"region_size": 1.0, length: True})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_center_rejected(self, axis, value):
        # a nan centre failed rb placement as infeasible and gave sons_rw no visit
        center = [0.0, 0.0]
        center[axis] = value
        with pytest.raises(ValueError, match=r"center must be a finite \(x, y\) pair"):
            ArenaSpec(center=tuple(center))

    def test_edges_outside(self):
        out = dict(edges_outside((20.3, 0.0), ARENA))
        assert out == {(-1.0, 0.0): pytest.approx(0.3)}


class TestCellOf:
    def test_minimum_corner(self):
        assert cell_of((-20.0, -20.0), ARENA) == (0, 0)

    def test_interior_point(self):
        # floor((0.2+20)/1) = 20, floor((-0.7+20)/1) = 19
        assert cell_of((0.2, -0.7), ARENA) == (20, 19)

    def test_outside(self):
        assert cell_of((25.0, 0.0), ARENA) is None

    def test_maximum_edge_clamps(self):
        assert cell_of((20.0, 20.0), ARENA) == (39, 39)
        assert cell_of((20.0, -20.0), ARENA) == (39, 0)

    @given(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.floats(-20.0, 20.0, allow_nan=False),
    )
    def test_interior_matches_floor_oracle(self, x, y):
        cell = cell_of((x, y), ARENA)
        assert cell is not None
        col, row = cell
        assert col == min(int(math.floor(x + 20.0)), 39)
        assert row == min(int(math.floor(y + 20.0)), 39)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_total_function(self, x, y):
        inside = abs(x) <= 20 and abs(y) <= 20
        assert (cell_of((x, y), ARENA) is not None) == inside


class TestKinematics:
    def test_straight_line(self):
        agent = make_agent((0.0, 0.0), heading=0.0)
        step_kinematics(agent, Unicycle(1.0, 0.0), 0.1)
        assert agent.position[0] == pytest.approx(0.1)
        assert agent.position[1] == pytest.approx(0.0)
        assert agent.speed == 1.0

    def test_pure_rotation(self):
        agent = make_agent((1.0, 2.0), heading=0.0)
        step_kinematics(agent, Unicycle(0.0, math.pi / 2.0), 1.0)
        assert agent.heading == pytest.approx(math.pi / 2.0)
        assert agent.position == (1.0, 2.0)

    def test_heading_wraps(self):
        agent = make_agent((0.0, 0.0), heading=3 * math.pi / 2)
        step_kinematics(agent, Unicycle(0.0, math.pi), 1.0)
        assert 0.0 <= agent.heading < 2 * math.pi
        assert agent.heading == pytest.approx(math.pi / 2.0)

    def test_negative_speed_rejected(self):
        agent = make_agent((0.0, 0.0))
        with pytest.raises(ValueError):
            step_kinematics(agent, Unicycle(-1.0, 0.0), 0.1)

    @given(
        st.floats(0.0, 2.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 2 * math.pi),
    )
    def test_displacement_bounded_by_command(self, speed, omega, heading):
        agent = make_agent((0.0, 0.0), heading=heading)
        step_kinematics(agent, Unicycle(speed, omega), 0.1)
        displacement = math.hypot(*agent.position)
        assert displacement <= speed * 0.1 + 1e-12


class TestRecordVisit:
    def test_sampling_agent_credits_cell(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5))
        assert record_visit(agent, coverage, CFG) == (20, 20)
        assert coverage.visited_count == 1

    def test_supervisor_altitude_never_credits(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5), altitude=4.0)
        assert record_visit(agent, coverage, CFG) is None
        assert coverage.visited_count == 0

    def test_overspeed_never_credits(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5), speed=1.2)
        assert record_visit(agent, coverage, CFG) is None

    def test_speed_epsilon_guard(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5), speed=1.0 + SPEED_EPS / 2)
        assert record_visit(agent, coverage, CFG) is not None

    def test_sampling_inactive_never_credits(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5), sampling=False)
        assert record_visit(agent, coverage, CFG) is None

    def test_outside_never_credits(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((30.0, 0.5))
        assert record_visit(agent, coverage, CFG) is None

    def test_no_recredit_without_entry(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5))
        assert record_visit(agent, coverage, CFG) is not None
        # same cell next step: no new credit
        assert record_visit(agent, coverage, CFG) is None
        assert coverage.visits[flat_index((20, 20), ARENA)] == 1

    def test_reentry_credits_again(self):
        coverage = RefCoverage(ARENA)
        agent = make_agent((0.5, 0.5))
        record_visit(agent, coverage, CFG)
        agent.position = (1.5, 0.5)
        record_visit(agent, coverage, CFG)
        agent.position = (0.5, 0.5)
        record_visit(agent, coverage, CFG)
        assert coverage.visits[flat_index((20, 20), ARENA)] == 2


class TestStepLoop:
    def test_empty_world_advances_clock(self):
        world = World(ARENA, CFG, [], ScriptedController([[]]))
        world.step()
        assert world.step_count == 1
        assert world.visited_count == 0

    def test_step_longer_than_cell_rejected(self):
        # a World built by hand checks the step length, not only ExperimentConfig
        with pytest.raises(ValueError, match=r"step length 2 m .* exceeds the cell size 1 m"):
            World(ARENA, SimConfig(dt=2.0), [], ScriptedController([]))
        with pytest.raises(ValueError, match=r"step length 0\.5 m .* cell size 0\.25 m"):
            World(ArenaSpec(cell_size=0.25), SimConfig(dt=0.5), [], ScriptedController([]))

    @staticmethod
    def assert_untouched(world):
        # The count is checked before anything moves, is scored or advances.
        assert [pose(world, i) for i in range(2)] == [((0.5, 0.5), 0.0)] * 2
        assert world.cells == [-1, -1]
        assert world.step_count == 0
        assert world.visited_count == 0
        assert world.visit_events == []

    @pytest.mark.parametrize("n_moves", [1, 3])
    def test_wrong_number_of_moves_raises(self, n_moves):
        agents = [spawn((0.5, 0.5), agent_id=i) for i in range(2)]
        world = World(ARENA, CFG, agents, ScriptedController([[Unicycle(1.0, 0.0)] * n_moves]))
        with pytest.raises(ValueError, match=f"commanded {n_moves} moves for 2 agents"):
            world.step()
        self.assert_untouched(world)

    @pytest.mark.parametrize("n_offsets", [1, 3])
    def test_wrong_number_of_positions_raises(self, n_offsets):
        agents = [spawn((0.5, 0.5), agent_id=i) for i in range(2)]
        command = PoseTarget((0.5, 0.5), 0.0, ((0.0, 0.1),) * n_offsets, True)
        world = World(ARENA, CFG, agents, ScriptedController([command]))
        with pytest.raises(ValueError, match=f"commanded {n_offsets} moves for 2 agents"):
            world.step()
        self.assert_untouched(world)

    @pytest.mark.parametrize("ids", [[0, 0], [1, 2], [0, 2], [1]], ids=str)
    def test_spawn_ids_must_be_the_list_indices(self, ids):
        # A list index is the agent id that visit_events and reactions report.
        agents = [spawn((0.5, 0.5), agent_id=i) for i in ids]
        with pytest.raises(ValueError, match="agent ids must be 0"):
            World(ARENA, CFG, agents, ScriptedController([]))

    def test_negative_speed_raises_when_the_command_is_built(self):
        with pytest.raises(ValueError, match="linear_speed must be non-negative"):
            Unicycle(-1.0, 0.0)

    def test_negative_speed_raises_through_make(self):
        # namedtuple's _make built the tuple without __new__'s sign check.
        with pytest.raises(ValueError, match="linear_speed must be non-negative"):
            Unicycle._make([-1.0, 0.0])
        assert Unicycle._make([1.0, 0.5]) == Unicycle(1.0, 0.5)

    def test_negative_speed_raises_through_replace(self):
        with pytest.raises(ValueError, match="linear_speed must be non-negative"):
            HOLD._replace(linear_speed=-2.0)
        assert HOLD._replace(linear_speed=2.0) == Unicycle(2.0, 0.0)

    @pytest.mark.parametrize("route", ["new", "make", "replace"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize(
        "field, rule",
        [("linear_speed", "non-negative and finite"), ("angular_rate", "finite")],
    )
    def test_non_finite_command_raises(self, field, rule, value, route):
        # A nan speed passed the sign check (nan < 0 is false) and parked the
        # agent at (nan, nan) for good.
        fields = {"linear_speed": 1.0, "angular_rate": 0.5, field: value}
        build = {
            "new": lambda: Unicycle(**fields),
            "make": lambda: Unicycle._make([fields["linear_speed"], fields["angular_rate"]]),
            "replace": lambda: Unicycle(1.0, 0.5)._replace(**{field: value}),
        }[route]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}") + "$"):
            build()

    def test_negative_speed_raises_before_the_world_changes(self):
        # Agent 0 used to move and score before agent 1's negative speed raised.
        class Reverses(ScriptedController):
            def decide(self, senses, step):
                return [Unicycle(1.0, 0.0), Unicycle(-1.0, 0.0)]

        agents = [spawn((0.5, 0.5), agent_id=i) for i in range(2)]
        world = World(ARENA, CFG, agents, Reverses([]))
        with pytest.raises(ValueError, match="linear_speed must be non-negative"):
            world.step()
        self.assert_untouched(world)

    def test_spawn_ids_in_any_order(self):
        agents = [spawn((0.5 + i, 0.5), agent_id=i) for i in (2, 0, 1)]
        world = World(ARENA, CFG, agents, ScriptedController([[HOLD] * 3]))
        world.step()
        assert world.xs == [0.5, 1.5, 2.5]
        assert world.visit_events == [(0, 820), (1, 821), (2, 822)]

    def test_spawn_record_is_frozen_and_the_live_pose_is_the_worlds(self):
        agent = spawn((0.5, 0.5), heading=-math.pi / 2.0)
        with pytest.raises(FrozenInstanceError):
            agent.heading = 0.0
        world = World(ARENA, CFG, [agent], ScriptedController([[Unicycle(1.0, 0.0)]]))
        assert pose(world, 0) == ((0.5, 0.5), 1.5 * math.pi)  # wrapped once, on spawn
        world.step()
        assert pose(world, 0) == ((0.5, 0.4), 1.5 * math.pi)

    def test_a_negative_zero_spawn_heading_is_stored_as_zero(self):
        # A formation step stores 0.0 for -0.0; the spawn used to keep -0.0.
        world = World(ARENA, CFG, [spawn((0.5, 0.5), heading=-0.0)], ScriptedController([]))
        assert world.hs[0].hex() == "0x0.0p+0"

    def test_a_turn_landing_on_minus_two_pi_is_stored_as_zero(self):
        # fmod(-2 pi, 2 pi) is -0.0, which the unicycle branch used to store.
        rate = -TWO_PI / CFG.dt
        assert 0.0 + rate * CFG.dt == -TWO_PI
        world = World(ARENA, CFG, [spawn((0.5, 0.5))], ScriptedController([[Unicycle(0.0, rate)]]))
        world.step()
        assert world.hs[0].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("command, pheromone", [
        ([Unicycle(1.0, 0.5)], False),
        (PoseTarget((0.5, 0.5), 0.3, ((0.0, 0.0),), True), False),
        ([Unicycle(1.0, 0.5)], True),
    ], ids=["unicycle", "formation", "unicycle_with_field"])
    def test_senses_is_built_once_over_the_worlds_own_objects(self, command, pheromone):
        # World.step mutates the pose lists in place; one it rebound would leave
        # the record, built once in __init__, reading a stale pose. The field is
        # the world's, built only for a controller that asks for one.
        controller = ScriptedController([command])
        controller.pheromone = pheromone
        world = World(ARENA, CFG, [spawn((0.5, 0.5))], controller)
        assert (world.pheromone is not None) == pheromone
        senses = world.senses
        assert [f for f in Senses._fields if getattr(senses, f) is not getattr(world, f)] == []
        world.step()
        assert [f for f in Senses._fields if getattr(senses, f) is not getattr(world, f)] == []
        ((seen, step),) = world.controller.seen
        assert seen is senses and world.senses is senses and step == 1

    def test_two_agents_same_new_cell(self):
        a = make_agent((0.4, 0.5), agent_id=0)
        b = make_agent((0.6, 0.5), agent_id=1)
        coverage = RefCoverage(ARENA)
        for agent in (a, b):
            cell = record_visit(agent, coverage, CFG)
            assert cell == (20, 20)
        assert coverage.visits[flat_index((20, 20), ARENA)] == 2
        assert coverage.visited_count == 1

    def test_visit_counts_monotonic(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=300))
        world = build_world(cfg, seed=5)
        prev = np.zeros(ARENA.cell_count, dtype=np.int64)
        prev_count = 0
        for _ in range(300):
            world.step()
            counts = np.asarray(world.visits, dtype=np.int64)
            assert (counts >= prev).all()
            assert world.visited_count >= prev_count
            prev, prev_count = counts, world.visited_count

    def test_visited_count_cache_consistent(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=200))
        world = build_world(cfg, seed=7)
        for _ in range(200):
            world.step()
        counts = np.asarray(world.visits, dtype=np.int64)
        assert world.visited_count == int((counts >= 1).sum())


class ScriptedController:
    """Replays a fixed list of per-step move lists, keeping what each decide was given."""

    name = "scripted"
    pheromone = False

    def __init__(self, steps):
        self.steps = list(steps)
        self.cursor = 0
        self.seen = []  # the (senses, step) of each decide

    def decide(self, senses, step):
        self.seen.append((senses, step))
        moves = self.steps[self.cursor]
        self.cursor += 1
        return moves


def assert_step_matches_oracles(arena, start, heading, commands):
    """assert_swarm_matches_oracles for one agent."""
    assert_swarm_matches_oracles(arena, [start], [heading], [[c] for c in commands])


def assert_swarm_matches_oracles(arena, starts, headings, script, writes=(), heading_writes=()):
    """Run script, one command per agent a step, through World.step and through the oracles; compare.

    A step of script may instead be one PoseTarget for the whole swarm, which
    pose_step_reference applies to the oracles.

    The oracles move and score one agent at a time, in id order. World.step
    clamps every unicycle move, so the oracle path applies clamp_into after
    each command with a non-zero linear speed. Poses are compared by
    float.hex, so the sign of a zero counts. writes holds (step, agent,
    cell) triples: before that step, cell is written into world.cells and
    into the reference's prev_cell. heading_writes holds (step, agent,
    heading) triples, written into world.hs and the reference's heading.
    """
    spawns = [spawn(p, h, i) for i, (p, h) in enumerate(zip(starts, headings))]
    world = World(arena, CFG, spawns, ScriptedController(script))
    manual = [
        RefAgent(id=i, position=p, heading=h, altitude=1.5)
        for i, (p, h) in enumerate(zip(starts, headings))
    ]
    coverage = RefCoverage(arena)
    clamps = 0
    for step, commands in enumerate(script, start=1):
        for when, i, cell in writes:
            if when == step:
                world.cells[i] = manual[i].prev_cell = cell
        for when, i, heading in heading_writes:
            if when == step:
                world.hs[i] = manual[i].heading = heading
        world.step()
        if commands.__class__ is PoseTarget:
            events = [(i, flat_index(c, arena)) for i, c in pose_step_reference(manual, coverage, CFG, commands)]
        else:
            events = []
            for agent, command in zip(manual, commands, strict=True):
                step_kinematics(agent, command, CFG.dt)
                if command.linear_speed != 0.0:
                    clamped = clamp_into(agent.position, arena)
                    clamps += clamped != agent.position
                    agent.position = clamped
                cell = record_visit(agent, coverage, CFG)
                if cell is not None:
                    events.append((agent.id, flat_index(cell, arena)))
        where = (arena, starts, step)
        # pm_sense reads the world's cells, so they must be the oracle's cells too
        assert member_views(world) == reference_views(manual), where
        assert world.visit_events == events, where
        assert world.visits == coverage.visits, where
        assert world.clamp_count == clamps, where
    assert world.visited_count == coverage.visited_count


class TestContainment:
    """World.step, not the controller, keeps every unicycle move in the arena."""

    @pytest.mark.parametrize(
        "start, heading, end",
        [((19.95, 0.5), 0.0, (20.0, 0.5)), ((-19.95, -19.95), 1.25 * math.pi, (-20.0, -20.0))],
        ids=["east_edge", "south_west_corner"],
    )
    def test_move_out_of_the_arena_ends_on_the_edge(self, start, heading, end):
        world = World(ARENA, CFG, [spawn(start, heading)], ScriptedController([[Unicycle(1.0, 0.0)]]))
        world.step()
        assert pose(world, 0)[0] == end
        assert world.clamp_count == 1
        idx = flat_index(cell_of(end, ARENA), ARENA)
        assert world.cells[0] == idx
        assert world.visit_events == [(0, idx)]

    def test_held_agent_outside_keeps_no_cell(self):
        commands = [[Unicycle(0.0, 0.0)], [Unicycle(0.0, 1.0)], [Unicycle(-0.0, 0.0)]]
        world = World(ARENA, CFG, [spawn((25.0, 0.5))], ScriptedController(commands))
        assert world.cells == [-1]  # no agent has a cell before step 1
        for _ in commands:
            world.step()
            assert world.cells == [-1]
            assert pose(world, 0)[0] == (25.0, 0.5)
            assert world.visit_events == []
        assert world.clamp_count == 0

    def test_clamp_into(self):
        # the oracle path of assert_swarm_matches_oracles clamps with it
        assert clamp_into((25.0, -3.0), ARENA) == (20.0, -3.0)
        assert clamp_into((1.0, 2.0), ARENA) == (1.0, 2.0)


# Cell sizes 0.1 and 0.2 are where dividing by cell_size and multiplying by
# its inverse put grid-line positions in different cells.
SIZED_ARENAS = [ArenaSpec(side_length=40.0, cell_size=c, region_size=10.0) for c in (1.0, 0.1, 0.2)]


class TestFusedStepEquivalence:
    def test_step_matches_public_kinematics_and_visit_functions(self):
        # World.step fuses step_kinematics and record_visit for speed; the
        # fused path must stay pinned to the oracles
        rng = np.random.default_rng(5)
        for arena in SIZED_ARENAS:
            for _ in range(100):
                start = (rng.uniform(-21, 21), rng.uniform(-21, 21))
                heading = rng.uniform(0, 2 * math.pi)
                commands = [
                    Unicycle(float(rng.uniform(0, 1.3)), float(rng.uniform(-3, 3)))
                    for _ in range(40)
                ]
                assert_step_matches_oracles(arena, start, heading, commands)

    @pytest.mark.parametrize("arena", SIZED_ARENAS[1:], ids=lambda a: f"cell{a.cell_size}")
    def test_grid_line_starts(self, arena):
        # Starts exactly on grid lines, x = min_x + k * cell_size (and the
        # same for y), held for a step so the start cell is scored, then moved.
        minx, miny = arena.min_corner
        commands = [Unicycle(0.0, 1.0), Unicycle(1.0, 0.0), Unicycle(0.0, -2.0), Unicycle(1.0, 0.0)]
        for k in range(arena.cols + 1):
            line = minx + k * arena.cell_size
            for start in ((line, 0.05), (0.05, miny + k * arena.cell_size)):
                assert_step_matches_oracles(arena, start, 0.0, commands)

    @pytest.mark.parametrize("arena", SIZED_ARENAS, ids=lambda a: f"cell{a.cell_size}")
    def test_stationary_steps(self, arena):
        # After the first step, World.step only turns an agent with zero
        # linear speed. Scripts open with a hold, so the start cell must be
        # scored, then mix holds (a zero rate, a -0.0 speed) with moves, some
        # of them straight ahead. Starts lie on grid lines, inside the arena
        # and up to 2 m outside it.
        rng = np.random.default_rng(14)
        minx, miny = arena.min_corner
        maxx, maxy = arena.max_corner
        holds = [Unicycle(0.0, 0.0), Unicycle(-0.0, 0.0), Unicycle(0.0, 2.5), Unicycle(-0.0, -1.0)]
        moves = [Unicycle(1.0, 0.0), Unicycle(0.7, 0.0), Unicycle(1.0, 3.0), Unicycle(0.4, -0.8)]
        lines = rng.choice(arena.cols + 1, size=12, replace=False).tolist() + [0, arena.cols]
        starts = [(minx + k * arena.cell_size, miny + j * arena.cell_size) for k in lines for j in (0, k)]
        starts += [(rng.uniform(minx, maxx), rng.uniform(miny, maxy)) for _ in range(20)]
        starts += [
            (rng.uniform(minx - 2.0, maxx + 2.0), rng.uniform(miny - 2.0, miny))
            for _ in range(10)
        ]
        starts += [
            (rng.uniform(maxx, maxx + 2.0), rng.uniform(miny - 2.0, maxy + 2.0))
            for _ in range(10)
        ]
        for start in starts:
            commands = [holds[rng.integers(len(holds))]]
            for _ in range(30):
                pool = holds if rng.random() < 0.5 else moves
                commands.append(pool[rng.integers(len(pool))])
            assert_step_matches_oracles(arena, start, float(rng.uniform(0, TWO_PI)), commands)


def in_box(box, x, y):
    xlo, xhi, ylo, yhi = box
    return xlo <= x < xhi and ylo <= y < yhi


@dataclass(frozen=True)
class Rectangle(ArenaSpec):
    """A rectangular arena, height metres along y: ArenaSpec with only its extents changed."""

    height: float = 20.0

    @cached_property
    def extents(self) -> tuple[float, float]:
        return (self.side_length, self.height)


# 40 m x 20 m off the origin: 4 x 2 region blocks of 10 x 10 cells.
RECT = Rectangle(side_length=40.0, height=20.0, center=(5.0, -3.0), region_size=10.0)


@st.composite
def grid_arenas(draw):
    """An arena whose sides are whole numbers of cells, centred anywhere; square or not.

    Half-cell centres put a grid line at 0.0 in some draws. Below such a
    line x - minx rounds up to the line's index for every tiny x, so its
    edge lies far below 0.0, not an ulp or two.
    """
    cell = draw(st.sampled_from([0.1, 0.2, 0.5, 1.0, 4.0]))
    side = cell * draw(st.integers(1, 60))
    centre = st.one_of(
        st.integers(-60, 60).map(lambda k: k * cell / 2.0),
        st.floats(-100.0, 100.0),
    )
    spec = dict(side_length=side, cell_size=cell, center=(draw(centre), draw(centre)), region_size=side)
    if draw(st.booleans()):
        return ArenaSpec(**spec)
    return Rectangle(height=cell * draw(st.integers(1, 60)), **spec)


def box_edges(arena):
    """The x and y grid lines of the arena's cell_boxes, last edge included, after checking
    that the boxes are exactly the products of those lines, row-major, plus the sentinel."""
    boxes = cell_boxes(arena)
    cols, rows = arena.cols, arena.rows
    assert len(boxes) == cols * rows + 1 == arena.cell_count + 1
    xe = [boxes[c][0] for c in range(cols)] + [boxes[cols - 1][1]]
    ye = [boxes[r * cols][2] for r in range(rows)] + [boxes[-2][3]]
    for idx, box in enumerate(boxes[:-1]):
        row, col = divmod(idx, cols)
        assert box == (xe[col], xe[col + 1], ye[row], ye[row + 1])
    return xe, ye


def assert_boxes_on_grid_lines(arena):
    """cell_boxes against the cell_of oracle on every grid line and on the maximum edges."""
    boxes = cell_boxes(arena)
    (minx, miny), (maxx, maxy) = arena.min_corner, arena.max_corner
    xe, ye = box_edges(arena)
    assert (xe[0], ye[0]) == (minx, miny)
    for k in range(1, arena.cols):
        assert cell_of((xe[k], miny), arena) == (k, 0)
        assert cell_of((math.nextafter(xe[k], -math.inf), miny), arena) == (k - 1, 0)
    for k in range(1, arena.rows):
        assert cell_of((minx, ye[k]), arena) == (0, k)
        assert cell_of((minx, math.nextafter(ye[k], -math.inf)), arena) == (0, k - 1)
    # a move clamped onto the maximum edges stays in the last cells: the last column, the top row
    assert in_box(boxes[arena.cols - 1], maxx, miny)
    assert in_box(boxes[(arena.rows - 1) * arena.cols], minx, maxy)
    assert cell_of((minx, maxy), arena) == (0, arena.rows - 1)
    assert in_box(boxes[-2], maxx, maxy)
    beyond = [(math.nextafter(maxx, math.inf), miny), (minx, math.nextafter(maxy, math.inf))]
    for x, y in beyond:
        assert not any(in_box(box, x, y) for box in boxes)
    probes = [-math.inf, math.inf, math.nan, 0.0, -0.0, minx, maxx, miny, maxy]
    for x in probes + xe:
        for y in probes + ye:
            assert not in_box(boxes[-1], x, y)


class TestCellBoxes:
    @settings(max_examples=60, deadline=None)
    @given(arena=grid_arenas(), data=st.data())
    def test_boxes_are_the_cell_mapping(self, arena, data):
        boxes = cell_boxes(arena)
        (minx, miny), (maxx, maxy) = arena.min_corner, arena.max_corner
        assert_boxes_on_grid_lines(arena)
        xe, ye = box_edges(arena)
        # any point lies in exactly the box of the cell it maps to
        near = st.sampled_from(xe + ye).flatmap(lambda e: st.floats(e - 1e-12, e + 1e-12))
        coordinate = st.one_of(st.floats(minx - 1.0, maxx + 1.0), near)
        for _ in range(20):
            x, y = data.draw(coordinate), data.draw(coordinate)
            cell = cell_of((x, y), arena)
            found = [i for i, box in enumerate(boxes[:-1]) if in_box(box, x, y)]
            assert found == ([] if cell is None else [flat_index(cell, arena)])

    def test_memoized_per_arena_value(self):
        assert cell_boxes(ArenaSpec()) is cell_boxes(ArenaSpec(side_length=40, center=(-0.0, 0.0)))


class TestRectangle:
    """Everything that reads the arena's shape follows extents, one axis at a time."""

    def test_grid_shape(self):
        assert (RECT.cols, RECT.rows, RECT.cell_count, RECT.blocks) == (40, 20, 800, (4, 2))
        assert RECT.half_extents == (20.0, 10.0)
        assert (RECT.min_corner, RECT.max_corner) == ((-15.0, -13.0), (25.0, 7.0))

    def test_cell_boxes_tile_it(self):
        assert_boxes_on_grid_lines(RECT)
        xe, ye = box_edges(RECT)
        assert (len(xe), len(ye)) == (41, 21)
        assert (xe[0], xe[-1]) == (-15.0, math.nextafter(25.0, math.inf))
        assert (ye[0], ye[-1]) == (-13.0, math.nextafter(7.0, math.inf))

    def test_edge_distances_at_each_edge(self):
        # order E, W, N, S, at the middle of the east, west, north and south edges
        assert edge_distances(25.0, -3.0, RECT) == (0.0, 40.0, 10.0, 10.0)
        assert edge_distances(-15.0, -3.0, RECT) == (40.0, 0.0, 10.0, 10.0)
        assert edge_distances(5.0, 7.0, RECT) == (20.0, 20.0, 0.0, 20.0)
        assert edge_distances(5.0, -13.0, RECT) == (20.0, 20.0, 20.0, 0.0)
        assert edges_outside((5.0, 8.0), RECT) == [((0.0, -1.0), 1.0)]

    def test_split_blocks(self):
        visits = np.arange(RECT.cell_count)
        blocks = split_blocks(visits, RECT)
        assert [block.size for block in blocks] == [100] * 8
        assert sorted(np.concatenate(blocks).tolist()) == visits.tolist()
        # row-major over the 4 x 2 block grid: the northern block row starts at block 4
        assert (blocks[1][0], blocks[4][0]) == (10, 10 * RECT.cols)

    def test_block_uniformities_match_split_blocks_bit_for_bit(self):
        visits = np.random.default_rng(29).integers(0, 6, size=RECT.cell_count)
        visits[: 10 * RECT.cols] = 2  # the southern block row alike
        record = RunRecord("rb", 0, 1, np.ones(1), visits)
        values = [v.hex() for v in block_uniformities(record, RECT)]
        assert values == [uniformity(block).hex() for block in split_blocks(visits, RECT)]
        assert values[:4] == ["-0x0.0p+0"] * 4

    def test_pheromone_reads_zero_one_cell_past_the_north_edge(self):
        field = PheromoneField(RECT)
        top = range(RECT.cell_count - RECT.cols, RECT.cell_count)
        for idx in top:
            field.deposit(idx, 1)
        assert len(field._until) == 42 * 22  # the grid and its one-cell border
        north = math.pi / 2.0
        for idx in top:
            assert pm_sense(field, 1, idx, north) == (0.0, 0.0, 0.0)
            assert pm_sense(field, 1, idx - RECT.cols, north)[0] > 0.0

    def test_pm_sense_matches_bounds_checked_reference(self):
        assert pm_sense_mismatches(RECT, seed=8) == []

    def test_rb_stays_inside_without_clamping(self):
        world = build_world(ExperimentConfig(strategy="rb", runs=1, arena=RECT), seed=3, collect_events=True)
        for _ in range(600):
            world.step()
            assert all(-15.0 <= x <= 25.0 and -13.0 <= y <= 7.0 for x, y in zip(world.xs, world.ys))
        assert world.clamp_count == 0
        north = [e for e in world.controller.events if e.kind == "boundary" and (0.0, -1.0) in e.normals]
        assert north  # agents reached the north edge, 20 m from their start strip

    def test_fits_and_starts_per_axis(self):
        cfg = SimConfig()
        deep = PlacementSpec(width=30.0, depth=25.0)
        for place in (place_decentralized, place_decentralized_reference):
            with pytest.raises(ValueError, match="^start box 30 m x 25 m does not fit the 40 m x 20 m arena$"):
                place(deep, 5, RECT, cfg, harness_stream(0))
        narrow = Rectangle(side_length=40.0, height=10.0, region_size=10.0)
        message = "formation span exceeds the arena side, got span 19 m over 20 samplers and a 40 m x 10 m arena"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_sons_controller("sons_bs", narrow, cfg, 25)
        _, rw = make_sons_controller("sons_rw", RECT, cfg, 25)
        assert rw.brain_pos == (25.0, -13.0)
        _, bs = make_sons_controller("sons_bs", RECT, cfg, 25)
        assert bs.brain_pos == (25.0 - bs.stride / 2.0, -12.5)

    def test_step_maps_and_clamps_each_axis_as_the_oracles_do(self):
        # Moves out through the north and east edges are clamped onto them; a point on the
        # maximum-y edge lies in the top row, 19, not in a row 20 the grid does not have.
        commands = [HOLD, Unicycle(1.0, 0.0), Unicycle(1.0, 0.0), Unicycle(0.0, 3.0), Unicycle(1.0, 0.0)]
        north, east = math.pi / 2.0, 0.0
        for start, heading in [((5.3, 7.0), north), ((5.3, 6.95), north), ((25.0, 0.5), east),
                               ((24.97, 6.98), north / 2.0), ((-15.0, 7.0), north)]:
            assert_step_matches_oracles(RECT, start, heading, commands)


OFF_CENTRE_HALF_METRE = ArenaSpec(side_length=20.0, cell_size=0.5, center=(7.0, -3.0), region_size=10.0)


@pytest.mark.parametrize("arena", [ARENA, RECT, OFF_CENTRE_HALF_METRE], ids=["default", "rect", "off_centre"])
def test_no_position_the_clear_box_passes_has_a_wall_in_reach(arena):
    # decide skips the boundary check strictly inside DecentralizedController.clear. Probe each
    # box edge and one ulp either side of it, by the centre and the other edges, at the 8 compass
    # headings: wherever the box calls a position clear, the full check finds no constraint.
    controller = DecentralizedController("rb", [AgentState(0, arena.center, 0.0, 1.5)], arena, CFG)
    xlo, xhi, ylo, yhi = controller.clear
    trigger, step_len = controller.rb.boundary_trigger, controller.step_len

    def around(v):
        return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))

    (cx, cy), clear = arena.center, 0
    for x in (*around(xlo), cx, *around(xhi)):
        for y in (*around(ylo), cy, *around(yhi)):
            if not (xlo < x < xhi and ylo < y < yhi):
                continue
            clear += 1
            for k in range(8):
                h = k * math.pi / 4.0
                nx, ny = x + step_len * math.cos(h), y + step_len * math.sin(h)
                for dist_now, dist_next in zip(edge_distances(x, y, arena), edge_distances(nx, ny, arena)):
                    assert not (dist_now <= trigger or dist_next < 0.0), (x, y, h)
    assert clear == 9  # one ulp inside each edge, and the centre, on both axes


def grid_line_scene(arena):
    """Starts and headings for agents on and just below grid lines, cruising along and across them.

    Every fourth interior line is used, the centre lines (x = 0 and y = 0
    on the default arena), and the maximum edges, where a move outward is
    clamped back onto the edge.
    """
    boxes = cell_boxes(arena)
    cols = arena.cols
    (minx, miny), (maxx, maxy) = arena.min_corner, arena.max_corner
    xe = [boxes[c][0] for c in range(cols)] + [maxx]
    ye = [boxes[r * cols][2] for r in range(cols)] + [maxy]
    lines = sorted(set(range(1, cols, 4)) | {cols // 2, cols})
    mid_x = xe[cols // 2 + 1] + 0.3 * arena.cell_size
    mid_y = ye[cols // 2 + 1] + 0.3 * arena.cell_size
    east, north, west, south = 0.0, math.pi / 2.0, math.pi, 1.5 * math.pi
    starts, headings = [], []
    for k in lines:
        for x in (xe[k], math.nextafter(xe[k], -math.inf)):
            for heading in (north, east, west):  # along the column line, across it both ways
                starts.append((x, mid_y))
                headings.append(heading)
        for y in (ye[k], math.nextafter(ye[k], -math.inf)):
            for heading in (east, north, south):
                starts.append((mid_x, y))
                headings.append(heading)
    return starts, headings


def cruise_script(n, steps):
    """A hold first, so the start cell is scored, then mostly full-speed straight
    moves, with a slower stretch, more holds, and a turn out and back."""
    script = []
    for step in range(steps):
        if step % 9 == 0:
            command = Unicycle(0.0, 0.0)
        elif step % 9 in (6, 7):
            command = Unicycle(0.6, 0.0)
        elif step % 13 == 10:
            command = Unicycle(1.0, 0.5)
        elif step % 13 == 11:
            command = Unicycle(1.0, -0.5)
        else:
            command = Unicycle(1.0, 0.0)
        script.append([command] * n)
    return script


class TestCellSkip:
    """World.step stores a position inside its cell's box without mapping it, and reuses a cruise step."""

    @pytest.mark.parametrize(
        "arena",
        [ARENA, *SIZED_ARENAS[1:], OFF_CENTRE_HALF_METRE],
        ids=["default", "cell0.1", "cell0.2", "off_centre"],
    )
    def test_grid_line_cruises_match_the_oracles(self, arena):
        starts, headings = grid_line_scene(arena)
        assert_swarm_matches_oracles(arena, starts, headings, cruise_script(len(starts), 40))

    def test_signed_zero_headings_match_the_oracles(self):
        # 0.0 == -0.0, but a step along -0.0 moves y = -0.0 by -0.0 and keeps
        # its sign: a step vector cached for one must not serve the other.
        # A rate of -2 pi / dt turns 0.0 to -2 pi, whose fmod is -0.0; wrap_angle stores 0.0.
        back = -TWO_PI / CFG.dt
        script = [
            [Unicycle(1.0, -0.0), Unicycle(1.0, 0.0)],
            [Unicycle(1.0, 0.0), Unicycle(1.0, -0.0)],
            [Unicycle(1.0, back), Unicycle(1.0, back)],
            [Unicycle(1.0, -0.0), Unicycle(1.0, 0.0)],
            [Unicycle(1.0, 0.0), Unicycle(1.0, -0.0)],
        ]
        assert_swarm_matches_oracles(ARENA, [(0.5, -0.0), (0.5, -0.0)], [-0.0, 0.0], script)

    def test_signed_zero_and_equal_headings_written_between_cruises_match_the_oracles(self):
        # World.step reuses a cruise step vector only for the very same heading and
        # speed objects. Written between cruise steps: 0.0, then -0.0 (0.0 == -0.0,
        # yet sin(-0.0) is -0.0), then a heading and, a step later, an equal but
        # distinct float. Each agent cruises at one rate, 0.0 or -0.0, on y = -0.0 until then.
        turned = 1.0
        twin = float.fromhex(turned.hex())
        assert twin == turned and twin is not turned
        script = [[Unicycle(1.0, 0.0), Unicycle(1.0, -0.0)]] * 9
        writes = [(step, i, h) for step, h in [(3, 0.0), (5, -0.0), (7, turned), (8, twin)] for i in (0, 1)]
        assert_swarm_matches_oracles(ARENA, [(0.5, -0.0), (3.5, -0.0)], [-0.0, -0.0], script, heading_writes=writes)

    def test_a_cruise_at_an_untouched_heading_takes_one_cosine(self, monkeypatch):
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def cos(self, x):
                calls.append(x)
                return math.cos(x)

        monkeypatch.setattr(world_module, "math", CountingMath())
        world = World(ARENA, CFG, [spawn((0.5, 0.5), 1.0)], ScriptedController([[Unicycle(1.0, 0.0)]] * 30))
        for _ in range(30):
            world.step()
        assert calls == [1.0]

    @pytest.mark.parametrize("written", [(19, 20), (20, 20), (21, 20), None], ids=str)
    def test_written_cell_is_scored_as_the_mapping_scores_it(self, written):
        # Tests write world.cells to set up sensing; the next step must score
        # against the written cell. Agent 0 maps to (20, 20) on step 1, is
        # written over, and stays in (20, 20) for three more steps, then
        # leaves east. Agent 1 flies north along the line between columns 20
        # and 21, in column 21, and is written over with its column's left
        # neighbour.
        line = cell_boxes(ARENA)[21][0]
        script = [[Unicycle(1.0, 0.0), Unicycle(1.0, 0.0)]] * 12
        writes = [(2, 0, flat_index(written, ARENA)), (2, 1, flat_index((20, 20), ARENA))]
        assert_swarm_matches_oracles(ARENA, [(0.45, 0.5), (line, 0.5)], [0.0, math.pi / 2.0], script, writes)

    @pytest.mark.parametrize("rate", [0.0, -0.0])
    def test_written_headings_cruise_as_the_oracles(self, rate):
        # At a zero rate World.step leaves a heading strictly inside (0, 2 pi)
        # as it is, since h + 0.0 * dt is h. Any other heading takes the sum
        # and the wrap: -0.0 and 0.0 become 0.0, 2 pi wraps to 0.0 and 7.0 to
        # 7.0 - 2 pi. Each is written before a cruise step, twice.
        written = [-0.0, 0.0, TWO_PI, 7.0, math.nextafter(TWO_PI, 0.0), 5e-324, 1.0]
        starts = [(-9.5 + 3.0 * k, 0.5) for k in range(len(written))]
        script = [[Unicycle(1.0, rate)] * len(written)] * 6
        writes = [(step, i, h) for step in (2, 4) for i, h in enumerate(written)]
        assert_swarm_matches_oracles(ARENA, starts, [1.0] * len(written), script, heading_writes=writes)


# Shared commands, so a script repeats the very same objects, as the controllers do.
STRAIGHTS = (Unicycle(1.0, 0.0), Unicycle(1.0, -0.0), Unicycle(0.6, 0.0))
TURN_MOVES = (Unicycle(1.0, 0.5), Unicycle(0.3, -2.0))
TURNS = (Unicycle(0.0, 0.7), Unicycle(0.0, -TWO_PI / CFG.dt))
HOLDS = (HOLD, Unicycle(0.0, -0.0))
WRITTEN_HEADINGS = st.one_of(
    st.sampled_from([0.0, -0.0, TWO_PI, 7.0, math.nextafter(TWO_PI, 0.0), 5e-324, 1.0]),
    st.floats(-10.0, 10.0),
)


@st.composite
def shared_command_script(draw):
    """Starts, headings, a script drawn from the shared commands, and heading writes.

    Each agent flies runs of one command object, so a repeated command meets
    the heading it left (a turn, or a hold at a heading outside (0, 2 pi),
    leaves a new one). Starts reach past the edges, so some moves are clamped
    and some held agents stay outside.
    """
    n = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 24))
    edge = st.sampled_from([-20.0, -19.95, 19.95, 20.0, 20.5])
    coordinate = st.one_of(st.floats(-21.0, 21.0), edge)
    starts = [(draw(coordinate), draw(coordinate)) for _ in range(n)]
    headings = [draw(WRITTEN_HEADINGS) for _ in range(n)]
    command = st.sampled_from(STRAIGHTS + TURN_MOVES + TURNS + HOLDS)
    columns = []
    for _ in range(n):
        column = []
        while len(column) < steps:
            column += [draw(command)] * draw(st.integers(1, 6))
        columns.append(column[:steps])
    script = [list(row) for row in zip(*columns)]
    writes = draw(st.lists(st.tuples(st.integers(1, steps), st.integers(0, n - 1), WRITTEN_HEADINGS), max_size=4))
    return starts, headings, script, writes


class TestCruiseReuse:
    """World.step adds a cached step vector for a straight command repeated at the very same heading object."""

    @settings(max_examples=200, deadline=None)
    @given(shared_command_script())
    def test_shared_commands_match_the_oracles(self, scene):
        starts, headings, script, writes = scene
        assert_swarm_matches_oracles(ARENA, starts, headings, script, heading_writes=writes)

    def test_pose_targets_between_repeated_straight_commands_match_the_oracles(self):
        # Each PoseTarget moves the swarm and gives it a new heading; the
        # straight command that follows must step along that heading, not
        # along the one its last use cached.
        offsets = ((0.0, 0.0), (0.5, -1.0), (-1.5, 2.0))
        straight = STRAIGHTS[0]
        script = [[straight] * 3, [straight] * 3]
        for k, heading in enumerate([1.0, 2.5, -0.0, 7.0, 1.0, 4.0]):
            script += [PoseTarget((0.3 * k, -0.2 * k), heading, offsets, True), [straight] * 3, [straight] * 3]
        starts = [(0.5, 0.5), (1.0, -0.5), (-1.0, 2.5)]
        assert_swarm_matches_oracles(ARENA, starts, [0.5] * 3, script)


FORMATION_ARENAS = [
    ArenaSpec(side_length=10.0, cell_size=c, region_size=10.0) for c in (1.0, 0.5, 0.1)
]


@st.composite
def formation_script(draw):
    """An arena, a formation's members and a few formation commands for it.

    One offset tuple is drawn for the whole script: each coordinate up to
    three cells on the grid, or free up to 1.5 m. Each command draws the
    brain's pose: the brain jumps to a grid line (some just off the grid)
    or a free point up to 2 m outside the arena, or it moves: a small step
    that can keep the speed gate open, or a snap to the nearest grid line.
    The heading is kept, nudged, or drawn afresh, reaching outside
    [0, 2 pi). Members spawn on the formation's first pose.
    """
    arena = draw(st.sampled_from(FORMATION_ARENAS))
    minx = arena.min_corner[0]
    cs = arena.cell_size
    jump = st.one_of(
        st.integers(-2, arena.cols + 2).map(lambda k: minx + k * cs),
        st.floats(minx - 2.0, -minx + 2.0),
    )

    def move(prev):
        return draw(
            st.one_of(
                st.floats(-0.07, 0.07).map(lambda d: prev + d),
                st.just(minx + round((prev - minx) / cs) * cs),
            )
        )

    def turn(prev):
        return draw(
            st.one_of(
                st.just(prev),
                st.floats(-0.01, 0.01).map(lambda d: prev + d),
                st.floats(-20.0, 20.0),
                st.sampled_from([-TWO_PI, TWO_PI, 3 * TWO_PI]),
            )
        )

    n = draw(st.integers(1, 5))
    offset = st.one_of(st.integers(-3, 3).map(lambda k: k * cs), st.floats(-1.5, 1.5))
    offsets = tuple((draw(offset), draw(offset)) for _ in range(n))
    position = (draw(jump), draw(jump))
    heading = turn(0.0)
    formation = SonsFormation(offsets=offsets, sampler_ids=(), span=0.0)
    starts = follow_formation(position, heading, formation)
    # three in four members sample, and three in four commands keep sampling on
    altitudes = [
        draw(st.sampled_from([CFG.sampling_altitude] * 3 + [CFG.supervisory_altitude]))
        for _ in range(n)
    ]
    commands = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = position
        position = (move(x), move(y)) if draw(st.integers(0, 3)) else (draw(jump), draw(jump))
        heading = turn(heading)
        commands.append(PoseTarget(position, heading, offsets, draw(st.integers(0, 3)) > 0))
    return arena, starts, altitudes, commands


def member_views(world):
    """Each member's position, heading and cell, from World's lists."""
    return [
        (x.hex(), y.hex(), h.hex(), cell)
        for x, y, h, cell in zip(world.xs, world.ys, world.hs, world.cells)
    ]


def reference_views(agents):
    return [
        (a.position[0].hex(), a.position[1].hex(), a.heading.hex(), a.prev_cell) for a in agents
    ]


class TestFormationStepEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(formation_script())
    def test_formation_command_matches_per_member_reference(self, script):
        # World.step takes one PoseTarget for the whole formation; the
        # reference places and scores one member at a time
        assert_formation_matches_reference(*script)

    def test_signed_zero_headings_and_new_offsets_match_the_reference(self):
        # World.step reuses a formation's rotated offsets while the heading
        # compares equal and the offsets are the same tuple. 0.0 == -0.0, yet
        # their sines differ and so does the sign of y here: a zero heading
        # is rotated afresh, and so is a new offsets tuple at the same heading.
        first = ((0.0, -0.0), (0.0, 1.0), (-0.5, -1.5))
        second = ((0.25, -0.0), (0.0, 2.0), (-0.5, -1.0))
        origin = (-0.0, -0.0)
        commands = [
            PoseTarget(origin, 0.0, first, True),
            PoseTarget(origin, -0.0, first, True),
            PoseTarget(origin, 0.0, first, True),
            PoseTarget(origin, 1.0, first, True),
            PoseTarget(origin, 1.0, second, True),
            PoseTarget((0.5, 0.5), 1.0, second, True),
            PoseTarget((0.5, 0.5), -0.0, second, True),
            PoseTarget((0.5, 0.5), -0.0, first, True),
        ]
        starts = follow_formation((1.0, 1.0), 2.0, SonsFormation(offsets=first, sampler_ids=(), span=0.0))
        assert_formation_matches_reference(FORMATION_ARENAS[0], starts, [CFG.sampling_altitude] * 3, commands)


    def test_reused_unwrapped_headings_are_wrapped_on_every_step(self):
        # World.step wraps a PoseTarget's heading only when it rotates the offsets
        # afresh, and hands out the stored value while the heading object returns;
        # -0.0 is stored as 0.0, as the unicycle branch stores it
        offsets = ((0.0, 0.0), (0.0, 1.0), (-0.5, -1.5))
        seven, lap, negative_zero = float("7.0"), TWO_PI, -0.0
        headings = [seven, seven, lap, lap, seven, negative_zero, negative_zero, 0.0, lap, float("7.0")]
        commands = [PoseTarget((0.05 * k, 1.0), h, offsets, True) for k, h in enumerate(headings)]
        starts = follow_formation((0.0, 1.0), 7.0, SonsFormation(offsets=offsets, sampler_ids=(), span=0.0))
        spawns = [AgentState(id=i, position=p, heading=0.0, altitude=CFG.sampling_altitude) for i, p in enumerate(starts)]
        world = World(FORMATION_ARENAS[0], CFG, spawns, ScriptedController(commands))
        for command in commands:
            world.step()
            assert [h.hex() for h in world.hs] == [(wrap_angle(command.heading) + 0.0).hex()] * len(offsets)
        assert_formation_matches_reference(FORMATION_ARENAS[0], starts, [CFG.sampling_altitude] * 3, commands)


def assert_formation_matches_reference(arena, starts, altitudes, commands):
    """Step a formation through commands in World and in pose_step_reference; compare by float.hex."""
    spawns = [
        AgentState(id=i, position=p, heading=0.0, altitude=alt)
        for i, (p, alt) in enumerate(zip(starts, altitudes))
    ]
    world = World(arena, CFG, spawns, ScriptedController(commands))
    manual = [
        RefAgent(id=i, position=p, heading=0.0, altitude=alt)
        for i, (p, alt) in enumerate(zip(starts, altitudes))
    ]
    coverage = RefCoverage(arena)
    for command in commands:
        world.step()
        events = pose_step_reference(manual, coverage, CFG, command)
        assert member_views(world) == reference_views(manual)
        assert world.visit_events == [(i, flat_index(cell, arena)) for i, cell in events]
        assert world.visits == coverage.visits


class TestWholeRuns:
    @settings(max_examples=40, deadline=None)
    @given(
        strategy=st.sampled_from(["rb", "ldr_random", "ldr_repulsive", "pm"]),
        side=st.sampled_from([20.0, 30.0, 40.0, 50.0]),
        n_uavs=st.integers(1, 25),
        dt=st.sampled_from([0.05, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agents_stay_in_the_arena_and_cells_match_positions(
        self, strategy, side, n_uavs, dt, seed
    ):
        from sweepsim import ExperimentConfig, build_world

        arena = ArenaSpec(side_length=side)
        cfg = ExperimentConfig(
            strategy=strategy, runs=1, arena=arena, n_uavs=n_uavs, sim=SimConfig(dt=dt, max_steps=150)
        )
        world = build_world(cfg, seed)
        record = world.run()
        (minx, miny), (maxx, maxy) = arena.min_corner, arena.max_corner
        for x, y, cell in zip(world.xs, world.ys, world.cells):
            assert minx <= x <= maxx and miny <= y <= maxy
            assert cell == flat_index(cell_of((x, y), arena), arena)
        assert world.clamp_count == 0
        assert world.visited_count == sum(1 for count in world.visits if count)
        assert (np.diff(record.coverage_fraction) >= 0.0).all()


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = agent_stream(42, 3)
        b = agent_stream(42, 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_differ_by_agent(self):
        a = agent_stream(42, 0)
        b = agent_stream(42, 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_adding_agents_does_not_perturb_existing(self):
        first = [agent_stream(9, i).random() for i in range(3)]
        again = [agent_stream(9, i).random() for i in range(5)][:3]
        assert first == again

    def test_harness_stream_disjoint_from_agents(self):
        h = harness_stream(11)
        a = agent_stream(11, 0)
        assert [h.random() for _ in range(3)] != [a.random() for _ in range(3)]


class TestDeterminism:
    def test_identical_configs_bit_identical_records(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=800))
        rec1 = build_world(cfg, seed=3).run()
        rec2 = build_world(cfg, seed=3).run()
        assert rec1.cct == rec2.cct
        assert np.array_equal(rec1.coverage_fraction, rec2.coverage_fraction)
        assert np.array_equal(rec1.final_visits, rec2.final_visits)

    def test_different_seeds_differ(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=400))
        rec1 = build_world(cfg, seed=3).run()
        rec2 = build_world(cfg, seed=4).run()
        assert not np.array_equal(rec1.final_visits, rec2.final_visits)
