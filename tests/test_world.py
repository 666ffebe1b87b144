"""Grid, kinematics, sensing, and step-loop semantics."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RefAgent,
    boundary_probe,
    cell_of,
    clamp_into,
    edges_within,
    flat_index,
    neighbors_within,
    pose_step_reference,
    record_visit,
    step_kinematics,
)
from sweepsim.angles import TWO_PI
from sweepsim.arena import ArenaSpec, CoverageGrid, edges_outside
from sweepsim.world import (
    HOLD,
    SPEED_EPS,
    AgentState,
    PoseTarget,
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

    @pytest.mark.parametrize("length", ["side_length", "cell_size", "region_size"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_lengths_rejected(self, length, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ArenaSpec(**{length: value})


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


class TestBoundaryProbe:
    def test_near_east_edge(self):
        probe = boundary_probe((19.96, 0.0), ARENA)
        assert probe.distance == pytest.approx(0.04)
        assert probe.inward_normal == (-1.0, 0.0)
        assert probe.outside_depth == 0.0

    def test_center(self):
        probe = boundary_probe((0.0, 0.0), ARENA)
        assert probe.distance == pytest.approx(20.0)
        assert probe.outside_depth == 0.0

    def test_outside_east(self):
        probe = boundary_probe((20.5, 0.0), ARENA)
        assert probe.outside_depth == pytest.approx(0.5)
        assert probe.inward_normal == (-1.0, 0.0)

    def test_outside_corner_depth_is_euclidean(self):
        probe = boundary_probe((21.0, -21.0), ARENA)
        assert probe.outside_depth == pytest.approx(math.sqrt(2.0))

    def test_edges_within(self):
        normals = edges_within((19.97, -19.98), ARENA, trigger=0.05)
        assert set(normals) == {(-1.0, 0.0), (0.0, 1.0)}

    def test_edges_outside(self):
        out = dict(edges_outside((20.3, 0.0), ARENA))
        assert out == {(-1.0, 0.0): pytest.approx(0.3)}

    def test_clamp_into(self):
        assert clamp_into((25.0, -3.0), ARENA) == (20.0, -3.0)
        assert clamp_into((1.0, 2.0), ARENA) == (1.0, 2.0)


class TestRecordVisit:
    def test_sampling_agent_credits_cell(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5))
        assert record_visit(agent, grid, CFG) == (20, 20)
        assert grid.visited_count == 1

    def test_supervisor_altitude_never_credits(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5), altitude=4.0)
        assert record_visit(agent, grid, CFG) is None
        assert grid.visited_count == 0

    def test_overspeed_never_credits(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5), speed=1.2)
        assert record_visit(agent, grid, CFG) is None

    def test_speed_epsilon_guard(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5), speed=1.0 + SPEED_EPS / 2)
        assert record_visit(agent, grid, CFG) is not None

    def test_sampling_inactive_never_credits(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5), sampling=False)
        assert record_visit(agent, grid, CFG) is None

    def test_outside_never_credits(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((30.0, 0.5))
        assert record_visit(agent, grid, CFG) is None

    def test_no_recredit_without_entry(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5))
        assert record_visit(agent, grid, CFG) is not None
        # same cell next step: no new credit
        assert record_visit(agent, grid, CFG) is None
        assert grid.visits[flat_index((20, 20), ARENA)] == 1

    def test_reentry_credits_again(self):
        grid = CoverageGrid(ARENA)
        agent = make_agent((0.5, 0.5))
        record_visit(agent, grid, CFG)
        agent.position = (1.5, 0.5)
        record_visit(agent, grid, CFG)
        agent.position = (0.5, 0.5)
        record_visit(agent, grid, CFG)
        assert grid.visits[flat_index((20, 20), ARENA)] == 2


class TestNeighbors:
    def test_within_range(self):
        agents = [make_agent((0.0, 0.0), agent_id=0), make_agent((9.9, 0.0), agent_id=1)]
        assert neighbors_within(agents, 0, 10.0, CFG) == [(1, (9.9, 0.0))]

    def test_outside_range(self):
        agents = [make_agent((0.0, 0.0), agent_id=0), make_agent((10.1, 0.0), agent_id=1)]
        assert neighbors_within(agents, 0, 10.0, CFG) == []

    def test_cross_altitude_invisible(self):
        agents = [
            make_agent((0.0, 0.0), agent_id=0),
            make_agent((1.0, 0.0), altitude=4.0, agent_id=1),
        ]
        assert neighbors_within(agents, 0, 10.0, CFG) == []

    def test_range_capped(self):
        agents = [make_agent((0.0, 0.0), agent_id=0)]
        with pytest.raises(ValueError):
            neighbors_within(agents, 0, 11.0, CFG)

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), min_size=2, max_size=6))
    def test_symmetry(self, positions):
        agents = [make_agent(p, agent_id=i) for i, p in enumerate(positions)]
        for a in agents:
            for b in agents:
                if a.id == b.id:
                    continue
                sees = any(nid == b.id for nid, _ in neighbors_within(agents, a.id, 10.0, CFG))
                seen = any(nid == a.id for nid, _ in neighbors_within(agents, b.id, 10.0, CFG))
                assert sees == seen


class TestStepLoop:
    def test_empty_world_advances_clock(self):
        world = World(ARENA, CFG, [], ScriptedController([[]]))
        world.step()
        assert world.step_count == 1
        assert world.grid.visited_count == 0

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
        assert world.grid.visited_count == 0
        assert world.visit_events == []

    @pytest.mark.parametrize("n_moves", [1, 3])
    def test_wrong_number_of_moves_raises(self, n_moves):
        agents = [spawn((0.5, 0.5), agent_id=i) for i in range(2)]
        world = World(ARENA, CFG, agents, ScriptedController([[Unicycle(1.0, 0.0)] * n_moves]))
        with pytest.raises(ValueError, match=f"commanded {n_moves} moves for 2 agents"):
            world.step()
        self.assert_untouched(world)

    @pytest.mark.parametrize("n_positions", [1, 3])
    def test_wrong_number_of_positions_raises(self, n_positions):
        agents = [spawn((0.5, 0.5), agent_id=i) for i in range(2)]
        command = PoseTarget([(0.5, 0.6)] * n_positions, 0.0, True)
        world = World(ARENA, CFG, agents, ScriptedController([command]))
        with pytest.raises(ValueError, match=f"commanded {n_positions} moves for 2 agents"):
            world.step()
        self.assert_untouched(world)

    @pytest.mark.parametrize("ids", [[0, 0], [1, 2], [0, 2], [1]], ids=str)
    def test_spawn_ids_must_be_the_list_indices(self, ids):
        # A list index is the agent id that visit_events and reactions report.
        agents = [spawn((0.5, 0.5), agent_id=i) for i in ids]
        with pytest.raises(ValueError, match="agent ids must be 0"):
            World(ARENA, CFG, agents, ScriptedController([]))

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

    def test_two_agents_same_new_cell(self):
        a = make_agent((0.4, 0.5), agent_id=0)
        b = make_agent((0.6, 0.5), agent_id=1)
        grid = CoverageGrid(ARENA)
        for agent in (a, b):
            cell = record_visit(agent, grid, CFG)
            assert cell == (20, 20)
        assert grid.visits[flat_index((20, 20), ARENA)] == 2
        assert grid.visited_count == 1

    def test_visit_counts_monotonic(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=300))
        world = build_world(cfg, seed=5)
        prev = np.zeros(ARENA.cell_count, dtype=np.int64)
        prev_count = 0
        for _ in range(300):
            world.step()
            counts = world.grid.counts_array()
            assert (counts >= prev).all()
            assert world.grid.visited_count >= prev_count
            prev, prev_count = counts, world.grid.visited_count

    def test_visited_count_cache_consistent(self):
        from sweepsim import ExperimentConfig, build_world

        cfg = ExperimentConfig(strategy="rb", runs=1, sim=SimConfig(max_steps=200))
        world = build_world(cfg, seed=7)
        for _ in range(200):
            world.step()
        counts = world.grid.counts_array()
        assert world.grid.visited_count == int((counts >= 1).sum())


class ScriptedController:
    """Replays a fixed list of per-step move lists."""

    name = "scripted"
    pheromone = None

    def __init__(self, steps):
        self.steps = list(steps)
        self.cursor = 0

    def decide(self, world):
        moves = self.steps[self.cursor]
        self.cursor += 1
        return moves


def assert_step_matches_oracles(arena, start, heading, commands):
    """Run commands through World.step and through the oracles; compare.

    World.step clamps every unicycle move, so the oracle path applies
    clamp_into after each command with a non-zero linear speed.
    """
    world = World(arena, CFG, [spawn(start, heading)], ScriptedController([[c] for c in commands]))
    manual = RefAgent(id=0, position=start, heading=heading, altitude=1.5)
    grid = CoverageGrid(arena)
    clamps = 0
    for command in commands:
        world.step()
        step_kinematics(manual, command, CFG.dt)
        if command.linear_speed != 0.0:
            clamped = clamp_into(manual.position, arena)
            clamps += clamped != manual.position
            manual.position = clamped
        cell = record_visit(manual, grid, CFG)
        where = (arena.cell_size, start, world.step_count)
        # pm_sense reads the world's cells, so they must be the oracle's cells too
        assert world.cells[0] == manual.prev_cell, where
        (x, y), h = pose(world, 0)
        assert (x, y) == manual.position, where
        assert h.hex() == manual.heading.hex(), where
        assert world.visit_events == ([] if cell is None else [(0, flat_index(cell, arena))]), where
        assert world.grid.visits == grid.visits, where
        assert world.clamp_count == clamps, where
    assert world.grid.visited_count == grid.visited_count


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


FORMATION_ARENAS = [
    ArenaSpec(side_length=10.0, cell_size=c, region_size=10.0) for c in (1.0, 0.5, 0.1)
]


@st.composite
def formation_script(draw):
    """An arena, a formation's members and a few formation commands for it.

    Members jump to grid lines (some just off the grid) or to free points up
    to 2 m outside the arena, or they move: a small step that keeps the
    speed gate open, or a snap to the nearest grid line. Headings reach
    outside [0, 2 pi).
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

    n = draw(st.integers(1, 5))
    starts = [(draw(jump), draw(jump)) for _ in range(n)]
    # three in four members sample, and three in four commands keep sampling on
    altitudes = [
        draw(st.sampled_from([CFG.sampling_altitude] * 3 + [CFG.supervisory_altitude]))
        for _ in range(n)
    ]
    commands = []
    positions = starts
    for _ in range(draw(st.integers(1, 6))):
        positions = [
            (move(x), move(y)) if draw(st.integers(0, 3)) else (draw(jump), draw(jump))
            for x, y in positions
        ]
        heading = draw(
            st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-TWO_PI, TWO_PI, 3 * TWO_PI]))
        )
        commands.append(PoseTarget(positions, heading, draw(st.integers(0, 3)) > 0))
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
        arena, starts, altitudes, commands = script

        spawns = [
            AgentState(id=i, position=p, heading=0.0, altitude=alt)
            for i, (p, alt) in enumerate(zip(starts, altitudes))
        ]
        world = World(arena, CFG, spawns, ScriptedController(commands))
        manual = [
            RefAgent(id=i, position=p, heading=0.0, altitude=alt)
            for i, (p, alt) in enumerate(zip(starts, altitudes))
        ]
        grid = CoverageGrid(arena)
        for command in commands:
            world.step()
            events = pose_step_reference(manual, grid, CFG, command)
            assert member_views(world) == reference_views(manual)
            assert world.visit_events == [(i, flat_index(cell, arena)) for i, cell in events]
            assert world.grid.visits == grid.visits


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
        assert world.grid.visited_count == sum(1 for count in world.grid.visits if count)
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
