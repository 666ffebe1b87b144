"""Line formation, the sweep brain, and the random-walk brain."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import cw_distance, heading_vector
from sweepsim.angles import ccw_distance
from sweepsim.arena import ArenaSpec
from sweepsim.harness import ExperimentConfig, build_world
from sweepsim.metrics import lcu, tcu
from sweepsim.sons import (
    SonsRwController,
    build_line_formation,
    follow_formation,
    make_sons_controller,
    max_formation_omega,
)
from sweepsim.world import SPEED_EPS, SimConfig, agent_stream

ARENA = ArenaSpec()
OFF_CENTRE = ArenaSpec(side_length=20.0, center=(7.0, -3.0), region_size=10.0)
CFG = SimConfig()


class TestFormation:
    def test_default_roster(self):
        f = build_line_formation(5, 20)
        assert f.offsets[0] == (0.0, 0.0)  # the brain
        assert len(f.offsets) == 25
        assert f.sampler_ids == tuple(range(5, 25))
        assert f.span == pytest.approx(19.0)

    def test_sampler_chain_collinear_with_unit_spacing(self):
        f = build_line_formation(5, 20)
        offsets = [f.offsets[s] for s in f.sampler_ids]
        assert all(ox == 0.0 for ox, _ in offsets)
        laterals = [oy for _, oy in offsets]
        gaps = np.diff(sorted(laterals))
        assert np.allclose(gaps, 1.0)

    def test_two_samplers_spacing_two(self):
        f = build_line_formation(1, 2, sampler_spacing=2.0)
        assert f.span == pytest.approx(2.0)
        laterals = sorted(f.offsets[s][1] for s in f.sampler_ids)
        assert laterals == [pytest.approx(-1.0), pytest.approx(1.0)]

    def test_supervisors_evenly_spaced_over_the_line(self):
        f = build_line_formation(5, 20)
        supervisors = f.offsets[1:5]
        assert all(ox == 0.0 for ox, _ in supervisors)
        laterals = [oy for _, oy in supervisors]
        assert laterals == [pytest.approx(-9.5 + k * 19.0 / 5) for k in range(1, 5)]


class TestFollowFormation:
    def test_rigid_translation_keeps_speeds_equal(self):
        f = build_line_formation(5, 20)
        a = follow_formation((0.0, 0.0), math.pi / 2, f)
        b = follow_formation((0.0, 0.1), math.pi / 2, f)
        for member in range(len(f.offsets)):
            dx = b[member][0] - a[member][0]
            dy = b[member][1] - a[member][1]
            assert math.hypot(dx, dy) == pytest.approx(0.1)

    def test_rotation_speed_scales_with_radius(self):
        f = build_line_formation(5, 20)
        omega = 0.1
        a = follow_formation((0.0, 0.0), 0.0, f)
        b = follow_formation((0.0, 0.0), omega * 1.0, f)
        for member in range(len(f.offsets)):
            radius = math.hypot(*f.offsets[member])
            chord = math.hypot(b[member][0] - a[member][0], b[member][1] - a[member][1])
            assert chord == pytest.approx(2 * radius * math.sin(omega / 2), abs=1e-12)
            assert chord <= omega * radius + 1e-12

    def test_pairwise_distances_invariant(self):
        f = build_line_formation(5, 20)
        base = follow_formation((3.0, -7.0), 0.3, f)
        moved = follow_formation((-11.0, 5.0), 4.1, f)
        for i, j in itertools.combinations(range(len(f.offsets)), 2):
            d0 = math.dist(base[i], base[j])
            d1 = math.dist(moved[i], moved[j])
            assert abs(d0 - d1) <= 1e-9


class TestMaxFormationOmega:
    def test_twenty_sampler_line(self):
        f = build_line_formation(5, 20)
        assert max_formation_omega(f, 1.0) == pytest.approx(1.0 / 9.5)

    def test_unit_radius(self):
        f = build_line_formation(1, 2)  # samplers at +-0.5
        assert max_formation_omega(f, 1.0) == pytest.approx(2.0)

    def test_linear_in_speed(self):
        f = build_line_formation(5, 20)
        assert max_formation_omega(f, 2.0) == pytest.approx(2 * max_formation_omega(f, 1.0))

    def test_zero_offsets_unbounded(self):
        f = build_line_formation(1, 1)
        assert max_formation_omega(f, 1.0) == math.inf


class TestSpawn:
    def test_bs_start_pose(self):
        agents, controller = make_sons_controller("sons_bs", ARENA, CFG, 5, 20)
        formation = controller.formation
        assert controller.brain_pos == (pytest.approx(10.0), pytest.approx(-19.5))
        assert controller.brain_heading == pytest.approx(math.pi / 2)
        assert agents[0].position == controller.brain_pos
        xs = sorted(a.position[0] for a in agents if a.id in formation.sampler_ids)
        assert xs[0] == pytest.approx(0.5)
        assert xs[-1] == pytest.approx(19.5)
        assert all(
            a.position[1] == pytest.approx(-19.5)
            for a in agents
            if a.id in formation.sampler_ids
        )

    def test_bs_altitudes_by_role(self):
        agents, controller = make_sons_controller("sons_bs", ARENA, CFG, 5, 20)
        assert [a.id for a in agents] == list(range(25))
        for agent in agents:
            if agent.id in controller.formation.sampler_ids:
                assert agent.altitude == CFG.sampling_altitude
            else:
                assert agent.altitude == CFG.supervisory_altitude

    def test_rw_starts_on_corner_facing_interior(self):
        for seed in range(8):
            agents, controller = make_sons_controller("sons_rw", ARENA, replace(CFG, seed=seed), 5, 20)
            assert controller.brain_pos == (pytest.approx(20.0), pytest.approx(-20.0))
            assert math.pi / 2 < controller.brain_heading < math.pi
            assert all(a.heading == controller.brain_heading for a in agents)

    def test_rw_start_heading_is_the_first_brain_draw(self):
        _, controller = make_sons_controller("sons_rw", ARENA, replace(CFG, seed=5), 5, 20)
        u = agent_stream(5, 0).uniform(0.0, math.pi / 2)
        assert controller.brain_heading == math.pi / 2 + u

    def test_oversized_formation_rejected(self):
        with pytest.raises(ValueError):
            make_sons_controller("sons_bs", ArenaSpec(side_length=10.0, region_size=10.0), CFG, 5, 20)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown formation strategy"):
            make_sons_controller("sons_xy", ARENA, CFG, 5, 20)


def run_sons(strategy, seed, arena=None, on_step=None, max_steps=60_000):
    config = ExperimentConfig(
        strategy=strategy,
        runs=1,
        arena=arena or ARENA,
        sim=SimConfig(max_steps=max_steps),
    )
    world = build_world(config, seed=seed)
    record = world.run(on_step=on_step)
    return world, record


def record_phase(phases):
    """World.run callback appending the brain's phase at the end of each step."""
    return lambda world: phases.append(world.controller.phase)


class TestBoustrophedon:
    def test_default_arena_every_cell_exactly_once(self):
        _, record = run_sons("sons_bs", seed=1)
        assert record.complete
        assert record.final_visits.min() == 1
        assert record.final_visits.max() == 1
        assert tcu(record) == 0.0
        assert lcu(record, ARENA) == 0.0

    def test_cct_identical_across_seeds(self):
        ccts = {run_sons("sons_bs", seed=s)[1].cct for s in (1, 7, 1234)}
        assert len(ccts) == 1

    def test_small_arena_single_strip(self):
        # 20 m arena with the 19 m line: one strip covers everything in one pass
        arena = ArenaSpec(side_length=20.0, region_size=10.0)
        phases = []
        _, record = run_sons("sons_bs", seed=2, arena=arena, on_step=record_phase(phases))
        assert record.complete
        counts = record.final_visits
        assert counts.min() == 1 and counts.max() == 1
        assert phases and "shift" not in phases

    def test_phase_cycle_order(self):
        phases = []
        run_sons("sons_bs", seed=1, on_step=record_phase(phases))
        # phases at step ends, repeats collapsed: sweep -> exit_boundary -> shift,
        # then sweep again; the reversing turn takes no step, so it never shows
        cycle = [phase for i, phase in enumerate(phases) if i == 0 or phase != phases[i - 1]]
        assert len(cycle) > 3
        for i, phase in enumerate(cycle):
            assert phase == ("sweep", "exit_boundary", "shift")[i % 3]

    def test_brain_never_samples(self):
        world, record = run_sons("sons_bs", seed=1)
        # every visit event belongs to a sampler
        assert record.final_visits.sum() == ARENA.cell_count
        assert world.agents[0].altitude == CFG.supervisory_altitude


class AuditRW:
    """Per-step invariant monitor for a random-walk run."""

    def __init__(self, world):
        self.world = world
        self.controller = world.controller
        self.formation = world.controller.formation
        self.base = None
        self.max_rigidity_error = 0.0
        self.max_align_speed = 0.0
        self.prepare_visits = 0
        self.phases_seen = set()
        self.max_member_excess = 0.0
        self.max_brain_depth = 0.0
        self.before = list(zip(world.xs, world.ys))
        # The sampling state of the last formation command.
        self.sampling = None
        decide = self.controller.decide

        def recorded(w):
            command = decide(w)
            self.sampling = command.sampling_active
            return command

        self.controller.decide = recorded

    def __call__(self, world):
        phase = self.controller.phase
        self.phases_seen.add(phase)
        positions = list(zip(world.xs, world.ys))
        before, self.before = self.before, positions
        pairs = list(itertools.combinations(range(len(positions)), 2))
        dists = {(i, j): math.dist(positions[i], positions[j]) for i, j in pairs}
        if self.base is None:
            self.base = dists
        else:
            for key, d in dists.items():
                self.max_rigidity_error = max(self.max_rigidity_error, abs(d - self.base[key]))
        if phase == "align":
            # each sampler's speed as World.step gates it: the distance jumped over dt
            for i in self.formation.sampler_ids:
                (x, y), (px, py) = positions[i], before[i]
                speed = math.hypot(x - px, y - py) / world.cfg.dt
                self.max_align_speed = max(self.max_align_speed, speed)
        if phase == "prepare":
            self.prepare_visits += len(world.visit_events)
        cx, cy = world.arena.center
        half = world.arena.half_side

        def depth(x, y):
            return math.hypot(max(0.0, abs(x - cx) - half), max(0.0, abs(y - cy) - half))

        self.max_brain_depth = max(self.max_brain_depth, depth(*positions[0]))
        for x, y in positions:
            self.max_member_excess = max(self.max_member_excess, depth(x, y))


def audit_rw(seed, arena=ARENA):
    config = ExperimentConfig(strategy="sons_rw", runs=1, arena=arena, sim=SimConfig())
    world = build_world(config, seed=seed)
    audit = AuditRW(world)
    record = world.run(on_step=audit)
    return world, record, audit


@pytest.fixture(scope="module")
def audited_run():
    return audit_rw(seed=3)


class TestRandomWalk:
    def test_completes(self, audited_run):
        _, record, _ = audited_run
        assert record.complete

    def test_rigidity_within_tolerance(self, audited_run):
        _, _, audit = audited_run
        assert audit.max_rigidity_error <= 1e-9

    def test_align_speeds_capped(self, audited_run):
        _, _, audit = audited_run
        assert "align" in audit.phases_seen
        assert audit.max_align_speed <= 1.0 + SPEED_EPS

    def test_no_visits_during_prepare(self, audited_run):
        _, _, audit = audited_run
        assert "prepare" in audit.phases_seen
        assert audit.prepare_visits == 0

    def test_brain_depth_bounded(self, audited_run):
        world, _, audit = audited_run
        step_travel = world.cfg.target_sampling_velocity * world.cfg.dt
        assert audit.max_brain_depth <= SonsRwController.crossing_depth + step_travel + 1e-9

    def test_member_excursion_bounded(self, audited_run):
        world, _, audit = audited_run
        half_span = world.controller.formation.span / 2.0
        assert audit.max_member_excess <= audit.max_brain_depth + half_span + 1e-9

    def test_theta_rand_interior_and_outside_exclusion(self, audited_run):
        world, _, _ = audited_run
        events = world.controller.events
        assert events
        for event in events:
            dx, dy = heading_vector(event.theta_rand)
            if not event.exclusion_dropped:
                for nx, ny in event.normals:
                    assert dx * nx + dy * ny > 0.0
                reciprocal = event.entry_heading + math.pi
                gap = min(
                    ccw_distance(reciprocal, event.theta_rand),
                    cw_distance(reciprocal, event.theta_rand),
                )
                assert gap >= math.radians(30.0) - 1e-9

    def test_d_rand_is_shortest_rotation(self, audited_run):
        world, _, _ = audited_run
        for event in world.controller.events:
            ccw = ccw_distance(event.entry_heading, event.theta_rand)
            expected = 1.0 if ccw <= math.pi else -1.0
            assert event.d_rand == expected

    def test_alignment_only_when_directions_agree(self, audited_run):
        world, _, _ = audited_run
        for event in world.controller.events:
            assert event.aligned == (event.d_rand == event.d_adjust)

    def test_sampling_resumes_after_prepare(self, audited_run):
        world, _, audit = audited_run
        assert world.controller.phase in ("cruise", "align", "prepare")
        assert audit.sampling or not world.is_complete()


class TestOffCentreArena:
    """The brains read the arena's centre, not the origin."""

    def test_sons_bs_every_cell_exactly_once(self):
        _, record = run_sons("sons_bs", seed=1, arena=OFF_CENTRE)
        assert record.complete
        assert record.final_visits.min() == 1
        assert record.final_visits.max() == 1

    def test_sons_rw_starts_on_the_southeastern_corner(self):
        _, controller = make_sons_controller("sons_rw", OFF_CENTRE, CFG, 5, 20)
        assert controller.brain_pos == (OFF_CENTRE.max_corner[0], OFF_CENTRE.min_corner[1])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sons_rw_completes_with_brain_depth_bounded(self, seed):
        world, record, audit = audit_rw(seed, arena=OFF_CENTRE)
        assert record.complete
        step_travel = world.cfg.target_sampling_velocity * world.cfg.dt
        assert audit.max_brain_depth <= SonsRwController.crossing_depth + step_travel + 1e-9
