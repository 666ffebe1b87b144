"""Line formation, the sweep brain, and the random-walk brain."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import audit_rw, crossing_target_ok
from sweepsim import sons as sons_module
from sweepsim import world as world_module
from sweepsim.angles import ccw_distance, wrap_angle
from sweepsim.arena import ArenaSpec, edges_outside
from sweepsim.harness import ExperimentConfig, build_world
from sweepsim.metrics import lcu, tcu
from sweepsim.sons import (
    SonsRwController,
    SweepGeometryError,
    build_line_formation,
    follow_formation,
    make_sons_controller,
    max_formation_omega,
)
from sweepsim.world import SPEED_EPS, SimConfig, World, agent_stream

ARENA = ArenaSpec()
OFF_CENTRE = ArenaSpec(side_length=20.0, center=(7.0, -3.0), region_size=10.0)
CFG = SimConfig()


class TestFormation:
    def test_default_roster(self):
        f = build_line_formation(25)
        assert f.offsets[0] == (0.0, 0.0)  # the brain
        assert len(f.offsets) == 25
        assert f.sampler_ids == tuple(range(5, 25))
        assert f.span == pytest.approx(19.0)

    @pytest.mark.parametrize("n_uavs", [2, 3, 5, 9, 10, 24, 25, 26, 100])
    def test_one_supervisor_per_five_uavs(self, n_uavs):
        f = build_line_formation(n_uavs, sampler_spacing=0.5)
        supervisors = max(1, n_uavs // 5)  # the brain included
        samplers = n_uavs - supervisors
        assert f.sampler_ids == tuple(range(supervisors, n_uavs))
        assert len(f.offsets) == n_uavs
        assert f.span == (samplers - 1) * 0.5

    def test_a_lone_uav_leaves_no_samplers(self):
        with pytest.raises(ValueError, match="^n_uavs leaves no samplers$"):
            build_line_formation(1)
        for strategy in ("sons_bs", "sons_rw"):
            with pytest.raises(ValueError, match="^n_uavs leaves no samplers$"):
                build_world(ExperimentConfig(strategy, n_uavs=1), seed=1)

    def test_sampler_chain_collinear_with_unit_spacing(self):
        f = build_line_formation(25)
        offsets = [f.offsets[s] for s in f.sampler_ids]
        assert all(ox == 0.0 for ox, _ in offsets)
        laterals = [oy for _, oy in offsets]
        gaps = np.diff(sorted(laterals))
        assert np.allclose(gaps, 1.0)

    def test_two_samplers_spacing_two(self):
        f = build_line_formation(3, sampler_spacing=2.0)
        assert f.span == pytest.approx(2.0)
        laterals = sorted(f.offsets[s][1] for s in f.sampler_ids)
        assert laterals == [pytest.approx(-1.0), pytest.approx(1.0)]

    def test_supervisors_evenly_spaced_over_the_line(self):
        f = build_line_formation(25)
        supervisors = f.offsets[1:5]
        assert all(ox == 0.0 for ox, _ in supervisors)
        laterals = [oy for _, oy in supervisors]
        assert laterals == [pytest.approx(-9.5 + k * 19.0 / 5) for k in range(1, 5)]


class TestFollowFormation:
    def test_rigid_translation_keeps_speeds_equal(self):
        f = build_line_formation(25)
        a = follow_formation((0.0, 0.0), math.pi / 2, f)
        b = follow_formation((0.0, 0.1), math.pi / 2, f)
        for member in range(len(f.offsets)):
            dx = b[member][0] - a[member][0]
            dy = b[member][1] - a[member][1]
            assert math.hypot(dx, dy) == pytest.approx(0.1)

    def test_rotation_speed_scales_with_radius(self):
        f = build_line_formation(25)
        omega = 0.1
        a = follow_formation((0.0, 0.0), 0.0, f)
        b = follow_formation((0.0, 0.0), omega * 1.0, f)
        for member in range(len(f.offsets)):
            radius = math.hypot(*f.offsets[member])
            chord = math.hypot(b[member][0] - a[member][0], b[member][1] - a[member][1])
            assert chord == pytest.approx(2 * radius * math.sin(omega / 2), abs=1e-12)
            assert chord <= omega * radius + 1e-12

    def test_pairwise_distances_invariant(self):
        f = build_line_formation(25)
        base = follow_formation((3.0, -7.0), 0.3, f)
        moved = follow_formation((-11.0, 5.0), 4.1, f)
        for i, j in itertools.combinations(range(len(f.offsets)), 2):
            d0 = math.dist(base[i], base[j])
            d1 = math.dist(moved[i], moved[j])
            assert abs(d0 - d1) <= 1e-9


class TestMaxFormationOmega:
    def test_twenty_sampler_line(self):
        f = build_line_formation(25)
        assert max_formation_omega(f, 1.0) == pytest.approx(1.0 / 9.5)

    def test_unit_radius(self):
        f = build_line_formation(3)  # samplers at +-0.5
        assert max_formation_omega(f, 1.0) == pytest.approx(2.0)

    def test_linear_in_speed(self):
        f = build_line_formation(25)
        assert max_formation_omega(f, 2.0) == pytest.approx(2 * max_formation_omega(f, 1.0))

    def test_zero_offsets_unbounded(self):
        f = build_line_formation(2)
        assert max_formation_omega(f, 1.0) == math.inf


class TestSpawn:
    def test_bs_start_pose(self):
        agents, controller = make_sons_controller("sons_bs", ARENA, CFG, 25)
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
        agents, controller = make_sons_controller("sons_bs", ARENA, CFG, 25)
        assert [a.id for a in agents] == list(range(25))
        for agent in agents:
            if agent.id in controller.formation.sampler_ids:
                assert agent.altitude == CFG.sampling_altitude
            else:
                assert agent.altitude == CFG.supervisory_altitude

    def test_rw_starts_on_corner_facing_interior(self):
        for seed in range(8):
            agents, controller = make_sons_controller("sons_rw", ARENA, replace(CFG, seed=seed), 25)
            assert controller.brain_pos == (pytest.approx(20.0), pytest.approx(-20.0))
            assert math.pi / 2 < controller.brain_heading < math.pi
            assert all(a.heading == controller.brain_heading for a in agents)

    def test_rw_start_heading_is_the_first_brain_draw(self):
        _, controller = make_sons_controller("sons_rw", ARENA, replace(CFG, seed=5), 25)
        u = agent_stream(5, 0).uniform(0.0, math.pi / 2)
        assert controller.brain_heading == math.pi / 2 + u

    def test_oversized_formation_rejected(self):
        with pytest.raises(ValueError):
            make_sons_controller("sons_bs", ArenaSpec(side_length=10.0, region_size=10.0), CFG, 25)

    # The name is checked before the formation, so an arena too narrow for it reports the name too.
    @pytest.mark.parametrize("arena", [ARENA, ArenaSpec(side_length=10.0)])
    def test_unknown_strategy_rejected(self, arena):
        with pytest.raises(ValueError, match="unknown formation strategy"):
            make_sons_controller("sons_xy", arena, CFG, 25)


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


def tiling_roster():
    """(side, n_uavs) whose sampler count (n_uavs less its supervisors) divides side, at least 2."""

    def samplers(n_uavs):
        return len(build_line_formation(n_uavs).sampler_ids)

    def rosters(side):
        # n_uavs keeps at least 4/5 of itself as samplers, so 2 * side is past every divisor.
        return [n for n in range(3, 2 * side) if samplers(n) >= 2 and side % samplers(n) == 0]

    return st.sampled_from([10, 20, 30, 40]).flatmap(
        lambda side: st.tuples(st.just(side), st.sampled_from(rosters(side)))
    )


class CountingMath:
    """Stands in for the math module and counts hypot calls."""

    def __init__(self):
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *coordinates):
        self.hypot_calls += 1
        return math.hypot(*coordinates)


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
        # phases at step ends, repeats collapsed: the two strips of the default
        # arena, each swept on past the edge, with one shift between them; the
        # reversal takes no step, so it never shows
        cycle = [phase for i, phase in enumerate(phases) if i == 0 or phase != phases[i - 1]]
        assert cycle == ["sweep", "shift", "sweep"]

    def test_strips_planned_for_a_smaller_arena_raise(self):
        # Strips planned for a 20 m arena, flown in a 40 m one: the brain
        # sweeps the map it was built with, so it shifts fully past that map's
        # west edge with 1170 of the arena's cells never visited.
        small = ArenaSpec(side_length=20.0, region_size=10.0)
        agents, controller = make_sons_controller("sons_bs", small, CFG, 25)
        world = World(ARENA, CFG, agents, controller)
        with pytest.raises(SweepGeometryError, match="shifted fully past the arena"):
            world.run()
        assert world.step_count == 401
        assert world.visited_count == 430

    def test_brain_never_samples(self):
        world, record = run_sons("sons_bs", seed=1)
        # every visit event belongs to a sampler
        assert record.final_visits.sum() == ARENA.cell_count
        assert world.agents[0].altitude == CFG.supervisory_altitude

    @settings(max_examples=30, deadline=None)
    @given(tiling_roster())
    def test_tiling_strips_visit_every_cell_exactly_once(self, roster):
        # TCU 0 whenever the strips tile the arena, not only at the defaults.
        side, n_uavs = roster
        arena = ArenaSpec(side_length=float(side), region_size=10.0)
        config = ExperimentConfig(strategy="sons_bs", runs=1, n_uavs=n_uavs, arena=arena)
        record = build_world(config, seed=1).run()
        assert record.complete
        assert record.final_visits.min() == 1 and record.final_visits.max() == 1

    def test_jump_speed_computed_only_for_scoring_entries(self, monkeypatch):
        # A member's jump speed is read only when a sampler enters a new cell
        # with sampling on (always, for sons_bs); computing it for every
        # member-step made one math.hypot call per member-step.
        counting = CountingMath()
        monkeypatch.setattr(world_module, "math", counting)
        entries = 0
        last = {}

        def count_entries(world):
            nonlocal entries
            for i, cell in enumerate(world.cells):
                if world.samplers[i] and cell >= 0 and cell != last.get(i, -1):
                    entries += 1
                last[i] = cell

        world, _ = run_sons("sons_bs", seed=1, on_step=count_entries, max_steps=400)
        assert 0 < counting.hypot_calls == entries
        assert counting.hypot_calls < world.step_count * len(world.cells) / 5


class TestRigidTransform:
    """A formation step is the brain's pose and the offsets; World.step places the members."""

    @pytest.mark.parametrize("strategy", ["sons_bs", "sons_rw"])
    def test_follow_formation_runs_only_at_spawn(self, strategy, monkeypatch):
        # Expanding the offsets into one position list per step made one
        # follow_formation call per step, plus the one at spawn.
        calls = []

        def counting(*args):
            calls.append(args)
            return follow_formation(*args)

        monkeypatch.setattr(sons_module, "follow_formation", counting)
        world, _ = run_sons(strategy, seed=1, max_steps=300)
        assert world.step_count == 300
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "strategy, seed, arena",
        [
            pytest.param("sons_bs", 1, ARENA, id="sons_bs-1"),
            pytest.param("sons_bs", 1, OFF_CENTRE, id="sons_bs-1-off_centre"),
            pytest.param("sons_rw", 1, ARENA, id="sons_rw-1"),
            pytest.param("sons_rw", 2, ARENA, id="sons_rw-2"),
            pytest.param("sons_rw", 3, OFF_CENTRE, id="sons_rw-3-off_centre"),
        ],
    )
    def test_members_hold_follow_formation_bit_for_bit(self, strategy, seed, arena):
        headings = set()

        def check(world):
            brain = world.controller
            expected = follow_formation(brain.brain_pos, brain.brain_heading, brain.formation)
            assert [(x.hex(), y.hex()) for x, y in zip(world.xs, world.ys)] == [
                (x.hex(), y.hex()) for x, y in expected
            ]
            heading = wrap_angle(brain.brain_heading).hex()
            assert [h.hex() for h in world.hs] == [heading] * len(world.hs)
            headings.add(heading)

        world, _ = run_sons(strategy, seed, arena=arena, on_step=check, max_steps=800)
        assert world.step_count >= 180
        # The sweep brain holds pi / 2 throughout (its cosine is not 0.0);
        # the random-walk brain turns, so several rotations are checked.
        assert len(headings) == 1 if strategy == "sons_bs" else len(headings) > 1


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
        step_travel = world.cfg.step_length
        assert audit.max_brain_depth <= SonsRwController.crossing_depth + step_travel + 1e-9

    def test_member_excursion_bounded(self, audited_run):
        world, _, audit = audited_run
        half_span = world.controller.formation.span / 2.0
        assert audit.max_member_excess <= audit.max_brain_depth + half_span + 1e-9

    def test_theta_rand_interior_and_outside_exclusion(self, audited_run):
        world, _, _ = audited_run
        events = world.controller.events
        assert events
        assert [e for e in events if not crossing_target_ok(e)] == []

    def test_d_rand_is_shortest_rotation(self, audited_run):
        world, _, _ = audited_run
        assert world.controller.events
        for event in world.controller.events:
            ccw = ccw_distance(event.entry_heading, event.theta_rand)
            expected = 1.0 if ccw <= math.pi else -1.0
            assert event.d_rand == expected

    def test_alignment_only_when_directions_agree(self, audited_run):
        world, _, _ = audited_run
        assert world.controller.events
        for event in world.controller.events:
            assert event.aligned == (event.d_rand == event.d_adjust)

    def test_sampling_resumes_after_prepare(self, audited_run):
        world, _, audit = audited_run
        assert world.controller.phase in ("cruise", "align", "prepare")
        assert audit.sampling or world.visited_count < world.arena.cell_count

    def test_a_finished_turn_cruises_in_the_same_step(self):
        # align done -> prepare done -> cruise, all in one decide, sampling on
        world = build_world(ExperimentConfig(strategy="sons_rw", runs=1), seed=3)
        controller = world.controller
        heading = controller.brain_heading
        x, y = controller.brain_pos
        controller.phase = "align"
        controller.align_target = controller.theta_rand = heading
        controller.d_adjust = controller.d_rand = 1.0
        command = controller.decide(world.senses, 1)
        step_len = world.cfg.step_length
        assert controller.phase == "cruise"
        assert command.sampling_active
        assert command.heading == heading
        assert command.position == (x + step_len * math.cos(heading), y + step_len * math.sin(heading))

    def test_a_crossing_is_numbered_by_the_step_being_decided(self):
        config = ExperimentConfig(strategy="sons_rw", runs=1, sim=SimConfig(max_steps=3000))
        world = build_world(config, seed=3, collect_events=True)
        controller = world.controller
        decide = controller.decide
        numbered = []

        def checked(senses, step):
            seen = len(controller.events)
            command = decide(senses, step)
            numbered.extend((e.step, world.step_count + 1) for e in controller.events[seen:])
            return command

        controller.decide = checked
        world.run()
        assert numbered
        assert all(step == deciding for step, deciding in numbered)


def edge_ulp_grid(arena, ulps=6):
    """Points whose coordinates sit within ulps of an edge line, at the centre, or a metre out."""
    axes = []
    for lo, hi, centre in zip(arena.min_corner, arena.max_corner, arena.center):
        values = [centre, lo - 1.0, hi + 1.0]
        for edge in (lo, hi):
            below = above = edge
            values.append(edge)
            for _ in range(ulps):
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                values += [below, above]
        axes.append(values)
    return list(itertools.product(*axes))


class TestInsideTest:
    """decide scans the edges only outside the arena, by a test of its own."""

    @pytest.mark.parametrize(
        "arena",
        [ARENA, OFF_CENTRE, ArenaSpec(side_length=30.0, center=(0.1, -0.7))],
        ids=["default", "off-centre", "inexact-centre"],
    )
    def test_edges_are_scanned_exactly_when_one_is_exceeded(self, arena, monkeypatch):
        world = build_world(ExperimentConfig(strategy="sons_rw", runs=1, arena=arena), seed=3)
        controller = world.controller
        scans = []

        def scanned(position, arena):
            scans.append(position)
            return edges_outside(position, arena)

        monkeypatch.setattr(sons_module, "edges_outside", scanned)
        rng = np.random.default_rng(29)
        (lo_x, lo_y), (hi_x, hi_y) = arena.min_corner, arena.max_corner
        scattered = zip(rng.uniform(lo_x - 2.0, hi_x + 2.0, 500), rng.uniform(lo_y - 2.0, hi_y + 2.0, 500))
        for point in edge_ulp_grid(arena) + [(float(x), float(y)) for x, y in scattered]:
            controller.brain_pos, controller.phase, controller.prev_depth = point, "cruise", 0.0
            scans.clear()
            controller.decide(world.senses, 1)
            outside = edges_outside(point, arena)
            assert scans == ([point] if outside else []), point
            assert controller.prev_depth == math.hypot(*(excess for _, excess in outside)), point


class TestOffCentreArena:
    """The brains read the arena's centre, not the origin."""

    def test_sons_bs_every_cell_exactly_once(self):
        _, record = run_sons("sons_bs", seed=1, arena=OFF_CENTRE)
        assert record.complete
        assert record.final_visits.min() == 1
        assert record.final_visits.max() == 1

    def test_sons_rw_starts_on_the_southeastern_corner(self):
        _, controller = make_sons_controller("sons_rw", OFF_CENTRE, CFG, 25)
        assert controller.brain_pos == (OFF_CENTRE.max_corner[0], OFF_CENTRE.min_corner[1])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sons_rw_completes_with_brain_depth_bounded(self, seed):
        world, record, audit = audit_rw(seed, arena=OFF_CENTRE)
        assert record.complete
        step_travel = world.cfg.step_length
        assert audit.max_brain_depth <= SonsRwController.crossing_depth + step_travel + 1e-9
