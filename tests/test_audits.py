"""The shared audits in audits.py flag what they are meant to flag.

The acceptance criteria and the unit suite both trust these audits, and an
audit that never fails shows nothing: each is shown cases it must reject
next to cases it must pass.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from audits import (
    AuditRW,
    crossing_target_ok,
    faces_inward,
    inside_arena,
    pm_sense_mismatches,
    reactions_with_windows,
)
from sweepsim.arena import EDGE_NORMALS, ArenaSpec
from sweepsim.harness import ExperimentConfig, build_world
from sweepsim.sons import CrossingEvent
from sweepsim.world import SimConfig, pm_sense

CENTRED = ArenaSpec(side_length=20.0, region_size=10.0)
OFF_CENTRE = ArenaSpec(side_length=20.0, center=(7.0, -3.0), region_size=10.0)
EDGES = dict(zip(("east", "west", "north", "south"), EDGE_NORMALS))


def _probes(arena):
    """(id, point, inside) at the centre, on each corner, and 1e-6 m past each edge."""
    (x0, y0), (x1, y1), (cx, cy), e = arena.min_corner, arena.max_corner, arena.center, 1e-6
    yield from (("centre", (cx, cy), True), ("corner_sw", (x0, y0), True), ("corner_se", (x1, y0), True),
                ("corner_nw", (x0, y1), True), ("corner_ne", (x1, y1), True), ("past_east", (x1 + e, cy), False),
                ("past_west", (x0 - e, cy), False), ("past_north", (cx, y1 + e), False),
                ("past_south", (cx, y0 - e), False))


class TestInsideArena:
    @pytest.mark.parametrize("arena, point, expected", [
        pytest.param(arena, point, inside, id=f"{label}-{name}")
        for label, arena in (("centred", CENTRED), ("off_centre", OFF_CENTRE))
        for name, point, inside in _probes(arena)
    ])
    def test_one_agent(self, arena, point, expected):
        assert inside_arena(SimpleNamespace(arena=arena, xs=[point[0]], ys=[point[1]])) is expected

    def test_one_agent_outside_among_many(self):
        points = [p for _, p, inside in _probes(OFF_CENTRE) if inside]
        world = SimpleNamespace(arena=OFF_CENTRE, xs=[x for x, _ in points], ys=[y for _, y in points])
        assert inside_arena(world)
        world.ys[2] -= 1e-6  # corner_se, past the south edge
        assert not inside_arena(world)


class TestFacesInward:
    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("off_normal_deg, expected", [(0.0, True), (80.0, True), (100.0, False), (180.0, False)])
    def test_one_edge(self, edge, off_normal_deg, expected):
        nx, ny = EDGES[edge]
        assert faces_inward(math.atan2(ny, nx) + math.radians(off_normal_deg), [EDGES[edge]]) is expected

    @pytest.mark.parametrize("corner", ["east-north", "east-south", "west-north", "west-south"])
    def test_corner_needs_both_edges(self, corner):
        normals = [EDGES[e] for e in corner.split("-")]
        diagonal = math.atan2(normals[0][1] + normals[1][1], normals[0][0] + normals[1][0])
        assert faces_inward(diagonal, normals)
        # 50 degrees off the inward diagonal still faces one edge inward, but not the other
        for theta in (diagonal + math.radians(50.0), diagonal - math.radians(50.0)):
            assert not faces_inward(theta, normals)
            assert faces_inward(theta, normals[:1]) or faces_inward(theta, normals[1:])


def _crossing(theta_deg, dropped=False):
    # an eastward entry through the east edge: the reversed heading is 180 deg
    return CrossingEvent(step=1, entry_heading=0.0, theta_rand=math.radians(theta_deg), d_rand=1.0, d_adjust=0.0,
                         aligned=True, normals=(EDGES["east"],), exclusion_dropped=dropped)


class TestCrossingTarget:
    @pytest.mark.parametrize("theta_deg, dropped, expected", [
        pytest.param(180.0, False, False, id="reversed"), pytest.param(151.0, False, False, id="29deg_ccw"),
        pytest.param(150.0, False, True, id="30deg_ccw"), pytest.param(149.0, False, True, id="31deg_ccw"),
        pytest.param(-151.0, False, False, id="29deg_cw"), pytest.param(-149.0, False, True, id="31deg_cw"),
        pytest.param(0.0, False, False, id="outward"), pytest.param(0.0, True, True, id="outward_dropped"),
    ])
    def test_cone_and_interior(self, theta_deg, dropped, expected):
        assert crossing_target_ok(_crossing(theta_deg, dropped)) is expected

    def test_gap_wraps_across_pi(self):
        for theta_deg in (-149.0, -151.0, 149.0, 151.0):
            assert crossing_target_ok(_crossing(theta_deg)) is crossing_target_ok(_crossing(theta_deg + 360.0))


def _audited_sons_rw(steps):
    config = ExperimentConfig(strategy="sons_rw", runs=1, arena=OFF_CENTRE, sim=SimConfig())
    world = build_world(config, seed=1, collect_events=True)
    audit = AuditRW(world)
    for _ in range(steps):
        world.step()
        audit(world)
    return world, audit


class TestAuditRW:
    def test_rigid_steps_read_clean_and_a_stretched_pair_shows(self):
        world, audit = _audited_sons_rw(200)
        assert audit.max_rigidity_error <= 1e-9
        d = math.dist((world.xs[0], world.ys[0]), (world.xs[-1], world.ys[-1]))
        world.xs[-1] += 1e-6 * (world.xs[-1] - world.xs[0]) / d
        world.ys[-1] += 1e-6 * (world.ys[-1] - world.ys[0]) / d
        audit(world)
        assert audit.max_rigidity_error >= 0.9e-6

    def test_depth_past_a_corner_is_euclidean(self):
        world, audit = _audited_sons_rw(5)
        world.xs[0], world.ys[0] = world.arena.max_corner[0] + 0.3, world.arena.max_corner[1] + 0.4
        audit(world)
        assert audit.max_brain_depth == pytest.approx(0.5, abs=1e-12)
        assert audit.max_member_excess >= audit.max_brain_depth  # the brain is member 0

    def test_align_jump_speed_and_prepare_visits_are_counted(self):
        world, audit = _audited_sons_rw(5)
        sampler = world.controller.formation.sampler_ids[0]
        world.controller.phase = "align"
        world.xs[sampler] += 0.25
        audit(world)
        assert audit.max_align_speed == pytest.approx(0.25 / world.cfg.dt, rel=1e-9)
        world.controller.phase, world.visit_events = "prepare", [(sampler, 0), (sampler, 1)]
        audit(world)
        assert audit.prepare_visits == 2 and {"align", "prepare"} <= audit.phases_seen


def _ldr_world(max_steps):
    config = ExperimentConfig(strategy="ldr_random", runs=1, arena=CENTRED, sim=SimConfig(max_steps=max_steps))
    return build_world(config, seed=3, collect_events=True)


class TestReactionsWithWindows:
    def test_pairs_each_reaction_of_its_kind_once(self):
        world = _ldr_world(1500)
        paired = reactions_with_windows(world, "density", 600)
        density = [e for e in world.controller.events if e.kind == "density"]
        assert density and [e for e, _ in paired] == density

    def test_run_to_completion_pairs_as_stepping_does(self):
        stepped = reactions_with_windows(_ldr_world(600), "density", 600)
        assert stepped and reactions_with_windows(_ldr_world(600), "density") == stepped


class TestPmSenseMismatches:
    # The cases it must pass are test_decentralized.py::TestPmSense's and test_world.py::TestRectangle's.
    def test_a_sense_with_left_and_right_swapped_shows(self, monkeypatch):
        def swapped(field, step, cell, heading):
            ahead, left, right = pm_sense(field, step, cell, heading)
            return (ahead, right, left)

        monkeypatch.setattr("audits.pm_sense", swapped)
        assert pm_sense_mismatches(OFF_CENTRE, seed=8)
