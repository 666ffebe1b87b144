"""Circular-arc set arithmetic against a rejection-sampling oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import contains_angle, cw_distance
from sweepsim.decentralized import LDR_RANDOM, RbParams
from sweepsim.angles import (
    arc_around,
    ccw_distance,
    full_circle,
    half_plane_arc,
    intersect_arcs,
    sample_arcs,
    subtract_arc,
    total_width,
    turn_direction,
    turn_remaining,
    uniform,
    wrap_angle,
    wrap_pi,
)

TWO_PI = 2 * math.pi


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_wrap_angle_range(theta):
    w = wrap_angle(theta)
    assert 0.0 <= w < TWO_PI
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_wrap_pi_range(theta):
    w = wrap_pi(theta)
    assert -math.pi <= w < math.pi


def test_distances():
    assert ccw_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert cw_distance(0.0, math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert ccw_distance(3 * math.pi / 2, 0.0) == pytest.approx(math.pi / 2)


def test_turn_direction_takes_the_shorter_way():
    assert turn_direction(0.0, math.pi / 2) == 1.0
    assert turn_direction(0.0, 3 * math.pi / 2) == -1.0
    assert turn_direction(3 * math.pi / 2, 0.1) == 1.0


def test_turn_direction_half_turn_goes_counterclockwise():
    assert turn_direction(0.0, math.pi) == 1.0
    assert turn_direction(0.0, math.nextafter(math.pi, 4.0)) == -1.0


def test_turn_remaining_in_both_directions():
    assert turn_remaining(0.0, math.pi / 2, 1.0) == pytest.approx(math.pi / 2)
    assert turn_remaining(0.0, math.pi / 2, -1.0) == pytest.approx(3 * math.pi / 2)
    assert turn_remaining(3 * math.pi / 2, 0.0, 1.0) == pytest.approx(math.pi / 2)
    assert turn_remaining(3 * math.pi / 2, 0.0, -1.0) == pytest.approx(3 * math.pi / 2)
    assert turn_remaining(1.0, 1.0, 1.0) == 0.0
    assert turn_remaining(1.0, 1.0, -1.0) == 0.0


# Headings within 20 full turns, plus the values where wrapping rounds.
turn_angle = st.one_of(
    st.floats(-20 * math.pi, 20 * math.pi),
    st.sampled_from([0.0, -0.0, math.pi, TWO_PI, math.nextafter(TWO_PI, 0.0)]),
)


@given(
    turn_angle,
    st.one_of(turn_angle, st.none()),
    st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-2.0, 2.0)),
)
@example(math.nextafter(TWO_PI, 0.0), 0.0, 1.0)
@example(0.0, math.nextafter(TWO_PI, 0.0), -1.0)
@example(-0.0, 0.0, 1.0)
@example(0.0, -0.0, -1.0)
@example(1e-17, 0.0, 1.0)  # the wrapped difference rounds up to 2 pi
@example(0.0, 1e-17, -1.0)
def test_turn_remaining_is_the_wrapped_difference_bit_for_bit(a, b, d):
    # b None stands for an equal pair
    b = a if b is None else b
    expected = wrap_angle(b - a) if d > 0 else wrap_angle(a - b)
    assert turn_remaining(a, b, d).hex() == expected.hex()


def test_half_plane_arc_width():
    arcs = half_plane_arc(math.pi)
    assert total_width(arcs) == pytest.approx(math.pi)
    assert contains_angle(arcs, math.pi)
    assert not contains_angle(arcs, 0.1)


def test_intersect_quarter_plane():
    # interior of the south-east corner: normals west (pi) and north (pi/2)
    arcs = intersect_arcs(half_plane_arc(math.pi), half_plane_arc(math.pi / 2))
    assert total_width(arcs) == pytest.approx(math.pi / 2)
    assert contains_angle(arcs, math.radians(135.0))
    assert not contains_angle(arcs, math.radians(45.0))


def test_subtract_middle_hole():
    arcs = subtract_arc(half_plane_arc(math.pi), math.pi, math.radians(5.0))
    assert total_width(arcs) == pytest.approx(math.pi - math.radians(10.0))
    assert not contains_angle(arcs, math.pi)
    assert contains_angle(arcs, math.pi - math.radians(6.0))


def test_subtract_edge_overlap():
    # hole straddling the arc boundary removes only the overlapping part
    arcs = subtract_arc(half_plane_arc(math.pi), math.pi / 2, math.radians(10.0))
    assert total_width(arcs) == pytest.approx(math.pi - math.radians(10.0))


def test_subtract_disjoint_hole_changes_nothing():
    arcs = half_plane_arc(math.pi)
    assert total_width(subtract_arc(arcs, 0.0, math.radians(5.0))) == pytest.approx(
        total_width(arcs)
    )


def test_sample_from_empty_raises():
    with pytest.raises(ValueError):
        sample_arcs([], np.random.default_rng(0))


@given(
    st.floats(0.0, TWO_PI),
    st.floats(0.1, math.pi / 2),
    st.floats(0.0, TWO_PI),
    st.floats(0.01, 0.5),
)
def test_membership_matches_direct_predicate(center_a, half_a, hole_center, hole_half):
    """Arc arithmetic agrees with the pointwise angular predicate."""
    arcs = subtract_arc(arc_around(center_a, half_a), hole_center, hole_half)
    rng = np.random.default_rng(1234)
    for theta in rng.uniform(0.0, TWO_PI, 64):
        d_center = min(ccw_distance(center_a, theta), cw_distance(center_a, theta))
        d_hole = min(ccw_distance(hole_center, theta), cw_distance(hole_center, theta))
        expected = d_center < half_a - 1e-9 and d_hole > hole_half + 1e-9
        if expected != contains_angle(arcs, theta):
            # only tolerate disagreement within numeric slack of the edges
            assert (
                abs(d_center - half_a) < 1e-7 or abs(d_hole - hole_half) < 1e-7
            )


def test_sampling_is_uniform_against_rejection_oracle():
    """Histogram of arc-set samples matches rejection sampling from the circle."""
    rng = np.random.default_rng(7)
    normals = [math.pi, math.pi / 2]  # south-east corner interior
    arcs = full_circle()
    for n in normals:
        arcs = intersect_arcs(arcs, half_plane_arc(n))
    arcs = subtract_arc(arcs, math.radians(200.0), math.radians(15.0))

    draws = np.array([sample_arcs(arcs, rng) for _ in range(4000)])
    assert all(contains_angle(arcs, t) for t in draws)

    oracle_rng = np.random.default_rng(8)
    oracle = []
    while len(oracle) < 4000:
        t = oracle_rng.uniform(0.0, TWO_PI)
        if contains_angle(arcs, t):
            oracle.append(t)
    oracle = np.array(oracle)

    bins = np.linspace(math.pi / 2, math.pi, 9)
    h1, _ = np.histogram(draws, bins=bins)
    h2, _ = np.histogram(oracle, bins=bins)
    # loose agreement: each bin within 5 sigma of the oracle's count
    for c1, c2 in zip(h1, h2):
        sigma = math.sqrt(max(c2, 1.0))
        assert abs(c1 - c2) < 5 * sigma


UNIFORM_CANARY = (
    "numpy's Generator.uniform(lo, hi) no longer returns lo + (hi - lo) * random() from one "
    "random() double: angles.uniform must follow it, or every seeded run changes"
)


def test_uniform_is_generator_uniform_bit_for_bit():
    # Every reaction draws through angles.uniform; it must return Generator.uniform's
    # double and leave the stream where Generator.uniform leaves it.
    rb = RbParams()
    pairs = [rb.short_turn, rb.medium_turn, LDR_RANDOM.random_turn]
    pairs += [(0.0, total) for total in (TWO_PI, math.pi / 2.0, 1e-12, 5e-324, 1e4)]  # sample_arcs, pm_choose
    pairs += [(x, x) for x in (0.0, 1.0, -2.5, TWO_PI)]
    rng = np.random.default_rng(3800)
    for _ in range(3000):
        lo, hi = sorted(rng.standard_normal(2) * 10.0 ** rng.integers(-6, 7))
        pairs.append((float(lo), float(hi)))
    for seed in (0, 1, 38):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo, hi in pairs:
            got, expected = uniform(ours, lo, hi), numpys.uniform(lo, hi)
            same_state = ours.bit_generator.state == numpys.bit_generator.state
            assert (got.hex(), same_state) == (expected.hex(), True), f"{UNIFORM_CANARY}: seed {seed}, {lo!r}, {hi!r}"
