"""Angle helpers and circular-arc set arithmetic.

Headings are radians in [0, 2*pi). Reaction rules are phrased as "pick a
random direction inside these half-planes but away from that cone", so the
admissible set is a union of circular arcs: intersect half-planes, subtract
exclusion cones, then sample uniformly by arc length.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle into [0, 2*pi), -0.0 to 0.0."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # fmod of values just below 2*pi can round back up to 2*pi
    if theta >= TWO_PI:
        theta -= TWO_PI
    return theta + 0.0


def wrap_pi(theta: float) -> float:
    """Normalize an angle into [-pi, pi)."""
    theta = math.fmod(theta + math.pi, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    return theta - math.pi


def uniform(rng, lo: float, hi: float) -> float:
    """The double rng.uniform(lo, hi) returns, from the one rng.random() draw it makes, without its argument checks."""
    return lo + (hi - lo) * rng.random()


def ccw_distance(from_angle: float, to_angle: float) -> float:
    """Counterclockwise angular distance from one heading to another, in [0, 2*pi)."""
    return wrap_angle(to_angle - from_angle)


def turn_direction(from_angle: float, to_angle: float) -> float:
    """+1.0 (counterclockwise) or -1.0 (clockwise), whichever turn is shorter.

    An exact half turn goes counterclockwise.
    """
    return 1.0 if ccw_distance(from_angle, to_angle) <= math.pi else -1.0


def turn_remaining(from_angle: float, to_angle: float, direction: float) -> float:
    """Angle left to turn from one heading to another in the given direction, in [0, 2*pi)."""
    return wrap_angle(to_angle - from_angle if direction > 0 else from_angle - to_angle)


# An arc is (start, width) with start in [0, 2*pi) and 0 < width <= 2*pi,
# covering angles start..start+width counterclockwise (possibly wrapping).
Arc = tuple[float, float]


def full_circle() -> list[Arc]:
    return [(0.0, TWO_PI)]


def arc_around(center: float, half_width: float) -> list[Arc]:
    """The arc of all directions within half_width of center."""
    width = 2.0 * half_width
    if width >= TWO_PI:
        return full_circle()
    if width <= 0.0:
        return []
    return [(wrap_angle(center - half_width), width)]


def half_plane_arc(inward_normal_angle: float) -> list[Arc]:
    """Directions with a strictly positive component along the given normal.

    The open/closed distinction at the arc ends is measure zero and ignored
    by uniform sampling.
    """
    return arc_around(inward_normal_angle, math.pi / 2.0)


def _intersect_one(a: Arc, b: Arc) -> list[Arc]:
    a0, aw = a
    b0, bw = b
    # shift so a starts at 0; b may then wrap past 2*pi
    rel = wrap_angle(b0 - a0)
    pieces = []
    for lo, hi in ((rel, rel + bw), (rel - TWO_PI, rel - TWO_PI + bw)):
        lo2 = max(lo, 0.0)
        hi2 = min(hi, aw)
        if hi2 > lo2 + 1e-15:
            pieces.append((wrap_angle(a0 + lo2), hi2 - lo2))
    return pieces


def intersect_arcs(a: list[Arc], b: list[Arc]) -> list[Arc]:
    out: list[Arc] = []
    for arc_a in a:
        for arc_b in b:
            out.extend(_intersect_one(arc_a, arc_b))
    return out


def interior_arcs(inward_normals) -> list[Arc]:
    """Directions with a positive component along every given inward normal.

    The full circle is intersected with each normal's half-plane arc in the
    order given.
    """
    arcs = full_circle()
    for nx, ny in inward_normals:
        arcs = intersect_arcs(arcs, half_plane_arc(math.atan2(ny, nx)))
    return arcs


def subtract_arc(arcs: list[Arc], center: float, half_width: float) -> list[Arc]:
    """Remove the cone of the given half-width around center from an arc set."""
    width = 2.0 * half_width
    if width <= 0.0:
        return list(arcs)
    if width >= TWO_PI:
        return []
    complement = [(wrap_angle(center + half_width), TWO_PI - width)]
    return intersect_arcs(arcs, complement)


def total_width(arcs: list[Arc]) -> float:
    return sum(w for _, w in arcs)


def sample_arcs(arcs: list[Arc], rng) -> float:
    """Draw a direction uniformly (by arc length) from an arc set.

    Consumes exactly one rng.random() double. Raises ValueError on an
    empty set; callers decide their own fallback.
    """
    total = total_width(arcs)
    if total <= 0.0:
        raise ValueError("cannot sample from an empty arc set")
    u = uniform(rng, 0.0, total)
    for start, width in arcs:
        if u <= width:
            return wrap_angle(start + u)
        u -= width
    start, width = arcs[-1]
    return wrap_angle(start + width)
