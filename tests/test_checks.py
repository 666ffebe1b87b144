"""Every numeric field of every config record goes through a rule of sweepsim.checks."""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace

import pytest

from sweepsim.arena import ArenaSpec
from sweepsim.decentralized import LDR_RANDOM, LDR_REPULSIVE, PM, RbParams
from sweepsim.harness import ExperimentConfig, PlacementSpec
from sweepsim.world import SimConfig

RECORDS = [
    SimConfig(),
    ArenaSpec(),
    PlacementSpec(),
    ExperimentConfig("rb"),
    RbParams(),
    LDR_RANDOM,
    PM,
]


TURN_RANGE = "a finite (low, high) pair with 0 <= low <= high"


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


NUMERIC_FIELDS = [
    pytest.param(record, f.name, id=f"{type(record).__name__}.{f.name}")
    for record in RECORDS
    for f in fields(record)
    if is_number(getattr(record, f.name))
]


def test_every_record_has_numeric_fields():
    assert {type(param.values[0]) for param in NUMERIC_FIELDS} == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record, name", NUMERIC_FIELDS)
def test_numeric_field_goes_through_a_rule(record, name):
    # A field added without a rule fails here: True would act as 1, and nan
    # or 2.5 would run silently. A string or None raised a bare TypeError
    # that named no field.
    bad = math.nan if isinstance(getattr(record, name), float) else 2.5
    for value in (True, bad, "1", None):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
            replace(record, **{name: value})


TUPLE_FIELDS = [
    pytest.param(record, f.name, id=f"{type(record).__name__}.{f.name}")
    for record in RECORDS
    for f in fields(record)
    if isinstance(getattr(record, f.name), tuple)
]


def test_tuple_fields_are_the_known_pairs():
    assert [param.id for param in TUPLE_FIELDS] == [
        "ArenaSpec.center", "RbParams.short_turn", "RbParams.medium_turn", "LdrParams.random_turn",
    ]


@pytest.mark.parametrize("record, name", TUPLE_FIELDS)
def test_tuple_field_goes_through_a_rule(record, name):
    # A tuple field added without a rule fails here: a bool would act as 1,
    # nan or a short tuple would run silently, and a string or None raised a
    # bare TypeError or indexed into the string.
    for value in ((True, 0.0), (math.nan, 0.0), (0.5,), "ab", None):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            replace(record, **{name: value})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SimConfig(dt="0.1"), "dt must be positive and finite, got '0.1'"),
        (lambda: SimConfig(dt=None), "dt must be positive and finite, got None"),
        (lambda: ArenaSpec(center=("a", 0)), "center must be a finite (x, y) pair, got ('a', 0)"),
        (lambda: ArenaSpec(center=None), "center must be a finite (x, y) pair, got None"),
        (lambda: ArenaSpec(center=(0.0, 0.0, 0.0)), "center must be a finite (x, y) pair, got (0.0, 0.0, 0.0)"),
        # A bool coordinate would act as 1 or 0, as a bool scalar would.
        (lambda: ArenaSpec(center=(True, 0)), "center must be a finite (x, y) pair, got (True, 0)"),
        (lambda: ArenaSpec(center=(0.0, False)), "center must be a finite (x, y) pair, got (0.0, False)"),
        # A truthy string would write heatmaps while summary.json echoed "false".
        (lambda: ExperimentConfig("rb", heatmaps="false"), "heatmaps must be a boolean, got 'false'"),
        (lambda: ExperimentConfig("rb", heatmaps=1), "heatmaps must be a boolean, got 1"),
        # A reversed range failed mid-run, in numpy, at the first density reaction.
        (lambda: replace(LDR_RANDOM, random_turn=(2.0, 1.0)), f"random_turn must be {TURN_RANGE}, got (2.0, 1.0)"),
        (lambda: RbParams(short_turn=(math.nan, -1.0)), f"short_turn must be {TURN_RANGE}, got (nan, -1.0)"),
        (lambda: RbParams(medium_turn=(-0.1, 0.5)), f"medium_turn must be {TURN_RANGE}, got (-0.1, 0.5)"),
        (lambda: RbParams(medium_turn=(0.1, math.inf)), f"medium_turn must be {TURN_RANGE}, got (0.1, inf)"),
        (lambda: RbParams(short_turn=(True, 1.0)), f"short_turn must be {TURN_RANGE}, got (True, 1.0)"),
        (lambda: RbParams(short_turn=(0.5,)), f"short_turn must be {TURN_RANGE}, got (0.5,)"),
        (lambda: RbParams(short_turn="ab"), f"short_turn must be {TURN_RANGE}, got 'ab'"),
        (lambda: RbParams(short_turn=None), f"short_turn must be {TURN_RANGE}, got None"),
        # decide's forward test for avoidance takes each half-cone as at most pi.
        (lambda: RbParams(short_fov=7.0), "short_fov must be positive and at most 2 pi, got 7.0"),
        (lambda: RbParams(medium_fov=100.0), "medium_fov must be positive and at most 2 pi, got 100.0"),
        # A truthy string read as repulsive.
        (lambda: replace(LDR_RANDOM, repulsive="yes"), "repulsive must be a boolean, got 'yes'"),
        (lambda: replace(LDR_REPULSIVE, repulsive=1), "repulsive must be a boolean, got 1"),
    ],
)
def test_bad_value_raises_the_standard_error(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_the_widest_values_each_rule_allows_are_accepted():
    # A full circle of view, and turn ranges of one value or starting at zero.
    full = RbParams(short_fov=2 * math.pi, medium_fov=2 * math.pi, short_turn=(0.0, 0.0), medium_turn=(1, 1))
    assert (full.short_fov, full.medium_turn) == (2 * math.pi, (1, 1))
    assert replace(LDR_RANDOM, random_turn=(0.0, math.pi)).random_turn == (0.0, math.pi)
