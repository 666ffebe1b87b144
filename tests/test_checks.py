"""Every numeric field of every config record goes through a rule of sweepsim.checks."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import pytest

from sweepsim.arena import ArenaSpec
from sweepsim.decentralized import LDR_RANDOM, PM, RbParams
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
    ],
)
def test_bad_value_raises_the_standard_error(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
