"""The rules every numeric or boolean configuration field is checked by.

Each config record passes those fields through these in __post_init__. A
bool is never a number (True would act as 1), and a breach raises
ValueError reading "<field> must be <rule>, got <value>".
"""

import math


def _check(record, names, rule: str, ok, number: bool = True) -> None:
    for name in names:
        value = getattr(record, name)
        try:
            good = not (number and isinstance(value, bool)) and ok(value)
        except TypeError:  # not a number at all, such as a string or None
            good = False
        if not good:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def positive_finite(record, *names: str) -> None:
    _check(record, names, "positive and finite", lambda v: math.isfinite(v) and v > 0)


def finite(record, *names: str) -> None:
    _check(record, names, "finite", math.isfinite)


def finite_point(record, *names: str) -> None:
    _check(record, names, "a finite (x, y) pair",
           lambda p: len(p) == 2 and all(not isinstance(v, bool) and math.isfinite(v) for v in p))


def integer_at_least(record, floor: int, *names: str) -> None:
    _check(record, names, "an integer", lambda v: isinstance(v, int))
    _check(record, names, "non-negative" if floor == 0 else f"at least {floor}", lambda v: v >= floor)


def boolean(record, *names: str) -> None:
    _check(record, names, "a boolean", lambda v: isinstance(v, bool), number=False)
