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


def _finite_pair(p) -> bool:
    return len(p) == 2 and all(not isinstance(v, bool) and math.isfinite(v) for v in p)


def finite_point(record, *names: str) -> None:
    _check(record, names, "a finite (x, y) pair", _finite_pair)


def turn_range(record, *names: str) -> None:
    _check(record, names, "a finite (low, high) pair with 0 <= low <= high",
           lambda p: _finite_pair(p) and 0 <= p[0] <= p[1])


def field_of_view(record, *names: str) -> None:
    _check(record, names, "positive and at most 2 pi", lambda v: 0 < v <= 2 * math.pi)


def integer_at_least(record, floor: int, *names: str) -> None:
    _check(record, names, "an integer", lambda v: isinstance(v, int))
    _check(record, names, "non-negative" if floor == 0 else f"at least {floor}", lambda v: v >= floor)


def boolean(record, *names: str) -> None:
    _check(record, names, "a boolean", lambda v: isinstance(v, bool), number=False)
