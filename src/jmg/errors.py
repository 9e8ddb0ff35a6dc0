"""The input boundary: the one error type for bad input, and the rules that
decide what counts as malformed outside input."""

import math
import numbers


class InputError(ValueError):
    """Raised for malformed input, contract violations, or exceeded guards."""


def fields(obj, what: str, *names: str) -> tuple:
    """The values of the required keys `names` of the JSON document `obj`,
    which describes a `what` object."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} object must be a JSON object, got {type(obj).__name__}")
    for name in names:
        if name not in obj:
            raise InputError(f"{what} object missing field: {name!r}")
    return tuple(obj[name] for name in names)


_AT_LEAST = {0: "a nonnegative integer", 1: "a positive integer"}


def count(value, what: str, minimum: int):
    """`value` as a count: an integer, not a bool, and at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InputError(f"{what} must be {_AT_LEAST.get(minimum, f'an integer >= {minimum}')}")
    return value


def tolerance(value):
    """`value` as a tolerance: a real number, not a bool, finite and at least 0."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise InputError(f"tol must be finite and non-negative, got {value!r}")
    return value
