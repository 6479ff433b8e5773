"""Package-wide error types, and the checks every count and time input passes.

A degree, a bound or a count budget enters the package through
:func:`_require_count`, which accepts an ``int`` (a ``bool`` is not one) of
at least a given minimum, and a time budget through
:func:`_require_seconds`; both raise ValueError for anything else, so that
a malformed value never reads as a budget verdict or surfaces as a stray
TypeError deeper down.
"""


class BudgetExceededError(RuntimeError):
    """A computation exceeded its configured resource budget.

    Distinct from ValueError: the request was well-formed, it just asked
    for more work than the caller allowed.
    """


class NotGeneratingError(ValueError):
    """The given generators do not generate the given element set."""


def _require_count(name: str, value: int, minimum: int = 1) -> int:
    """``value`` itself when it is an ``int`` (not a ``bool``) of at least
    ``minimum``; raises ValueError naming ``name`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"invalid {name} {value!r}: need an int of at least {minimum}")
    return value


def _require_seconds(name: str, value: float) -> float:
    """``value`` itself when it is an ``int`` or ``float`` (not a ``bool``) of
    at least 0, ``inf`` included; raises ValueError naming ``name`` otherwise.

    NaN fails every comparison, so no deadline built on it would ever pass;
    ``not value >= 0`` rejects it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ValueError(f"invalid {name} {value!r}: need a time budget of at least 0 seconds")
    return value
