"""Package-wide error types, and the one check every count input passes.

A degree, a bound or a budget enters the package through
:func:`_require_count`, which accepts an ``int`` (a ``bool`` is not one) of
at least a given minimum and raises ValueError for anything else, so that a
malformed value never reads as a budget verdict or surfaces as a stray
TypeError deeper down.
"""


class BudgetExceededError(RuntimeError):
    """A computation exceeded its configured resource budget.

    Distinct from ValueError: the request was well-formed, it just asked
    for more work than the caller allowed.
    """


def _require_count(name: str, value: int, minimum: int = 1) -> int:
    """``value`` itself when it is an ``int`` (not a ``bool``) of at least
    ``minimum``; raises ValueError naming ``name`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"invalid {name} {value!r}: need an int of at least {minimum}")
    return value
