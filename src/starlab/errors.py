"""Exception hierarchy shared by all starlab modules."""


class StarlabError(Exception):
    """Base class for all starlab errors."""


class InputError(StarlabError):
    """Invalid user input (bad generators, non-prime characteristic, ...)."""


class BudgetError(StarlabError):
    """An enumeration would exceed its configured budget."""


def check_budget(count: int, max_count: int | None, message: str):
    """Raise BudgetError when count exceeds max_count (None is no cap), with
    message formatted by the count and the cap. A count too long for
    Python's int-to-str limit is shown as 1.234e+5678."""
    if max_count is not None and count > max_count:
        try:
            shown = str(count)
        except ValueError:
            from decimal import Decimal

            shown = f"{Decimal(count):.3e}"
        raise BudgetError(message.format(shown, max_count))


class DeadlineError(BudgetError):
    """The wall-clock budget (--timeout-s) ran out: no further work may run."""


class GateError(StarlabError):
    """A precondition gate (hypothesis check) failed for a requested run."""


class InvariantError(StarlabError):
    """An internal consistency check failed; indicates an engine bug."""
