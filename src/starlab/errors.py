"""Exception hierarchy shared by all starlab modules."""


class StarlabError(Exception):
    """Base class for all starlab errors."""


class InputError(StarlabError):
    """Invalid user input (bad generators, non-prime characteristic, ...)."""


class BudgetError(StarlabError):
    """An enumeration would exceed its configured budget."""


class DeadlineError(BudgetError):
    """The wall-clock budget (--timeout-s) ran out: no further work may run."""


class GateError(StarlabError):
    """A precondition gate (hypothesis check) failed for a requested run."""


class InvariantError(StarlabError):
    """An internal consistency check failed; indicates an engine bug."""
