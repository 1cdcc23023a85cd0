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
            shown = _scientific(count)
        raise BudgetError(message.format(shown, max_count))


def _scientific(count: int) -> str:
    """A positive count to 4 significant digits, as f"{Decimal(count):.3e}"
    shows it (ties to even), without converting all its digits: the
    bit length bounds the decimal exponent, and one integer division
    leaves 4 to 6 leading digits and the rest."""
    shift = max((count.bit_length() - 1) * 30103 // 100000 - 4, 0)  # log10(2) ~ 0.30103
    unit = 10**shift
    digits, rest = divmod(count, unit)
    extra = len(str(digits)) - 4
    if extra > 0:
        digits, low = divmod(digits, 10**extra)
        rest += low * unit
        unit *= 10**extra
    elif extra < 0:  # a count of fewer than 4 digits, so rest is 0
        digits *= 10**-extra
    shift += extra
    if 2 * rest > unit or (2 * rest == unit and digits % 2):
        digits += 1
        if digits == 10000:
            digits, shift = 1000, shift + 1
    return f"{digits // 1000}.{digits % 1000:03d}e+{shift + 3}"


class DeadlineError(BudgetError):
    """The wall-clock budget (--timeout-s) ran out: no further work may run."""


class GateError(StarlabError):
    """A precondition gate (hypothesis check) failed for a requested run."""


class InvariantError(StarlabError):
    """An internal consistency check failed; indicates an engine bug."""
