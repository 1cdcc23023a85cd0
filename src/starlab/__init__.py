"""starlab: exhaustive star-operation computations on finite models of
one-dimensional local rings attached to numerical semigroups.

The package models a semigroup ring K[[S]] over a finite field K as a
subalgebra of the truncated algebra K[t]/(t^N), enumerates its lattice of
fractional ideals between the ring and its integral closure, and enumerates
every star operation on that lattice as a closure system. On top of that it
ships a small laboratory of verifiable results: exact star-operation counts,
certified lower bounds, and orbit statistics of subspace families over
finite fields.
"""

__version__ = "0.1.0"

from .errors import BudgetError, DeadlineError, GateError, InputError, InvariantError, StarlabError

__all__ = [
    "BudgetError",
    "DeadlineError",
    "GateError",
    "InputError",
    "InvariantError",
    "StarlabError",
    "__version__",
]
