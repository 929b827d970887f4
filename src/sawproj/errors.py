"""Exception taxonomy shared by all modules."""

from __future__ import annotations


class SawprojError(Exception):
    """Base class for all package errors."""


class DomainError(SawprojError, ValueError):
    """An argument is outside an operation's stated domain."""


DEFAULT_PIECE_BUDGET = 2**25
DEFAULT_COMPONENT_BUDGET = 2**20
DEFAULT_VERTEX_BUDGET = 2**22
DEFAULT_SAMPLE_BUDGET = 2**18  # diagnose --samples


class BudgetExceeded(SawprojError):
    """A piece / vertex / component / sample budget would be exceeded.

    Carries the exact count so callers can report or raise the budget.
    """

    def __init__(self, what: str, count: int, budget: int):
        self.what = what
        self.count = count
        self.budget = budget
        super().__init__(f"{what}: {count} exceeds budget {budget}")


class CertificationError(SawprojError):
    """A certified bound cannot be produced from the available data.

    Raised e.g. for explicit sequences without stated tail bounds, or when
    a square-root enclosure at the configured precision collapses a strictly
    positive quantity to zero (the caller must raise the precision).
    """


class ConfigError(SawprojError):
    """A configuration document is malformed."""
