"""Exact refinement events, for the event-measure and independence checks.

The level-n refinement event marks parameters living in the first or last
alpha_n * m_n level-n subcells of their level-(n-1) cell, i.e. within
alpha_n / M_{n-1} of the coarse grid. Its measure is exactly 2 alpha_n, and
because membership depends only on the level-n refinement digit, events at
distinct levels intersect with exactly multiplicative measure. Events are
``intervals.IntervalUnion`` values; ``event_set`` imports that module when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DEFAULT_COMPONENT_BUDGET, BudgetExceeded, DomainError
from .params import ParameterSet

if TYPE_CHECKING:  # annotations name it; only event_set builds an IntervalUnion
    from .intervals import IntervalUnion


class EventSet(NamedTuple):
    level: int
    cells: IntervalUnion

    @property
    def measure(self) -> Fraction:
        return self.cells.measure


def event_set(params: ParameterSet, n: int) -> EventSet:
    """The level-n refinement event as an exact interval union."""
    from .intervals import IntervalUnion

    params.refinement_factor(n)  # refuses a level outside [1, n_max]
    alpha = params.alpha_term(n)
    if 2 * alpha > 1:
        raise DomainError(f"2 alpha_{n} = {2 * alpha} exceeds 1")
    # numerators over M_{n-1} den(alpha_n): centers k/M_{n-1}, radius alpha_n/M_{n-1}
    step, radius = alpha.denominator, alpha.numerator
    denom = params.grid_size(n - 1) * step
    pairs = [
        (max(0, center - radius), min(denom, center + radius))
        for center in range(0, denom + 1, step)
    ]
    return EventSet(n, IntervalUnion.from_pairs(denom, pairs))


def check_event_levels(
    params: ParameterSet, levels: Sequence[int], component_budget: int = DEFAULT_COMPONENT_BUDGET
) -> None:
    """Refuse a level outside [1, n_max] or an event over the component budget.

    The level-n event has at most M_{n-1} + 1 components, so every level is
    checked before any event is built.
    """
    for n in levels:
        params.refinement_factor(n)  # refuses a level outside [1, n_max]
        components = params.grid_size(n - 1) + 1
        if components > component_budget:
            raise BudgetExceeded("event components", components, component_budget)


class IndependenceResult(NamedTuple):
    levels: tuple[int, ...]
    measure: Fraction
    expected: Fraction
    component_count: int

    @property
    def multiplicative(self) -> bool:
        return self.measure == self.expected


def independence_check(
    params: ParameterSet, levels: Sequence[int], *, component_budget: int = DEFAULT_COMPONENT_BUDGET
) -> IndependenceResult:
    """Exact measure of the intersection of events at distinct levels.

    The contract is exact multiplicativity: measure = prod 2 alpha_n. Every
    level's event size is checked against the budget before any is built.
    """
    levels = tuple(sorted(set(levels)))
    if not 1 <= len(levels) <= 4:
        raise DomainError("between one and four levels are supported")
    return independence_checks(params, [levels], component_budget)[0]


def independence_checks(
    params: ParameterSet, groups: Sequence[tuple[int, ...]], budget: int = DEFAULT_COMPONENT_BUDGET
) -> list[IndependenceResult]:
    """``independence_check`` of each group of distinct levels, building each event once."""
    levels = sorted({n for group in groups for n in group})
    check_event_levels(params, levels, budget)
    cells = {n: event_set(params, n).cells for n in levels}
    results = []
    for group in groups:
        meet = cells[group[0]]  # within budget, as checked
        for n in group[1:]:
            meet = meet.intersect(cells[n])
            if meet.component_count > budget:
                raise BudgetExceeded("intersection components", meet.component_count, budget)
        expected = prod(2 * params.alpha_term(n) for n in group)
        results.append(IndependenceResult(group, meet.measure, expected, meet.component_count))
    return results
