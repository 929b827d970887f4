"""Exact refinement events, for the event-measure, independence and borel-cantelli checks.

The level-n refinement event marks parameters living in the first or last
alpha_n * m_n level-n subcells of their level-(n-1) cell, i.e. within
alpha_n / M_{n-1} of the coarse grid. Its measure is exactly 2 alpha_n, and
because membership depends only on the level-n refinement digit, events at
distinct levels intersect with exactly multiplicative measure. ``event_window`` is
its one checked integer form, read by ``event_set`` and the borel-cantelli sampler.
Events are ``intervals.IntervalUnion`` values; ``event_set`` imports that module.
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


def event_window(params: ParameterSet, n: int) -> tuple[int, int, int]:
    """(M_{n-1}, den alpha_n, num alpha_n): the level-n event is the t within
    num / (M_{n-1} den) of a k / M_{n-1}; a level outside [1, n_max] or 2 alpha_n > 1 is refused."""
    params.refinement_factor(n)  # refuses a level outside [1, n_max]
    alpha = params.alpha_term(n)
    if 2 * alpha > 1:
        raise DomainError(f"2 alpha_{n} = {2 * alpha} exceeds 1")
    return params.grid_size(n - 1), alpha.denominator, alpha.numerator


def event_set(params: ParameterSet, n: int) -> EventSet:
    """The level-n refinement event as an exact interval union."""
    from .intervals import IntervalUnion

    size, step, radius = event_window(params, n)
    denom = size * step  # numerators over M_{n-1} den(alpha_n): centers k den, radius num
    pairs = [
        (max(0, center - radius), min(denom, center + radius))
        for center in range(0, denom + 1, step)
    ]
    return EventSet(n, IntervalUnion.from_pairs(denom, pairs))


def check_event_levels(
    params: ParameterSet, levels: Sequence[int], component_budget: int = DEFAULT_COMPONENT_BUDGET
) -> None:
    """Refuse what ``event_window`` refuses, or an event over the component budget.

    The level-n event has at most M_{n-1} + 1 components, so every level is
    checked before any event is built.
    """
    for n in levels:
        components = event_window(params, n)[0] + 1
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
    """``independence_checks`` of the one group of levels."""
    return independence_checks(params, [levels], component_budget)[0]


def independence_checks(
    params: ParameterSet, groups: Sequence[Sequence[int]], budget: int = DEFAULT_COMPONENT_BUDGET
) -> list[IndependenceResult]:
    """Exact measure of the intersection of the events of each group of levels, building
    each event once.

    A group is sorted and de-duplicated and must hold one to four levels. The contract is
    exact multiplicativity: measure = prod 2 alpha_n. Every group, and every level's event
    size against the budget, is checked before any event is built.
    """
    groups = [tuple(sorted(set(group))) for group in groups]
    if not all(1 <= len(group) <= 4 for group in groups):
        raise DomainError("between one and four levels are supported")
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
