"""Polygonal approximations of the rectifiable companion set in l1 coordinates.

The level-N polygon follows the truncated coordinates over each level-N cell
with two non-vertical segments (the highest component switches slope at the
cell midpoint), then drops along a vertical connector at the right endpoint
where the sawtooth components jump. The final connector at t = 1 is included,
so the polygon terminates at the closed right endpoint.

Every vertex lies on the half-grid t = k/(2 M_N): k = 0, then per cell j the
midpoint 2j + 1 and the end 2j + 2, as left limit and as value. Coordinate 0
is linear in k; coordinate n >= 1 is 0 at vertex 0 and then repeats M_n times
one pattern of 3 q_n / 2 integer numerators (q_n = 2 M_N / M_n) from the
truncation's ``PLFunction`` table. A ``PolygonalCurve`` stores those patterns,
``nums`` gives one vertex's integer numerators and ``vertex`` its Fractions, and
the length sums integer differences.

l1 length is total variation per coordinate, which gives closed forms: each
coordinate n >= 1 rises 1/2 across slants and falls 1/2 across connectors, so
level n adds exactly |c_n| of length. A canonical common parametrization
reserves an s-interval at every level-N grid endpoint for the connectors and
is affine elsewhere; with it the supremum distance between consecutive levels
is |c_N| / (2 M_N), attained where a connector starts. The supremum distance
reads the polygons' vertex integers, nothing else; no parametrization is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle
from math import lcm
from pathlib import Path
from typing import NamedTuple

from .construction import build_pl
from .errors import DEFAULT_VERTEX_BUDGET, BudgetExceeded, DomainError
from .params import L1, ParameterSet
from .records import ratio_cells, write_lines
from .sequences import Functional


class Vertex(NamedTuple):
    t: Fraction
    coords: tuple[Fraction, ...]


class PolygonalCurve(NamedTuple):
    """The level-N polygon in integers: vertex i sits at t = k / t_denom,
    k = 2 (i + 1) // 3, with coordinate 0 at 2 a0 k / denom and coordinate
    n >= 1 at 0 for i = 0, else at patterns[n - 1][(i - 1) % its length] / denom."""

    params: ParameterSet
    functional: Functional
    level: int
    t_denom: int
    denom: int
    a0: int
    patterns: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return 3 * self.t_denom // 2 + 1

    def nums(self, i: int) -> list[int]:
        """Vertex i's coordinate numerators over ``denom``."""
        if not 0 <= i < self.vertex_count:
            raise IndexError(f"vertex {i} outside [0, {self.vertex_count})")
        k = 2 * (i + 1) // 3
        return [2 * self.a0 * k] + [p[(i - 1) % len(p)] if i else 0 for p in self.patterns]

    def vertex(self, i: int) -> Vertex:
        t = Fraction(2 * (i + 1) // 3, self.t_denom)
        return Vertex(t, tuple(Fraction(x, self.denom) for x in self.nums(i)))

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(self.vertex, range(self.vertex_count)))

    def length(self) -> Fraction:
        """Exact l1 length, the total variation per coordinate: coordinate 0 is monotone, and
        coordinate n >= 1 steps from 0 into its pattern, runs it M_n times, joined end to start."""
        total = abs(2 * self.a0 * self.t_denom)
        for p in self.patterns:
            repeats = (self.vertex_count - 1) // len(p)
            inner = sum(abs(y - x) for x, y in zip(p, p[1:]))
            total += abs(p[0]) + repeats * inner + (repeats - 1) * abs(p[0] - p[-1])
        return Fraction(total, self.denom)


def export_curve_csv(curve, path: str | Path) -> None:
    """Write one CSV row per polygon vertex (coordinates, is_vertical, t, index): the
    patterns are formatted once and cycled, t and coordinate 0 (unless it is t) once per k."""
    level, denom, rise, t_denom = curve.level, curve.denom, 2 * curve.a0, curve.t_denom
    is_t = rise * t_denom == denom
    # zero-padded names keep the sorted header in coordinate order
    names = [f"coord_{n:0{len(str(level))}d}" for n in range(level + 1)]
    header = [c for name in names for c in (name, f"{name}_f64")]
    cells = {x: ratio_cells(x, denom) for x in {0}.union(*curve.patterns)}
    columns = (chain([cells[0]], cycle([cells[x] for x in p])) for p in curve.patterns)
    middles = zip(*columns, chain(["False"], cycle(("False", "True", "False"))))

    def lines():
        yield f"{cells[0]},{','.join(next(middles))},{ratio_cells(0, t_denom)},0\n"
        for i, k in zip(range(1, 3 * t_denom, 3), range(1, t_denom, 2)):
            # a cell: its midpoint k, then its end k + 1 as left limit and as value
            t_mid, t_end = ratio_cells(k, t_denom), ratio_cells(k + 1, t_denom)
            mid, end = (t_mid, t_end) if is_t else (
                ratio_cells(rise * k, denom), ratio_cells(rise * (k + 1), denom))
            yield (f"{mid},{','.join(next(middles))},{t_mid},{i}\n"
                   f"{end},{','.join(next(middles))},{t_end},{i + 1}\n"
                   f"{end},{','.join(next(middles))},{t_end},{i + 2}\n")

    write_lines(path, header + ["is_vertical", "t", "t_f64", "vertex_index"], lines())


def _require_l1_contraction(params: ParameterSet, functional: Functional) -> None:
    if params.model != L1:
        raise DomainError("polygonal curves are built in the L1 model")
    _, total = functional.rule.series_sum(params.n_max, 1)
    if total >= 1:
        raise DomainError(f"sum of |c_n| certified only as <= {total}, need < 1")


def build_curve(
    params: ParameterSet,
    functional: Functional,
    level: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> PolygonalCurve:
    """The level-N polygon's 3 M_N + 1 vertices, one pattern of integers per coordinate."""
    _require_l1_contraction(params, functional)
    size = params.grid_size(level)  # refuses a level outside [0, n_max]
    count = 3 * size + 1
    if count > vertex_budget:
        raise BudgetExceeded("vertices", count, vertex_budget)

    table = build_pl(params, functional, level, count)  # 2 M_N pieces, fewer than count
    patterns = tuple(map(table.pattern, range(1, level + 1)))
    return PolygonalCurve(params, functional, level, 2 * size, table.denom, table.a[0], patterns)


def curve_length(curve: PolygonalCurve) -> Fraction:
    """Exact l1 length of a materialized curve."""
    return curve.length()


def curve_length_closed_form(
    params: ParameterSet, functional: Functional, level: int
) -> Fraction:
    """|c_0| + sum_{n <= N} |c_n|; equals curve_length(build_curve(...)) exactly."""
    return abs(functional.alpha0) + sum(
        (abs(functional.coeff(n)) for n in range(1, level + 1)), Fraction(0)
    )


def length_increment(
    params: ParameterSet, functional: Functional, n: int
) -> Fraction:
    """length(level n) - length(level n-1), in closed form.

    Coordinate n contributes |c_n|/2 across slants and |c_n|/2 across the
    connectors, independent of the grid, so the increment is exactly |c_n|
    (within the contractual ceiling of (3/2)|c_n|).
    """
    params.refinement_factor(n)  # refuses a level outside [1, n_max]
    return abs(functional.coeff(n))


def length_difference(higher: PolygonalCurve, lower: PolygonalCurve) -> Fraction:
    """Exact length difference of two materialized curves at consecutive levels."""
    _require_same_family(higher, lower)
    return curve_length(higher) - curve_length(lower)


def _require_same_family(higher: PolygonalCurve, lower: PolygonalCurve) -> None:
    if higher.params != lower.params or higher.functional != lower.functional:
        raise DomainError("curves were built with different parameters")
    if higher.level != lower.level + 1:
        raise DomainError(
            f"levels must be consecutive, got {higher.level} and {lower.level}"
        )


def sup_distance(higher: PolygonalCurve, lower: PolygonalCurve) -> Fraction:
    """Exact sup-norm distance of consecutive-level curves under the canonical
    common parametrization of the higher level, which serves the lower one too
    (M_{n-1} divides M_n). Its s-layout is [K_0][G_1][K_1]...[G_M][K_M] for
    M = M_n: G_i runs affinely over the i-th level-n cell, and K_i, all of one
    length, runs down a curve's connector at t = i / M where it has one and
    holds the curve still elsewhere (at i = 0, and off the lower curve's grid).

    Both curves are affine between the higher one's vertices, and the l1 norm
    of an affine path is convex, so the supremum is attained at one of them.
    Higher vertex v sits at half-grid index k = 2 (v + 1) // 3 = m_n x + r. The
    lower curve is there between its vertices x + x // 2 and the next, weighted
    r / m_n, except at a left limit (v % 3 == 2) on a lower grid point (r = 0,
    x even): that is lower vertex x + x // 2 - 1. All sums share one denominator.
    """
    _require_same_family(higher, lower)
    m = higher.t_denom // lower.t_denom
    den = lcm(higher.denom, m * lower.denom)
    up, down = den // higher.denom, den // (m * lower.denom)
    worst = 0
    for v in range(higher.vertex_count):
        x, r = divmod(2 * (v + 1) // 3, m)
        pos = x + x // 2
        if v % 3 == 2 and r == 0 and x % 2 == 0:
            pos -= 1
        a = lower.nums(pos)
        b = lower.nums(pos + 1) if r else a
        h = higher.nums(v)
        dist = up * abs(h[-1]) + sum(
            abs(up * y - down * (p * (m - r) + q * r)) for y, p, q in zip(h, a, b)
        )
        worst = max(worst, dist)
    return Fraction(worst, den)


def sup_distance_bound(
    params: ParameterSet, functional: Functional, n: int
) -> Fraction:
    """Exact sup distance between levels n and n-1 under the canonical
    parametrization of ``sup_distance``.

    Away from connectors the curves differ only in coordinate n, by
    |c_n| f_n(t) < |c_n|/(2 M_n); the bound is attained at each connector
    start, where coordinate n holds its left limit 1/(2 M_n).
    """
    params.refinement_factor(n)  # refuses a level outside [1, n_max]
    return abs(functional.coeff(n)) / (2 * params.grid_size(n))
