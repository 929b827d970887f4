"""Sawtooth component functions and exact piecewise-linear projections.

The level-n component rises with slope 1 on the right half of each level-n
cell and vanishes on the left half, so it takes values in [0, 1/(2 M_n)) and
drops by exactly 1/(2 M_n) at every positive multiple of 1/M_n. Components
are represented right-continuously; the downward jumps are first-class data
because the measure and curve modules consume them directly. Pointwise
values come from the integer kernel ``params.point_nums``.

A scalar projection truncated at level N,

    h(t) = c_0 * t + sum_{1 <= n <= N} c_n * f_n(t),

is affine on each of the 2 M_N half-cells of level N. On the half-grid
t = k/(2 M_N), with q_n = 2 M_N / M_n and c_n = a_n / q_lcm for integers a_n,

    c_n f_n(t) = a_n max(0, 2 (k mod q_n) - q_n) / (4 M_N q_lcm),

and a_n q_n over the same denominator at a left limit where q_n divides k.
``PLFunction`` is that integer table, built once by ``build_pl``, which reads
no coefficient tail. ``PLFunction.nums`` gives each piece's left value and
right limit from the closed form, and ``PLFunction.pattern(n)`` is one period
of c_n f_n along the curve's vertices, which the polygon repeats, so the curve
and the image engine read the same integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple

from .errors import DEFAULT_PIECE_BUDGET, BudgetExceeded, DomainError
from .params import ParameterSet, point_nums_at
from .rational import sqrt_lower, sqrt_upper
from .sequences import Functional


def component_value(params: ParameterSet, n: int, t: Fraction) -> Fraction:
    """f_n(t); f_0 is the identity, f_n scales the sawtooth to level n."""
    if not 0 <= t < 1:
        raise DomainError(f"t = {t} outside [0, 1)")
    if not 0 <= n <= params.n_max:
        raise DomainError(f"component index {n} outside [0, {params.n_max}]")
    nums, scale = point_nums_at(params, n, t)
    return Fraction(nums[n], scale)


class TruncatedPoint(NamedTuple):
    """Component values (f_0(t), ..., f_N(t)) plus model-norm tail bounds.

    There is no exact infinite point: a point is always a stated truncation
    level together with a certified bound on what was discarded. The l2
    enclosure's lower end is the exact norm of the discarded coordinates
    level < n <= n_max at t; its upper end bounds every t.
    """

    level: int
    coords: tuple[Fraction, ...]
    model: str
    t: Fraction
    tail_l1_upper: Fraction
    tail_l2_enclosure: tuple[Fraction, Fraction]

    def embedded(self, params: ParameterSet) -> tuple[Fraction, ...]:
        """Coordinates scaled by the per-level weights alpha_n."""
        return tuple(
            params.alpha_term(n) * c for n, c in enumerate(self.coords)
        )


def truncated_point(params: ParameterSet, level: int, t: Fraction) -> TruncatedPoint:
    if not 0 <= t < 1:
        raise DomainError(f"t = {t} outside [0, 1)")
    params.grid_size(level)  # refuses a level outside [0, n_max]
    t = Fraction(t)
    nums, scale = point_nums_at(params, params.n_max, t)
    dropped = (params.alpha.term(n) * nums[n] for n in range(level + 1, len(nums)))
    dropped_sq = Fraction(sum(x * x for x in dropped), scale**2)
    return TruncatedPoint(
        level=level,
        coords=tuple(Fraction(x, scale) for x in nums[: level + 1]),
        model=params.model,
        t=t,
        tail_l1_upper=params.point_tail_l1_upper(level),
        tail_l2_enclosure=(
            sqrt_lower(dropped_sq, params.sqrt_bits),
            sqrt_upper(params.point_tail_l2sq_upper(level), params.sqrt_bits),
        ),
    )


class PLFunction(NamedTuple):
    """The level-N truncation as its integer table on the half-grid.

    a[n] = a_n = c_n q_lcm are integers, periods[n] = q_n = 2 M_N / M_n, and
    every value below is a numerator over denom = 4 M_N q_lcm. ``build_pl``
    checks the level and the piece budget once, then builds it.
    """

    level: int
    denom: int
    a: tuple[int, ...]
    periods: tuple[int, ...]

    @property
    def piece_count(self) -> int:
        return self.periods[0]

    def pattern(self, n: int) -> tuple[int, ...]:
        """One period of c_n f_n (n >= 1) along the polygon's vertices: per cell, the
        value at its midpoint k - 1, then the left limit and the value at its end k,
        for k = 2, 4, ..., q_n; the left limit is a_n q_n at k = q_n, else the value."""
        a, q = self.a[n], self.periods[n]
        out = []
        for k in range(2, q + 1, 2):
            end = a * max(0, 2 * (k % q) - q)
            out += (a * max(0, 2 * k - 2 - q), a * q if k == q else end, end)
        return tuple(out)

    def nums(self, j: int) -> tuple[int, int]:
        """Left value and right limit of piece j: across it c_0 t rises by 2 a_0,
        and c_n f_n by 2 a_n where it lies in the rising half of a level-n cell."""
        a, q = self.a, self.periods
        value, rise = 2 * a[0] * j, a[0]
        for n in range(1, len(a)):
            u = 2 * (j % q[n]) - q[n]
            if u >= 0:
                value += a[n] * u
                rise += a[n]
        return value, value + 2 * rise

    def piece_value_ints(self) -> Iterator[tuple[int, int]]:
        """(left value, right limit) integer numerators of every piece, in order."""
        return map(self.nums, range(self.piece_count))


def build_pl(
    params: ParameterSet,
    functional: Functional,
    level: int,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> PLFunction:
    """Piecewise-linear form of the level-N truncated projection, its piece count
    2 M_N checked against the budget before any enumeration. It reads no tail, so
    a functional without a certified l1 tail is accepted: a bracket asks for it."""
    size = params.grid_size(level)  # refuses a level outside [0, n_max]
    if 2 * size > piece_budget:
        raise BudgetExceeded("pieces", 2 * size, piece_budget)
    coeffs = functional.coeffs(level)
    q_lcm = lcm(*(c.denominator for c in coeffs))
    a = tuple(c.numerator * (q_lcm // c.denominator) for c in coeffs)
    periods = tuple(2 * size // params.grid_size(n) for n in range(level + 1))
    return PLFunction(level, 4 * size * q_lcm, a, periods)
