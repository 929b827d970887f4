"""Exact Lebesgue measure of piecewise-linear images and certified brackets.

Each affine piece of a truncated projection maps onto the closed interval
between its endpoint values; jump points are single points and contribute no
measure. The image of the truncation is therefore a finite union of closed
rational intervals, measured exactly: an ``IntervalUnion`` from ``intervals``,
bound here too, as are two ``errors`` budgets. It is built from self-similar shapes
rather than from the 2 M_N pieces: every component above level l is
periodic across the level-l half-cells, so on each of them h_N is an offset
plus a shape fixed by l, the slope there and the cell's parity. As parities
alternate, a shape is a tile of two next-level shapes a and b, copied at a
fixed step. The one tile rule: the solid copies (each one interval) merge
into disjoint pairs, and the other, loose copies stay copies while no two of
their hulls share more than a point; the measure in a window is then that of
the pairs cut to it plus, per loose copy, its part in the window less its
parts in those pairs. A tile whose loose copies overlap merges the
components of every copy once; one whose copies are all solid and each meet
the next is its hull, in O(1). ``image_measure`` always builds shapes; a
bracket skips them at level k when c_1..c_k share a sign s (zeros allowed),
as every jump of s h_k goes down:
if s c_0 >= 0, s h_k >= 0 = h_k(0) takes every value below its supremum, of
measure s (c_0 + sum c_n / (2 M_n)); if s (c_0 + sum c_n) <= 0, no slope is
positive, the pieces' images only touch and the measure is -s (c_0 + sum c_n/2).

Brackets for the limit of the truncated measures rest on the per-level
stability chain: raising the level by one moves each of the 2 M_{k+1} piece
images by at most |c_{k+1}|/(2 M_{k+1}), so the union measure moves by at
most 2 |c_{k+1}|. Summing the chain past level N bounds every deeper
truncated measure, and so their limit, within [mu_N - 2 T_N, mu_N + 2 T_N]
where T_N is the certified absolute coefficient tail. The chain runs in
integers, and the brackets of all directions p t + q h share h's level-N
table and T_N (``direction_brackets``).
Whether the truncated measures converge to the measure of the full projection
is not established; the bracket is the certified statement. Covering sums
(``hausdorff_upper``) are in ``certificates``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache, partial
from math import lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .construction import PLFunction, build_pl
from .errors import DEFAULT_COMPONENT_BUDGET, DEFAULT_PIECE_BUDGET, BudgetExceeded, DomainError
from .intervals import IntervalUnion
from .params import ParameterSet
from .sequences import Functional


# -- image measure ----------------------------------------------------------------


class _Shape:
    """An image in integer numerators over the table's denom: its hull [lo, hi],
    its measure, the disjoint intervals pairs that its solid copies cover, and
    its loose copies, the non-solid ones, as (offset, shape), no two of whose
    hulls share more than a point. A leaf, and any solid shape, is one pair; a
    tile whose loose copies overlap keeps its merged components as pairs."""

    __slots__ = ("lo", "hi", "measure", "solid", "pairs", "loose")

    def __init__(self, lo: int, hi: int, measure: int, pairs: tuple, loose: tuple = ()):
        self.lo, self.hi, self.measure, self.solid = lo, hi, measure, measure == hi - lo
        self.pairs, self.loose = (((lo, hi),), ()) if self.solid else (pairs, loose)

    @staticmethod
    def tile(a: "_Shape", b: "_Shape", step: int, count: int) -> "_Shape":
        """The union of count copies at offsets i * step alternating a and b (with
        step 0, each kind once); its hull is that of the first two and the last
        two copies, and it is the union when all are solid and each meets the next.
        Else the solid copies merge into pairs and the others stay loose, unless
        two loose hulls overlap: then every component merges."""
        count = count if step else min(count, 2)
        if count == 1:
            return a
        kinds, last = (a, b), (count - 1) * step
        y, z = kinds[count % 2], kinds[(count - 1) % 2]  # the last two copies
        lo = min(a.lo, step + b.lo, last - step + y.lo, last + z.lo)
        hi = max(a.hi, step + b.hi, last - step + y.hi, last + z.hi)
        if a.solid and b.solid and step + b.lo <= a.hi and a.lo <= step + b.hi:
            if count == 2 or step + a.lo <= b.hi and b.lo <= step + a.hi:
                return _Shape(lo, hi, hi - lo, ())  # each copy meets the next: the hull
        pairs, loose = [], []
        for first, x in enumerate(kinds):
            if x.solid:
                pairs += [(x.lo + i * step, x.hi + i * step) for i in range(first, count, 2)]
            else:
                loose += [(i * step, x) for i in range(first, count, 2)]
        hulls = sorted([(off + x.lo, off + x.hi) for off, x in loose])
        if any(v[0] < u[1] for u, v in zip(hulls, hulls[1:])):
            pairs, loose = _merged(pairs, loose), ()
        else:
            pairs, loose = IntervalUnion.from_pairs(1, pairs).pairs, tuple(loose)
        return _Shape(lo, hi, _measure(pairs, loose, lo, hi), pairs, loose)

    def window(self, lo: int, hi: int) -> int:
        """The measure of the image's part in [lo, hi]."""
        if lo <= self.lo and self.hi <= hi:
            return self.measure
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        return _measure(self.pairs, self.loose, lo, hi) if lo < hi else 0

    def flatten(self) -> tuple[tuple[int, int], ...]:
        """The image's disjoint components, merged once and kept as its pairs."""
        if self.loose:
            self.pairs, self.loose = _merged(self.pairs, self.loose), ()
        return self.pairs


def _measure(pairs: tuple, loose: tuple, lo: int, hi: int) -> int:
    """The measure inside [lo, hi], lo <= hi, of disjoint pairs and loose copies
    that share at most a point with each other: the pairs cut to the window,
    plus each copy's part in the window less its parts in those cut pairs."""
    i, j = bisect_right(pairs, lo, key=itemgetter(1)), bisect_left(pairs, hi, key=itemgetter(0))
    cut = pairs[i:j]  # only the first and the last may stick out of the window
    total = sum(y - x for x, y in cut)
    if cut:
        total -= max(0, lo - cut[0][0]) + max(0, cut[-1][1] - hi)
    for off, shape in loose:
        total += shape.window(lo - off, hi - off)
        i = bisect_right(cut, shape.lo + off, key=itemgetter(1))
        j = bisect_left(cut, shape.hi + off, key=itemgetter(0))
        total -= sum(shape.window(max(x, lo) - off, min(y, hi) - off) for x, y in cut[i:j])
    return total


def _merged(pairs: Sequence[tuple[int, int]], loose: Sequence[tuple[int, _Shape]]) -> tuple:
    """The disjoint components of pairs and of the loose copies' components."""
    shifted = [(lo + off, hi + off) for off, shape in loose for lo, hi in shape.flatten()]
    return IntervalUnion.from_pairs(1, [*pairs, *shifted]).pairs  # the one merge sweep


def _image_ints(a: Sequence[int], steps: Sequence[int], top: int) -> _Shape:
    """The image of the level-top truncation as a shape over the table's denominator.

    The table is that of a level N >= top; its integers a_n and periods
    steps[n] = q_n = 2 M_N/M_n give m_n = q_{n-1} // q_n. In numerators over its
    denom = 4 M_N q_lcm, the image of h_top on a level-l half-cell, less its
    value at the cell's left end, is

        Img(l, s, odd) = U_{i < m_{l+1}} ( s i q_{l+1}
                                           + Img(l+1, s + a_{l+1} p_i, p_i) ),
        p_i = (odd * m_{l+1} + i) mod 2,

    with slope numerator s, odd the parity of the half-cell's index and
    Img(top, s, .) = hull{0, s q_top}: sub-cell i is the right half of its level-(l+1)
    cell exactly when p_i = 1, and every f_n with n > l vanishes at each
    level-l half-cell's left end. The parity is folded to 0 unless m_{l+1} is
    odd. As p_i alternates, Img(l, s, odd) is a tile of a = Img(l+1, ., p_0)
    and b = Img(l+1, ., 1 - p_0); ``_Shape.tile`` merges its solid copies into
    pairs, keeps the others as loose copies while no two of their hulls
    overlap, and measures the pairs plus each loose copy's part outside them;
    only a tile whose loose copies overlap merges the components of every copy.
    Each distinct (s, odd, l) is built once, from the two keys of its kinds;
    the two level-0 half-cells are one more tile.
    """
    m = [0] + [steps[n - 1] // steps[n] for n in range(1, top + 1)]
    leaf = steps[top]

    def key(slope: int, odd: int, level: int) -> tuple[int, int, int]:
        return slope, (odd if level < top and m[level + 1] % 2 else 0), level

    @cache
    def shape(slope: int, odd: int, level: int) -> _Shape:
        if level == top:
            lo, hi = sorted((0, leaf * slope))
            return _Shape(lo, hi, hi - lo, ((lo, hi),))
        n = level + 1
        p = odd * m[n] % 2  # kind a; kind b exists when m_n > 1
        kinds = [shape(*key(slope + a[n] * q, q, n)) for q in (p, 1 - p)[: m[n]]]
        return _Shape.tile(kinds[0], kinds[-1], slope * steps[n], m[n])

    # the two level-0 half-cells; f_0 has slope 1 on both
    halves = [shape(*key(a[0], odd, 0)) for odd in (0, 1)]
    shape.cache_clear()  # shape refers to itself: free its table now, not at a collection
    return _Shape.tile(*halves, a[0] * steps[0], 2)


def image_measure(
    pl: PLFunction, *, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> tuple[IntervalUnion, Fraction]:
    """Exact image (interval union) and Lebesgue measure of a truncation."""
    if pl.piece_count > piece_budget:
        raise BudgetExceeded("pieces", pl.piece_count, piece_budget)
    union = IntervalUnion(pl.denom, _image_ints(pl.a, pl.periods, pl.level).flatten())
    return union, union.measure


def _monotone_nums(a: Sequence[int], q: Sequence[int]) -> list[int | None]:
    """Per level k, h_k's measure over the table's denom by the one-signed rule, else None."""
    out, total, top, sign = [], 0, 0, 0
    for n, x in enumerate(a):
        if x * sign < 0:
            break  # mixed signs at this level and every later one
        if n:
            sign, total, top = sign or (x > 0) - (x < 0), total + x, top + x * q[n]
        s = sign or 1
        if s * a[0] >= 0:
            out.append(s * (2 * q[0] * a[0] + top))
        else:
            out.append(-s * q[0] * (2 * a[0] + total) if s * (a[0] + total) <= 0 else None)
    return out + [None] * (len(a) - len(out))


# -- certified brackets ---------------------------------------------------------


class ChainLink(NamedTuple):
    level: int
    delta_mu: Fraction
    bound: Fraction

    @property
    def holds(self) -> bool:
        return self.delta_mu <= self.bound


class MeasureBracket(NamedTuple):
    level: int
    mu: Fraction
    tail_upper: Fraction
    lower: Fraction
    upper: Fraction
    piece_count: int
    chain: tuple[ChainLink, ...]
    mu_levels: tuple[Fraction, ...]

    @property
    def chain_holds(self) -> bool:
        return all(link.holds for link in self.chain)


def direction_brackets(
    params: ParameterSet, functional: Functional, level: int, piece_budget: int
) -> Callable[[Fraction, Fraction], MeasureBracket]:
    """The bracket of t |-> p*t + q*h(t) per direction (p, q), h the functional's
    projection: that of ``projection_bracket`` on the functional with coefficients
    (p + q c_0, q c_1, q c_2, ...). All share the level-N table and tail T_N of h,
    each built at the first call that needs it: with p = P/R and q = Q/R, a
    direction's table is a'_0 = P q_lcm + Q a_0 and a'_n = Q a_n over R denom, and
    its tail is |q| T_N, asked for only if q != 0."""
    params.grid_size(level)  # refuses a bad level before the tail is asked for
    tail = cache(partial(functional.abs_tail_upper, level))
    table = cache(partial(build_pl, params, functional, level, piece_budget))

    def bracket(p: Fraction, q: Fraction) -> MeasureBracket:
        p, q = Fraction(p), Fraction(q)
        if p == 0 and q == 0:
            raise DomainError("direction (0, 0) is not admissible")
        t = abs(q) * tail() if q else Fraction(0)
        pl, r = table(), lcm(p.denominator, q.denominator)
        big_p, big_q = p.numerator * (r // p.denominator), q.numerator * (r // q.denominator)
        steps, den, q_lcm = pl.periods, r * pl.denom, pl.denom // (2 * pl.periods[0])
        a = (big_p * q_lcm + big_q * pl.a[0], *(big_q * x for x in pl.a[1:]))  # over den
        nums = [
            _image_ints(a, steps, k).measure if num is None else num
            for k, num in enumerate(_monotone_nums(a, steps))
        ]
        # the chain in integers: mu_k = nums[k] / den, and 2 |c_n| = 4 q_0 |a_n| / den
        mus, bound = tuple(Fraction(num, den) for num in nums), 4 * steps[0]
        chain = tuple(
            ChainLink(n + 1, Fraction(abs(v - u), den), Fraction(bound * abs(x), den))
            for n, (u, v, x) in enumerate(zip(nums, nums[1:], a[1:]))
        )
        mu = mus[-1]
        return MeasureBracket(level, mu, t, mu - 2 * t, mu + 2 * t, steps[0], chain, mus)

    return bracket


def projection_bracket(
    params: ParameterSet,
    functional: Functional,
    level: int,
    *,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> MeasureBracket:
    """Certified bracket [mu_N - 2 T_N, mu_N + 2 T_N] for the projection: direction
    (0, 1) of ``direction_brackets``.

    The per-level stability chain |mu_{k+1} - mu_k| <= 2 |c_{k+1}| is checked
    for every k < N, in integers over the level-N table's denom, and returned as
    part of the certificate. The level, the tail certificate and the piece budget
    are checked before any image is computed; every level is measured over the
    one table, by the module's one-signed rule where it applies: on
    ``harmonic_l2.cfg`` that is every level of F1's brackets and 424 of the 448
    levels of the 64-direction level-6 scan.
    """
    return direction_brackets(params, functional, level, piece_budget)(0, 1)


def directional_measure(
    params: ParameterSet,
    functional: Functional,
    direction: tuple[Fraction, Fraction],
    level: int,
    *,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> MeasureBracket:
    """Bracket for the image of t |-> p*t + q*h(t) in a rational direction: one
    direction of ``direction_brackets``, whose tail is |q| T_N."""
    return direction_brackets(params, functional, level, piece_budget)(*direction)
