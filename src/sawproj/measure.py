"""Exact Lebesgue measure of piecewise-linear images and certified brackets.

Each affine piece of a truncated projection maps onto the closed interval
between its endpoint values; jump points are single points and contribute no
measure. The image of the truncation is therefore a finite union of closed
rational intervals, measured exactly. It is built from self-similar shapes
rather than from the 2 M_N pieces: every component above level l is
periodic across the level-l half-cells, so on each of them h_N is an offset
plus a shape fixed by l, the slope there and the cell's parity.

Brackets for the untruncated projection rest on the per-level stability
chain: raising the level by one moves each of the 2 M_{k+1} piece images by
at most |c_{k+1}|/(2 M_{k+1}), so the union measure moves by at most
2 |c_{k+1}|. Summing the chain past level N bounds every deeper truncated
measure within [mu_N - 2 T_N, mu_N + 2 T_N] where T_N is the certified
absolute coefficient tail. Whether the truncated measures converge to the
measure of the full projection is not established; the bracket is the
certified statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .construction import (
    DEFAULT_PIECE_BUDGET,
    PLFunction,
    _component,
    _component_left_limit,
    build_pl,
)
from .errors import BudgetExceeded, DomainError
from .params import ParameterSet
from .rational import sqrt_upper
from .sequences import Functional

DEFAULT_COMPONENT_BUDGET = 2**20


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed rational intervals.

    Touching intervals are merged on construction; degenerate single points
    are kept (they carry zero measure but matter to erosion outputs).
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_intervals(items: Iterable[tuple[Fraction, Fraction]]) -> "IntervalUnion":
        cleaned = []
        for lo, hi in items:
            if lo > hi:
                raise DomainError(f"interval [{lo}, {hi}] is reversed")
            cleaned.append((Fraction(lo), Fraction(hi)))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return IntervalUnion(tuple(merged))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    @property
    def component_count(self) -> int:
        return len(self.intervals)

    def contains(self, x: Fraction) -> bool:
        from bisect import bisect_right

        i = bisect_right(self.intervals, (Fraction(x),))
        if i < len(self.intervals) and self.intervals[i][0] == x:
            return True
        return i > 0 and self.intervals[i - 1][0] <= x <= self.intervals[i - 1][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion.from_intervals(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.from_intervals(self.intervals + other.intervals)


def dilate(u: IntervalUnion, r: Fraction) -> IntervalUnion:
    """Minkowski dilation by the closed interval [-r, r]."""
    if r < 0:
        raise DomainError("dilation radius must be nonnegative")
    return IntervalUnion.from_intervals((lo - r, hi + r) for lo, hi in u.intervals)


def erode(u: IntervalUnion, r: Fraction) -> IntervalUnion:
    """Erosion by radius r; components shorter than 2r vanish, length-2r
    components survive as single points."""
    if r < 0:
        raise DomainError("erosion radius must be nonnegative")
    return IntervalUnion.from_intervals(
        (lo + r, hi - r) for lo, hi in u.intervals if hi - lo >= 2 * r
    )


# -- image measure ----------------------------------------------------------------


def _merge_int_pairs(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pairs.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _image_ints(pl: PLFunction) -> tuple[int, list[tuple[int, int]]]:
    """(denom, merged integer numerator pairs) of the image of a truncation.

    In numerators over the kernel's denom = 4 M_N q_lcm, the image of h_N on
    a level-l half-cell, less its value at the cell's left end, is

        Img(l, s, odd) = U_{i < m_{l+1}} ( 2 s i M_N/M_{l+1}
                                           + Img(l+1, s + a_{l+1} p_i, p_i) ),
        p_i = (odd * m_{l+1} + i) mod 2,

    with slope numerator s, odd the parity of the half-cell's index and
    Img(N, s, .) = hull{0, 2s}: sub-cell i is the right half of its level-(l+1)
    cell exactly when p_i = 1, and every f_n with n > l vanishes at each
    level-l half-cell's left end. The parity is folded to 0 unless m_{l+1} is
    odd. Keys are collected top-down, then shapes are built bottom-up.
    """
    denom, a, _, _, _ = pl.kernel()
    params, top = pl.params, pl.level
    size = params.grid_size(top)
    m = [0] + [params.refinement_factor(n) for n in range(1, top + 1)]

    def key(slope: int, odd: int, level: int) -> tuple[int, int]:
        return slope, (odd if level < top and m[level + 1] % 2 else 0)

    def children(slope: int, odd: int, level: int):
        """Child keys of the m_{level+1} sub-half-cells of a level-l half-cell."""
        for i in range(m[level + 1]):
            p = (odd * m[level + 1] + i) % 2
            yield key(slope + a[level + 1] * p, p, level + 1)

    keys = [{key(a[0], odd, 0) for odd in (0, 1)}]
    for level in range(top):
        keys.append({c for s, odd in keys[level] for c in children(s, odd, level)})

    shapes = {k: [(min(0, 2 * k[0]), max(0, 2 * k[0]))] for k in keys[top]}
    for level in range(top - 1, -1, -1):
        step = 2 * size // params.grid_size(level + 1)
        shapes = {
            (s, odd): _stack([shapes[c] for c in children(s, odd, level)], s * step)
            for s, odd in keys[level]
        }
    # the two level-0 half-cells; f_0 has slope 1 on both
    halves = [shapes[key(a[0], odd, 0)] for odd in (0, 1)]
    return denom, _stack(halves, 2 * a[0] * size)


def _stack(shapes: list[list[tuple[int, int]]], step: int) -> list[tuple[int, int]]:
    """Merged union of shapes[i] shifted by i * step."""
    out: list[tuple[int, int]] = []
    for i, shape in enumerate(shapes):
        d = i * step
        out.extend([(lo + d, hi + d) for lo, hi in shape])
    return _merge_int_pairs(out)


def image_measure(
    pl: PLFunction, *, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> tuple[IntervalUnion, Fraction]:
    """Exact image (interval union) and Lebesgue measure of a truncation."""
    if pl.piece_count > piece_budget:
        raise BudgetExceeded("pieces", pl.piece_count, piece_budget)
    denom, merged = _image_ints(pl)
    union = IntervalUnion(
        tuple((Fraction(lo, denom), Fraction(hi, denom)) for lo, hi in merged)
    )
    return union, Fraction(sum(hi - lo for lo, hi in merged), denom)


# -- certified brackets ---------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    level: int
    delta_mu: Fraction
    bound: Fraction

    @property
    def holds(self) -> bool:
        return self.delta_mu <= self.bound


@dataclass(frozen=True)
class MeasureBracket:
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


def projection_bracket(
    params: ParameterSet,
    functional: Functional,
    level: int,
    *,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> MeasureBracket:
    """Certified bracket [mu_N - 2 T_N, mu_N + 2 T_N] for the projection.

    The per-level stability chain |mu_{k+1} - mu_k| <= 2 |c_{k+1}| is checked
    for every k < N and returned as part of the certificate. The level, the
    tail certificate and the level-N piece budget are checked before any
    image is computed.
    """
    if not 0 <= level <= params.n_max:
        raise DomainError(f"level {level} outside [0, {params.n_max}]")
    build_pl(params, functional, level, piece_budget=piece_budget)
    mus: list[Fraction] = []
    for k in range(level + 1):
        pl = build_pl(params, functional, k, piece_budget=piece_budget)
        denom, merged = _image_ints(pl)
        mus.append(Fraction(sum(hi - lo for lo, hi in merged), denom))
    chain = tuple(
        ChainLink(k + 1, abs(mus[k + 1] - mus[k]), 2 * abs(functional.coeff(k + 1)))
        for k in range(level)
    )
    tail = functional.abs_tail_upper(level)
    mu = mus[-1]
    return MeasureBracket(
        level=level,
        mu=mu,
        tail_upper=tail,
        lower=mu - 2 * tail,
        upper=mu + 2 * tail,
        piece_count=2 * params.grid_size(level),
        chain=chain,
        mu_levels=tuple(mus),
    )


def directional_measure(
    params: ParameterSet,
    functional: Functional,
    direction: tuple[Fraction, Fraction],
    level: int,
    *,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> MeasureBracket:
    """Bracket for the image of t |-> p*t + q*h(t) in a rational direction.

    Reuses the projection machinery on the combined coefficient family
    (p + q*c_0, q*c_1, ...); the tail scales by |q| inside the combination.
    """
    p, q = direction
    combined = functional.with_direction(Fraction(p), Fraction(q))
    return projection_bracket(params, combined, level, piece_budget=piece_budget)


# -- covering sums ----------------------------------------------------------------


@dataclass(frozen=True)
class CoveringReport:
    grid_level: int
    truncation_level: int
    sum_upper: Fraction
    norm_bound_upper: Fraction

    @property
    def within_norm_bound(self) -> bool:
        return self.sum_upper <= self.norm_bound_upper


def hausdorff_upper(
    params: ParameterSet,
    truncation_level: int,
    grid_level: int,
    *,
    cell_budget: int = DEFAULT_COMPONENT_BUDGET,
) -> CoveringReport:
    """Upper enclosure of the level-n covering sum of image diameters.

    Per cell, each component oscillates by at most the cell length (exact
    oscillations are computed from endpoint values and left limits), the
    oscillations combine in the model norm, and the discarded levels
    contribute a certified tail. The sum must stay within the enclosure of
    the unit-box norm bound.
    """
    n, N = grid_level, truncation_level
    if not 0 <= n <= N <= params.n_max:
        raise DomainError(
            f"need 0 <= grid level <= truncation level <= n_max, got {n}, {N}"
        )
    size = params.grid_size(n)
    if size > cell_budget:
        raise BudgetExceeded("cells", size, cell_budget)

    alphas = [params.alpha_term(k) for k in range(N + 1)]
    # constant per-cell contribution of the fully-periodic levels n < k <= N
    if params.model == "L2":
        periodic_sq = sum(
            (
                (alphas[k] / (2 * params.grid_size(k))) ** 2
                for k in range(n + 1, N + 1)
            ),
            Fraction(0),
        )
        tail_sq = params.point_tail_l2sq_upper(N)
        total = Fraction(0)
        for idx in range(size):
            a = Fraction(idx, size)
            b = Fraction(idx + 1, size)
            cell_sq = periodic_sq + tail_sq
            for k in range(n + 1):
                osc = _component_left_limit(params, k, b) - _component(params, k, a)
                cell_sq += (alphas[k] * osc) ** 2
            total += sqrt_upper(cell_sq, params.sqrt_bits)
        norm_hi = sqrt_upper(params.box_norm_sq_enclosure()[1], params.sqrt_bits)
    else:
        periodic = sum(
            (alphas[k] / (2 * params.grid_size(k)) for k in range(n + 1, N + 1)),
            Fraction(0),
        )
        tail = params.point_tail_l1_upper(N)
        total = Fraction(0)
        for idx in range(size):
            a = Fraction(idx, size)
            b = Fraction(idx + 1, size)
            cell = periodic + tail
            for k in range(n + 1):
                osc = _component_left_limit(params, k, b) - _component(params, k, a)
                cell += alphas[k] * osc
            total += cell
        norm_hi = params.box_norm_enclosure()[1]

    return CoveringReport(
        grid_level=n,
        truncation_level=N,
        sum_upper=total,
        norm_bound_upper=norm_hi,
    )
