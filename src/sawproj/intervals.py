"""Exact unions of closed rational intervals, shared by the image engine and the
refinement events: a caller that needs only unions need not load the engine."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError


class IntervalUnion(NamedTuple):
    """Sorted union of disjoint closed intervals [lo/denom, hi/denom].

    One common denominator for all integer pairs; Fractions appear only in
    ``from_intervals``, ``intervals`` and ``measure``. Touching intervals are
    merged on construction; degenerate single points are kept: a zero-slope
    piece maps onto one point, which carries zero measure but belongs to the
    image, so ``contains`` must answer for it exactly. Equality compares sets.
    """

    denom: int
    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_intervals(items: Iterable[tuple[Fraction, Fraction]]) -> "IntervalUnion":
        cleaned = []
        for lo, hi in items:
            if lo > hi:
                raise DomainError(f"interval [{lo}, {hi}] is reversed")
            cleaned.append((Fraction(lo), Fraction(hi)))
        denom = lcm(*(x.denominator for pair in cleaned for x in pair))
        return IntervalUnion.from_pairs(
            denom, [(int(lo * denom), int(hi * denom)) for lo, hi in cleaned]
        )

    @staticmethod
    def from_pairs(denom: int, pairs: list[tuple[int, int]]) -> "IntervalUnion":
        """Union of [lo/denom, hi/denom] over integer pairs with lo <= hi: the one
        merge sweep. Sorts ``pairs`` in place; a pair that stays whole is kept
        as the same tuple object."""
        pairs.sort()
        merged: list[tuple[int, int]] = []
        for pair in pairs:
            if merged and pair[0] <= merged[-1][1]:
                if pair[1] > merged[-1][1]:
                    merged[-1] = (merged[-1][0], pair[1])
            else:
                merged.append(pair)
        return IntervalUnion(denom, tuple(merged))

    def _scaled(self, denom: int) -> Sequence[tuple[int, int]]:
        """The pairs as numerators over denom, a multiple of self.denom."""
        k = denom // self.denom
        return self.pairs if k == 1 else [(lo * k, hi * k) for lo, hi in self.pairs]

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        d = self.denom
        return tuple((Fraction(lo, d), Fraction(hi, d)) for lo, hi in self.pairs)

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.pairs), self.denom)

    @property
    def component_count(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        d, e = self.denom, other.denom
        return len(self.pairs) == len(other.pairs) and all(
            lo * e == olo * d and hi * e == ohi * d
            for (lo, hi), (olo, ohi) in zip(self.pairs, other.pairs)
        )

    __ne__ = object.__ne__  # the negation of __eq__, not tuple inequality

    def __hash__(self) -> int:
        return hash(self.intervals)

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x) * self.denom
        i = bisect_right(self.pairs, x, key=itemgetter(0))
        return i > 0 and x <= self.pairs[i - 1][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Each component of the smaller union bisects into the larger one; of the
        components i..j-1 it meets, only the first and last can stick out of it."""
        denom = lcm(self.denom, other.denom)
        a, b = sorted((self._scaled(denom), other._scaled(denom)), key=len)
        out = []
        for lo, hi in a:
            i, j = bisect_left(b, lo, key=itemgetter(1)), bisect_right(b, hi, key=itemgetter(0))
            if i < j:
                first, last = b[i], b[j - 1]
                out.append((max(lo, first[0]), min(hi, first[1])))
                if i < j - 1:
                    out += b[i + 1 : j - 1]
                    out.append((last[0], min(hi, last[1])))
        # pieces from distinct components never touch, so out needs no merge
        return IntervalUnion(denom, tuple(out))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        denom = lcm(self.denom, other.denom)
        return IntervalUnion.from_pairs(denom, [*self._scaled(denom), *other._scaled(denom)])
