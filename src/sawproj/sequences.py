"""Coefficient sequences with certified tail enclosures.

A `SequenceRule` produces nonnegative rational terms indexed from n = 1 and
knows closed-form, two-sided enclosures for its own l1 and squared-l2 tails.
Signs are never part of a rule; a `Functional` attaches them together with the
index-0 coefficient. Every certificate emitted elsewhere in the package
bottoms out in one of the tail formulas here, so each formula states the
comparison it rests on.

Supported kinds:

* ``harmonic``        term_n = a/n        (l1 tail divergent)
* ``geometric``       term_n = a*r**n     (both tails exact closed forms)
* ``inverse_square``  term_n = a/n**2
* ``explicit``        finite list plus caller-stated tail bounds, trusted
                      as stated; the engine never extrapolates terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import CertificationError, DomainError

Enclosure = tuple[Fraction, Fraction]

_HARMONIC = "harmonic"
_GEOMETRIC = "geometric"
_INVERSE_SQUARE = "inverse_square"
_EXPLICIT = "explicit"

KINDS = (_HARMONIC, _GEOMETRIC, _INVERSE_SQUARE, _EXPLICIT)


def _zeta2_tail_bracket(n_from: int) -> Enclosure:
    """Enclosure of sum_{n > N} 1/n**2.

    Upper: 1/n^2 < 1/(n-1/2) - 1/(n+1/2) telescopes to 1/(N+1/2).
    Lower (N >= 1): 1/n^2 > 1/(n-1/2+c) - 1/(n+1/2+c) with c = 1/(8N),
    valid since (n+c)^2 - 1/4 >= n^2 for n > N; telescopes to 1/(N+1/2+c).
    """
    n = n_from
    upper = Fraction(2, 2 * n + 1)
    if n == 0:
        lower = Fraction(1)  # first term alone
    else:
        lower = 1 / (Fraction(n) + Fraction(1, 2) + Fraction(1, 8 * n))
    return lower, upper


def _zeta4_tail_bracket(n_from: int) -> Enclosure:
    """Enclosure of sum_{n > N} 1/n**4 by integral comparison."""
    n = n_from
    upper = Fraction(4, 3) if n == 0 else Fraction(1, 3 * n**3)
    lower = Fraction(1, 3 * (n + 1) ** 3)
    return lower, upper


class _SequenceRule(NamedTuple):
    kind: str
    a: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    values: tuple[Fraction, ...] = ()
    tail_l1: Optional[Fraction] = None
    tail_l2sq: Optional[Fraction] = None


class SequenceRule(_SequenceRule):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace check too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise DomainError(f"unknown sequence kind {self.kind!r}")
        if self.kind in (_HARMONIC, _GEOMETRIC, _INVERSE_SQUARE) and self.a < 0:
            raise DomainError("sequence terms must be nonnegative")
        if self.kind == _GEOMETRIC and not (0 <= self.r < 1):
            raise DomainError("geometric ratio must satisfy 0 <= r < 1")
        if self.kind == _EXPLICIT:
            if any(v < 0 for v in self.values):
                raise DomainError("sequence terms must be nonnegative")
            if self.tail_l1 is not None and self.tail_l1 < 0:
                raise DomainError("tail bounds must be nonnegative")
            if self.tail_l2sq is not None and self.tail_l2sq < 0:
                raise DomainError("tail bounds must be nonnegative")
        return self

    # -- pointwise -----------------------------------------------------------

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise DomainError(f"sequence terms start at n = 1, got {n}")
        if self.kind == _HARMONIC:
            return self.a / n
        if self.kind == _GEOMETRIC:
            return self.a * self.r**n
        if self.kind == _INVERSE_SQUARE:
            return self.a / (n * n)
        if n <= len(self.values):
            return self.values[n - 1]
        raise DomainError(
            f"explicit sequence has {len(self.values)} terms, cannot evaluate term {n}"
        )

    def max_pointwise_index(self) -> Optional[int]:
        """Largest n for which term(n) is defined (None = unbounded)."""
        return len(self.values) if self.kind == _EXPLICIT else None

    # -- whole series ---------------------------------------------------------

    def l1_sum(self, split: int) -> Enclosure:
        """Enclosure of sum_{n>=1} term_n: exact terms up to split, certified tail past it."""
        return self._series(split, 1, self.l1_tail_enclosure(split), "l1")

    def l2sq_sum(self, split: int) -> Enclosure:
        """Enclosure of sum_{n>=1} term_n**2, split as ``l1_sum`` splits."""
        return self._series(split, 2, self.l2sq_tail_enclosure(split), "squared-l2")

    def _series(self, split: int, power: int, tail: Optional[Enclosure], name: str) -> Enclosure:
        if tail is None:
            raise CertificationError(f"{self.kind} sequence has no certified {name} tail bound")
        head = sum((self.term(n) ** power for n in range(1, split + 1)), Fraction(0))
        return head + tail[0], head + tail[1]

    # -- certified tails -----------------------------------------------------

    def l1_tail_enclosure(self, n_from: int) -> Optional[Enclosure]:
        """Enclosure of sum_{n > N} term_n, or None when not certifiable."""
        if self.kind == _HARMONIC:
            return None if self.a > 0 else (Fraction(0), Fraction(0))
        if self.kind == _GEOMETRIC:
            exact = self.a * self.r ** (n_from + 1) / (1 - self.r)
            return exact, exact
        if self.kind == _INVERSE_SQUARE:
            lo, hi = _zeta2_tail_bracket(n_from)
            return self.a * lo, self.a * hi
        if self.tail_l1 is None:
            return None
        rest = sum(
            (self.values[i] for i in range(n_from, len(self.values))), Fraction(0)
        )
        return rest, rest + self.tail_l1

    def l1_tail_upper(self, n_from: int) -> Fraction:
        enc = self.l1_tail_enclosure(n_from)
        if enc is None:
            raise CertificationError(
                f"{self.kind} sequence has no certified l1 tail bound"
            )
        return enc[1]

    def l1_diverges(self) -> bool:
        return self.kind == _HARMONIC and self.a > 0

    def l2sq_tail_enclosure(self, n_from: int) -> Optional[Enclosure]:
        """Enclosure of sum_{n > N} term_n**2, or None when not certifiable."""
        if self.kind == _HARMONIC:
            lo, hi = _zeta2_tail_bracket(n_from)
            return self.a**2 * lo, self.a**2 * hi
        if self.kind == _GEOMETRIC:
            exact = self.a**2 * self.r ** (2 * (n_from + 1)) / (1 - self.r**2)
            return exact, exact
        if self.kind == _INVERSE_SQUARE:
            lo, hi = _zeta4_tail_bracket(n_from)
            return self.a**2 * lo, self.a**2 * hi
        if self.tail_l2sq is None:
            return None
        rest = sum(
            (self.values[i] ** 2 for i in range(n_from, len(self.values))), Fraction(0)
        )
        return rest, rest + self.tail_l2sq

    def l2sq_tail_upper(self, n_from: int) -> Fraction:
        enc = self.l2sq_tail_enclosure(n_from)
        if enc is None:
            raise CertificationError(
                f"{self.kind} sequence has no certified squared-l2 tail bound"
            )
        return enc[1]

    def term_bound_after(self, n_from: int) -> Optional[Fraction]:
        """Upper bound on sup_{n > N} term_n, or None when unknown.

        The closed-form kinds are nonincreasing, so the next term bounds the
        supremum; an explicit rule knows its suffix only when the stated tail
        is zero.
        """
        if self.kind in (_HARMONIC, _GEOMETRIC, _INVERSE_SQUARE):
            return self.term(n_from + 1)
        if self.tail_l1 == 0:
            rest = self.values[n_from:]
            return max(rest) if rest else Fraction(0)
        return None


def harmonic(a: Fraction) -> SequenceRule:
    return SequenceRule(_HARMONIC, a=Fraction(a))


def geometric(a: Fraction, r: Fraction) -> SequenceRule:
    return SequenceRule(_GEOMETRIC, a=Fraction(a), r=Fraction(r))


def inverse_square(a: Fraction) -> SequenceRule:
    return SequenceRule(_INVERSE_SQUARE, a=Fraction(a))


def explicit(values, tail_l1=None, tail_l2sq=None) -> SequenceRule:
    return SequenceRule(
        _EXPLICIT,
        values=tuple(Fraction(v) for v in values),
        tail_l1=None if tail_l1 is None else Fraction(tail_l1),
        tail_l2sq=None if tail_l2sq is None else Fraction(tail_l2sq),
    )


class _Functional(NamedTuple):
    alpha0: Fraction
    rule: SequenceRule
    sign: int = 1
    signs: tuple[int, ...] = ()
    name: str = ""


class Functional(_Functional):
    """A scalar coefficient family (c_0, c_1, c_2, ...).

    c_0 is signed and free; |c_n| = rule.term(n) for n >= 1, with the sign
    given by ``sign`` times an optional per-index sign vector. Tail bounds of
    the rule therefore bound the absolute coefficient tails directly.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace check too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sign not in (-1, 1):
            raise DomainError("sign must be +1 or -1")
        if any(s not in (-1, 1) for s in self.signs):
            raise DomainError("per-index signs must be +1 or -1")
        return self

    def coeff(self, n: int) -> Fraction:
        if n == 0:
            return self.alpha0
        s = self.sign
        if n - 1 < len(self.signs):
            s *= self.signs[n - 1]
        return s * self.rule.term(n)

    def coeffs(self, n_to: int) -> tuple[Fraction, ...]:
        return tuple(self.coeff(n) for n in range(n_to + 1))

    def abs_tail_upper(self, n_from: int) -> Fraction:
        return self.rule.l1_tail_upper(n_from)


def inverse_square_functional() -> Functional:
    """Coefficients (1/2, 1/4, 1/16, 1/36, ...): c_0 = 1/2, c_n = 1/(4 n^2)."""
    return Functional(alpha0=Fraction(1, 2), rule=inverse_square(Fraction(1, 4)), name="F1")
