"""Coefficient sequences with certified tail enclosures.

A `SequenceRule` produces nonnegative rational terms indexed from n = 1 and
knows closed-form, two-sided enclosures for its own l1 and squared-l2 tails,
one formula per kind at power p = 1 or 2 (``tail_enclosure``).
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

# the certified series, by power: sum term_n and sum term_n**2
SERIES_NAMES = {1: "l1", 2: "squared-l2"}


def _zeta2_tail_bracket(n: int) -> Enclosure:
    """Enclosure of sum_{n > N} 1/n**2.

    Upper: 1/n^2 < 1/(n-1/2) - 1/(n+1/2) telescopes to 1/(N+1/2).
    Lower (N >= 1): 1/n^2 > 1/(n-1/2+c) - 1/(n+1/2+c) with c = 1/(8N),
    valid since (n+c)^2 - 1/4 >= n^2 for n > N; telescopes to 1/(N+1/2+c).
    """
    if n == 0:
        return Fraction(1), Fraction(2)  # lower: the first term alone
    return 1 / (n + Fraction(1, 2) + Fraction(1, 8 * n)), Fraction(2, 2 * n + 1)


def _zeta4_tail_bracket(n: int) -> Enclosure:
    """Enclosure of sum_{n > N} 1/n**4 by integral comparison."""
    upper = Fraction(4, 3) if n == 0 else Fraction(1, 3 * n**3)
    return Fraction(1, 3 * (n + 1) ** 3), upper


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
            if any(b is not None and b < 0 for b in (self.tail_l1, self.tail_l2sq)):
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

    # -- whole series and certified tails -------------------------------------

    def series_sum(self, split: int, power: int) -> Enclosure:
        """Enclosure of sum_{n>=1} term_n**power: exact terms up to split, the
        certified tail past it."""
        tail_lo, tail_hi = self.certified_tail(split, power)
        head = sum((self.term(n) ** power for n in range(1, split + 1)), Fraction(0))
        return head + tail_lo, head + tail_hi

    def certified_tail(self, n_from: int, power: int) -> Enclosure:
        """``tail_enclosure``, or CertificationError when it is None."""
        enc = self.tail_enclosure(n_from, power)
        if enc is None:
            raise CertificationError(
                f"{self.kind} sequence has no certified {SERIES_NAMES[power]} tail bound"
            )
        return enc

    def tail_enclosure(self, n_from: int, power: int) -> Optional[Enclosure]:
        """Enclosure of sum_{n > N} term_n**power (power 1 or 2), or None when not certifiable.

        Explicit: the stated terms past N, plus the stated tail. Geometric:
        a^p r^(p(N+1)) / (1 - r^p) exactly. Harmonic and inverse-square: a^p
        times the zeta(s) tail with s = p and s = 2p; s = 1 diverges unless a = 0.
        """
        if power not in SERIES_NAMES:
            raise DomainError(f"series power must be 1 or 2, got {power}")
        if self.kind == _EXPLICIT:
            stated = self.tail_l1 if power == 1 else self.tail_l2sq
            if stated is None:
                return None
            rest = sum((v**power for v in self.values[n_from:]), Fraction(0))
            return rest, rest + stated
        scale = self.a**power
        if self.kind == _GEOMETRIC:
            ratio = self.r**power
            exact = scale * ratio ** (n_from + 1) / (1 - ratio)
            return exact, exact
        s = power if self.kind == _HARMONIC else 2 * power
        if s == 1:
            return None if scale else (Fraction(0), Fraction(0))
        lo, hi = (_zeta2_tail_bracket if s == 2 else _zeta4_tail_bracket)(n_from)
        return scale * lo, scale * hi

    def l1_diverges(self) -> bool:
        return self.kind == _HARMONIC and self.a > 0

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
        return self.rule.certified_tail(n_from, 1)[1]


def inverse_square_functional() -> Functional:
    """Coefficients (1/2, 1/4, 1/16, 1/36, ...): c_0 = 1/2, c_n = 1/(4 n^2)."""
    return Functional(alpha0=Fraction(1, 2), rule=inverse_square(Fraction(1, 4)), name="F1")
