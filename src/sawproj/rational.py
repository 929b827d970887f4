"""Exact rational helpers: "p/q" parsing and square-root enclosures.

All quantities in this package are `fractions.Fraction` values; floats appear
only as derived display columns. Square roots of rationals are irrational in
general, so comparisons involving them go through interval enclosures whose
width is controlled by a bit count.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DomainError

DEFAULT_SQRT_BITS = 64


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into an exact Fraction."""
    s = text.strip()
    try:
        if "/" in s:
            num, _, den = s.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" form; the denominator is always written."""
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num: int, den: int) -> str:
    """"num/den" as given; an integer past Python's int-to-string limit is a DomainError."""
    try:
        return f"{num}/{den}"
    except ValueError as exc:  # raised only past the limit, which its first clause names
        raise DomainError(str(exc).partition(";")[0]) from None


def sqrt_enclosure(x: Fraction, bits: int = DEFAULT_SQRT_BITS) -> tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of sqrt(x) with hi - lo <= 2**-bits.

    lo**2 <= x <= hi**2 holds exactly; perfect squares give lo == hi.
    """
    if x < 0:
        raise DomainError(f"sqrt of negative rational {x}")
    if bits < 1:
        raise DomainError("enclosure precision must be at least one bit")
    num, den = x.numerator, x.denominator
    scaled = (num * den) << (2 * bits)
    root = isqrt(scaled)
    scale = den << bits
    if root * root == scaled:
        exact = Fraction(root, scale)
        return exact, exact
    return Fraction(root, scale), Fraction(root + 1, scale)


def sqrt_lower(x: Fraction, bits: int = DEFAULT_SQRT_BITS) -> Fraction:
    return sqrt_enclosure(x, bits)[0]


def sqrt_upper(x: Fraction, bits: int = DEFAULT_SQRT_BITS) -> Fraction:
    return sqrt_enclosure(x, bits)[1]
