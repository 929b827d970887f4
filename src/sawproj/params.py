"""Construction parameters and the refinement grid hierarchy.

A parameter set couples a nonnegative coefficient sequence (the per-level
scales, index 0 fixed to 1) with a rule producing even refinement factors
m_n. Level n partitions [0, 1) into M_n = m_1 * ... * m_n half-open cells;
level n+1 refines each cell exactly m_{n+1}-fold.

Everything here is a pure function of immutable inputs; certified norm
statements read the sequence rule's whole-series enclosure ``series_sum`` at
power 1 (l1) or 2 (squared l2). Every command imports this module;
``validate`` and the block partition live in ``certificates``, which only
``validate`` loads.

``point_nums``, the one pointwise evaluation of the sawtooth components f_n,
lives here beside the grid sizes it reads. For t = A/B, r = (M_n A) mod B,

    f_n(t) = (2r - B) / (2 B M_n)  when 2r >= B,  and 0 otherwise,

and the left limit at a level-n grid point (r = 0) is 1/(2 M_n): B replaces
2r - B. Its callers check t and the level and build one ``Fraction`` per
value.

The point tails past n_max rest on M_n >= 2**(n - n_max) M_{n_max}, that is on
m_n >= 2 for every n > n_max, which ``RefinementRule.doubles_past`` states once;
without it they raise ``CertificationError``. An explicit rule is checked on its
listed factors and assumed to hold past its list.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CertificationError, DomainError
from .rational import DEFAULT_SQRT_BITS, sqrt_lower, sqrt_upper
from .sequences import Enclosure, SequenceRule, geometric, harmonic

ALPHA0 = Fraction(1)

L1 = "L1"
L2 = "L2"

# M_n grows super-exponentially (584 digits at n = 256 under m_n = 2n); deeper
# sets outgrow Python's 4300-digit int-to-string limit, or time, or memory
N_MAX_CEILING = 256


class _RefinementRule(NamedTuple):
    kind: str  # "linear" (m_n = k*n), "constant" (m_n = k), "explicit"
    k: int = 0
    values: tuple[int, ...] = ()


class RefinementRule(_RefinementRule):
    """Rule producing the per-level refinement factors m_n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace check too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("linear", "constant", "explicit"):
            raise DomainError(f"unknown refinement kind {self.kind!r}")
        return self

    def factor(self, n: int) -> int:
        if n < 1:
            raise DomainError(f"refinement factors start at n = 1, got {n}")
        if self.kind == "linear":
            return self.k * n
        if self.kind == "constant":
            return self.k
        if n <= len(self.values):
            return self.values[n - 1]
        raise DomainError(
            f"explicit refinement rule has {len(self.values)} factors, got n = {n}"
        )

    def doubles_past(self, n: int) -> bool:
        """Whether m_j >= 2 for every j > n >= 1, so that M_j >= 2**(j - n) M_n: linear
        (m_j = k j) iff k >= 1, constant iff k >= 2. An explicit rule checks its listed
        factors past n and is assumed to hold past its list, which it does not state."""
        if self.kind == "linear":
            return self.k >= 1
        if self.kind == "constant":
            return self.k >= 2
        return all(v >= 2 for v in self.values[n:])


def linear_refinement(k: int) -> RefinementRule:
    return RefinementRule("linear", k=k)


def constant_refinement(k: int) -> RefinementRule:
    return RefinementRule("constant", k=k)


def explicit_refinement(values) -> RefinementRule:
    return RefinementRule("explicit", values=tuple(int(v) for v in values))


class _ParameterSet(NamedTuple):
    alpha: SequenceRule
    m: RefinementRule
    n_max: int
    model: str
    sqrt_bits: int = DEFAULT_SQRT_BITS


class ParameterSet(_ParameterSet):
    """Checked parameters; ``grid_sizes`` (M_0 .. M_n_max) is set once, outside the fields."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _make and _replace check too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_max < 1:
            raise DomainError("n_max must be at least 1")
        if self.n_max > N_MAX_CEILING:
            raise DomainError(f"n_max = {self.n_max} exceeds the ceiling {N_MAX_CEILING}")
        if self.model not in (L1, L2):
            raise DomainError(f"model must be {L1!r} or {L2!r}, got {self.model!r}")
        if self.sqrt_bits < 1:
            raise DomainError(f"sqrt_precision_bits must be at least 1, got {self.sqrt_bits}")
        pointwise = self.alpha.max_pointwise_index()
        if pointwise is not None and pointwise < self.n_max:
            raise DomainError(
                f"alpha rule defines {pointwise} terms but n_max = {self.n_max}"
            )
        sizes = [1]
        for n in range(1, self.n_max + 1):
            f = self.m.factor(n)
            if f < 1:
                raise DomainError(f"refinement factor m_{n} = {f} must be positive")
            sizes.append(sizes[-1] * f)
        object.__setattr__(self, "grid_sizes", tuple(sizes))
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: a ParameterSet is immutable")

    # -- grid geometry ---------------------------------------------------------

    def grid_size(self, n: int) -> int:
        """M_n, the number of level-n cells."""
        if not 0 <= n <= self.n_max:
            raise DomainError(f"level {n} outside [0, {self.n_max}]")
        return self.grid_sizes[n]

    def refinement_factor(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"level {n} outside [1, {self.n_max}]")
        return self.m.factor(n)

    def alpha_term(self, n: int) -> Fraction:
        return ALPHA0 if n == 0 else self.alpha.term(n)

    # -- certified norm data ---------------------------------------------------

    def box_norm_sq_enclosure(self) -> Enclosure:
        """Enclosure of the squared sup-norm over the unit coefficient box.

        In the l2 coordinate model the supremum of ||sum c_n x_n|| over
        |c_n| <= 1 is (1 + sum alpha_n**2)**(1/2); this returns the square.
        """
        lo, hi = self.alpha.series_sum(self.n_max, 2)
        return 1 + lo, 1 + hi

    def box_norm_enclosure(self) -> Enclosure:
        """Enclosure of the sup-norm over the unit coefficient box, per model."""
        if self.model == L2:
            sq_lo, sq_hi = self.box_norm_sq_enclosure()
            return (
                sqrt_lower(sq_lo, self.sqrt_bits),
                sqrt_upper(sq_hi, self.sqrt_bits),
            )
        lo, hi = self.alpha.series_sum(self.n_max, 1)
        return 1 + lo, 1 + hi

    # -- model-norm tails of embedded points ------------------------------------

    def _point_head(self, level: int, power: int) -> Fraction:
        """sum_{level < n <= n_max} (alpha_n / (2 M_n))**power, exactly."""
        self.grid_size(level)  # refuses a level outside [0, n_max]
        return sum(
            ((self.alpha.term(n) / (2 * self.grid_sizes[n])) ** power
             for n in range(level + 1, self.n_max + 1)),
            Fraction(0),
        )

    def _doubling_size(self) -> int:
        """M_{n_max}, once the rule states m_n >= 2 for every n > n_max; the point tails
        bound the levels past n_max by M_n >= 2**(n - n_max) M_{n_max}."""
        if not self.m.doubles_past(self.n_max):
            raise CertificationError(
                f"no certified point tail: m_n >= 2 for every n > n_max = {self.n_max} "
                f"does not hold for this {self.m.kind} refinement rule"
            )
        return self.grid_size(self.n_max)

    def point_tail_l1_upper(self, level: int) -> Fraction:
        """Upper bound on sum_{n > level} alpha_n / (2 M_n).

        Terms with n <= n_max are summed exactly. Beyond n_max the grid sizes
        satisfy M_n >= 2**(n - n_max) * M_{n_max} (``_doubling_size``), so the
        remainder is bounded by min(sup-term route, l1-tail route).
        """
        exact = self._point_head(level, 1)
        m_last = self._doubling_size()
        bounds = []
        sup = self.alpha.term_bound_after(self.n_max)
        if sup is not None:
            # sum_{k>=1} sup * 2**-k / (2 M_nmax) * 2 = sup / (2 M_nmax) * sum 2**-(k-1)
            bounds.append(sup / (2 * m_last))
        enc = self.alpha.tail_enclosure(self.n_max, 1)
        if enc is not None:
            bounds.append(enc[1] / (4 * m_last))
        if not bounds:
            raise CertificationError("no certified bound for the point l1 tail")
        return exact + min(bounds)

    def point_tail_l2sq_upper(self, level: int) -> Fraction:
        """Upper bound on sum_{n > level} (alpha_n / (2 M_n))**2."""
        exact = self._point_head(level, 2)
        m_last = self._doubling_size()
        tail = self.alpha.certified_tail(self.n_max, 2)[1]
        return exact + tail / (16 * m_last**2)


def point_nums(sizes: tuple[int, ...], num: int, den: int, left: bool = False) -> list[int]:
    """(f_0(t), ..., f_N(t)) at t = num/den, or their left limits, as numerators over
    2 den M_N, where sizes are M_0, ..., M_N: the formulas above scaled by M_N/M_n."""
    top = sizes[-1]
    out = [2 * top * num]
    for size in sizes[1:]:
        r = size * num % den
        u = den if left and r == 0 else 2 * r - den
        out.append(top // size * u if u > 0 else 0)
    return out


def point_nums_at(params: ParameterSet, level: int, t, left: bool = False) -> tuple[list, int]:
    """``point_nums`` of levels 0..level at t (a float converted exactly) and their
    scale 2 den(t) M_level; t and the level are checked by the caller."""
    t = Fraction(t)
    sizes = params.grid_sizes[: level + 1]
    return point_nums(sizes, t.numerator, t.denominator, left), 2 * t.denominator * sizes[-1]


def harmonic_l2_preset(n_max: int = 8) -> ParameterSet:
    """Scales 1/(2n) on grids refined by m_n = 2n, l2 model."""
    return ParameterSet(harmonic(Fraction(1, 2)), linear_refinement(2), n_max, model=L2)


def geometric_l1_preset(n_max: int = 12) -> ParameterSet:
    """Scales 1/2**(n+1) on grids refined by m_n = 2n, l1 model."""
    half = Fraction(1, 2)
    return ParameterSet(geometric(half, half), linear_refinement(2), n_max, model=L1)
