"""Construction parameters, the refinement grid hierarchy, and validation.

A parameter set couples a nonnegative coefficient sequence (the per-level
scales, index 0 fixed to 1) with a rule producing even refinement factors
m_n. Level n partitions [0, 1) into M_n = m_1 * ... * m_n half-open cells;
level n+1 refines each cell exactly m_{n+1}-fold.

Everything here is a pure function of immutable inputs; certified norm
statements combine exact partial sums with the closed-form tail enclosures
of the sequence rules.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import CertificationError, DomainError
from .rational import DEFAULT_SQRT_BITS, sqrt_enclosure, sqrt_lower, sqrt_upper
from .sequences import Enclosure, SequenceRule, geometric, harmonic

ALPHA0 = Fraction(1)

L1 = "L1"
L2 = "L2"


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

    def alpha_l2sq_enclosure(self) -> Enclosure:
        """Enclosure of sum_{n>=1} alpha_n**2 (partial sum + tail bracket)."""
        tail = self.alpha.l2sq_tail_enclosure(self.n_max)
        if tail is None:
            raise CertificationError("alpha has no certified squared-l2 tail bound")
        partial = self.alpha.l2sq_partial(self.n_max)
        return partial + tail[0], partial + tail[1]

    def alpha_l1_enclosure(self) -> Optional[Enclosure]:
        tail = self.alpha.l1_tail_enclosure(self.n_max)
        if tail is None:
            return None
        partial = self.alpha.l1_partial(self.n_max)
        return partial + tail[0], partial + tail[1]

    def box_norm_sq_enclosure(self) -> Enclosure:
        """Enclosure of the squared sup-norm over the unit coefficient box.

        In the l2 coordinate model the supremum of ||sum c_n x_n|| over
        |c_n| <= 1 is (1 + sum alpha_n**2)**(1/2); this returns the square.
        """
        lo, hi = self.alpha_l2sq_enclosure()
        return 1 + lo, 1 + hi

    def box_norm_enclosure(self) -> Enclosure:
        """Enclosure of the sup-norm over the unit coefficient box, per model."""
        if self.model == L2:
            sq_lo, sq_hi = self.box_norm_sq_enclosure()
            return (
                sqrt_lower(sq_lo, self.sqrt_bits),
                sqrt_upper(sq_hi, self.sqrt_bits),
            )
        enc = self.alpha_l1_enclosure()
        if enc is None:
            raise CertificationError("alpha has no certified l1 tail bound")
        return 1 + enc[0], 1 + enc[1]

    # -- model-norm tails of embedded points ------------------------------------

    def point_tail_l1_upper(self, level: int) -> Fraction:
        """Upper bound on sum_{n > level} alpha_n / (2 M_n).

        Terms with n <= n_max are summed exactly. Beyond n_max the grid sizes
        are unknown but satisfy M_n >= 2**(n - n_max) * M_{n_max}, so the
        remainder is bounded by min(sup-term route, l1-tail route).
        """
        if not 0 <= level <= self.n_max:
            raise DomainError(f"level {level} outside [0, {self.n_max}]")
        exact = sum(
            (
                self.alpha.term(n) / (2 * self.grid_size(n))
                for n in range(level + 1, self.n_max + 1)
            ),
            Fraction(0),
        )
        m_last = self.grid_size(self.n_max)
        bounds = []
        sup = self.alpha.term_bound_after(self.n_max)
        if sup is not None:
            # sum_{k>=1} sup * 2**-k / (2 M_nmax) * 2 = sup / (2 M_nmax) * sum 2**-(k-1)
            bounds.append(sup / (2 * m_last))
        enc = self.alpha.l1_tail_enclosure(self.n_max)
        if enc is not None:
            bounds.append(enc[1] / (4 * m_last))
        if not bounds:
            raise CertificationError("no certified bound for the point l1 tail")
        return exact + min(bounds)

    def point_tail_l2sq_upper(self, level: int) -> Fraction:
        """Upper bound on sum_{n > level} (alpha_n / (2 M_n))**2."""
        if not 0 <= level <= self.n_max:
            raise DomainError(f"level {level} outside [0, {self.n_max}]")
        exact = sum(
            (
                (self.alpha.term(n) / (2 * self.grid_size(n))) ** 2
                for n in range(level + 1, self.n_max + 1)
            ),
            Fraction(0),
        )
        m_last = self.grid_size(self.n_max)
        tail = self.alpha.l2sq_tail_upper(self.n_max)
        return exact + tail / (16 * m_last**2)


# -- validation ----------------------------------------------------------------

CHECK_EVEN_REFINEMENT = "even_refinement"
CHECK_ALPHA_M_INTEGER = "alpha_m_integer"
CHECK_L2_NORM = "l2_norm"
CHECK_BOX_NORM = "box_norm"
CHECK_L1_NORM = "l1_norm"
CHECK_TAIL_CERTIFIED = "tail_certified"


class CheckResult(NamedTuple):
    kind: str
    passed: bool
    detail: str


class ValidationReport(NamedTuple):
    passed: bool
    checks: tuple[CheckResult, ...]

    def failure_kinds(self) -> set[str]:
        return {c.kind for c in self.checks if not c.passed}


def validate(params: ParameterSet) -> ValidationReport:
    """Check every parameter invariant up to n_max with exact witnesses.

    Norm conditions are certified by exact partial sums plus the rule's
    closed-form tail bound; an explicit rule without the needed tail bound
    fails the "tail_certified" check rather than passing silently.
    """
    checks: list[CheckResult] = []

    def check(kind: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(kind, passed, detail))

    odd = [
        (n, params.refinement_factor(n))
        for n in range(1, params.n_max + 1)
        if params.refinement_factor(n) % 2 == 1
    ]
    check(
        CHECK_EVEN_REFINEMENT,
        not odd,
        "odd factors: " + ", ".join(f"m_{n}={v}" for n, v in odd)
        if odd
        else "all refinement factors even",
    )

    if params.model == L2:
        bad = []
        for n in range(1, params.n_max + 1):
            prod = params.alpha_term(n) * params.refinement_factor(n)
            if prod.denominator != 1 or prod <= 0:
                bad.append((n, prod))
        check(
            CHECK_ALPHA_M_INTEGER,
            not bad,
            "non-integer products: " + ", ".join(f"n={n}: {v}" for n, v in bad)
            if bad
            else "alpha_n * m_n is a positive integer for all n",
        )
        if params.alpha.l2sq_tail_enclosure(params.n_max) is None:
            check(CHECK_TAIL_CERTIFIED, False, "alpha has no certified squared-l2 tail bound")
        else:
            check(CHECK_TAIL_CERTIFIED, True, "squared-l2 tail certified")
            _, hi = params.alpha_l2sq_enclosure()
            check(CHECK_L2_NORM, hi < 1, f"sum alpha_n^2 <= {hi} (slack {1 - hi})")
            _, box_hi = params.box_norm_sq_enclosure()
            check(
                CHECK_BOX_NORM,
                box_hi < 4,
                f"1 + sum alpha_n^2 <= {box_hi} (slack {4 - box_hi})",
            )
    elif params.alpha.l1_tail_enclosure(params.n_max) is None:
        if params.alpha.l1_diverges():
            check(CHECK_TAIL_CERTIFIED, False, "alpha l1 tail diverges")
        else:
            check(CHECK_TAIL_CERTIFIED, False, "alpha has no certified l1 tail bound")
    else:
        check(CHECK_TAIL_CERTIFIED, True, "l1 tail certified")
        _, hi = params.alpha_l1_enclosure()
        check(CHECK_L1_NORM, hi < 1, f"sum alpha_n <= {hi} (slack {1 - hi})")

    return ValidationReport(all(c.passed for c in checks), tuple(checks))


# -- block partition -------------------------------------------------------------


class Block(NamedTuple):
    start: int  # 1-based, inclusive
    end: int  # inclusive
    sq_sum: Fraction
    threshold_sq: Optional[Fraction]  # tail bound this block's end had to meet


class CertLine(NamedTuple):
    label: str
    lhs: Fraction
    relation: str  # "<=" or "<"
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs < self.rhs


class BlockPartition(NamedTuple):
    """Consecutive index blocks with a squared-inequality certificate.

    The greedy rule: delta is a rational lower bound of (c - 1)*||alpha||/4
    with c = (1 + eps)**(1/2); block 1 is the minimal prefix whose certified
    tail bound drops to delta**2, and block m >= 2 is the minimal next segment
    whose remaining tail bound drops to (delta * 2**-(m-1))**2. Each block's
    exact squared sum is then at most the previous threshold, so the block
    norms beyond the first sum to at most 2*delta, and

        sum_m ||alpha restricted to A_m|| <= U + 2*delta < c_lo * L

    where [L, U] encloses ||alpha|| and c_lo <= c. Blocks not returned
    explicitly are covered by the same geometric argument, recorded in
    ``continuation_threshold``.
    """

    rule: SequenceRule
    eps: Fraction
    sqrt_bits: int
    max_blocks: int
    blocks: tuple[Block, ...]
    delta: Fraction
    c_lo: Fraction
    norm_lo: Fraction
    norm_hi: Fraction
    exhausted: bool  # certified tail hit exactly zero; no further blocks exist
    continuation_threshold: Fraction
    certificate: tuple[CertLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.holds for line in self.certificate)

    def verify(self) -> bool:
        """Re-run the greedy construction and certificate from scratch."""
        fresh = block_partition(
            self.rule, self.eps, sqrt_bits=self.sqrt_bits, max_blocks=self.max_blocks
        )
        return fresh == self and fresh.passed


def _minimal_tail_index(rule: SequenceRule, start: int, threshold_sq: Fraction) -> int:
    """Minimal N >= start with certified l2sq tail(N) <= threshold_sq."""
    if rule.l2sq_tail_upper(start) <= threshold_sq:
        return start
    hi = max(start, 1)
    while rule.l2sq_tail_upper(hi) > threshold_sq:
        hi *= 2
        if hi > 2**40:
            raise CertificationError(
                f"tail bound never reaches {threshold_sq}; sequence not certifiably summable"
            )
    lo = max(start, hi // 2)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if rule.l2sq_tail_upper(mid) <= threshold_sq:
            hi = mid
        else:
            lo = mid
    return hi


def block_partition(
    alpha: SequenceRule,
    eps: Fraction,
    *,
    sqrt_bits: int = DEFAULT_SQRT_BITS,
    max_blocks: int = 3,
) -> BlockPartition:
    if eps <= 0:
        raise DomainError("eps must be positive")
    if max_blocks < 1:
        raise DomainError("max_blocks must be at least 1")
    anchor = alpha.max_pointwise_index()
    if anchor is None:
        anchor = 16
    tail_anchor = alpha.l2sq_tail_enclosure(anchor)
    if tail_anchor is None:
        raise CertificationError("alpha has no certified squared-l2 tail bound")
    s_lo = alpha.l2sq_partial(anchor) + tail_anchor[0]
    s_hi = alpha.l2sq_partial(anchor) + tail_anchor[1]

    norm_lo = sqrt_enclosure(s_lo, sqrt_bits)[0]
    norm_hi = sqrt_enclosure(s_hi, sqrt_bits)[1]
    c_lo = sqrt_enclosure(1 + eps, sqrt_bits)[0]
    delta = (c_lo - 1) * norm_lo / 4
    if delta <= 0:
        raise CertificationError(
            f"delta rounded to {delta} at {sqrt_bits} sqrt bits; raise the precision"
        )

    blocks: list[Block] = []
    cert: list[CertLine] = [CertLine("delta_positive", Fraction(0), "<", delta)]
    prev_end = 0
    prev_threshold: Optional[Fraction] = None
    exhausted = False
    threshold = delta
    for m in itertools.count(1):
        if m > max_blocks:
            break
        end = _minimal_tail_index(alpha, prev_end, threshold**2)
        if end == prev_end:
            # remaining certified tail already under this block's threshold;
            # every further block is empty
            exhausted = alpha.l2sq_tail_upper(prev_end) == 0
            break
        sq = alpha.l2sq_partial(end) - alpha.l2sq_partial(prev_end)
        blocks.append(Block(prev_end + 1, end, sq, threshold**2))
        bound = s_hi if m == 1 else prev_threshold**2
        cert.append(
            CertLine(f"block_{m}_sq", sq, "<=", bound)
        )
        if alpha.l2sq_tail_upper(end) == 0:
            exhausted = True
            break
        prev_end = end
        prev_threshold = threshold
        threshold = threshold / 2

    cert.append(CertLine("total_vs_target", norm_hi + 2 * delta, "<", c_lo * norm_lo))

    return BlockPartition(
        rule=alpha,
        eps=Fraction(eps),
        sqrt_bits=sqrt_bits,
        max_blocks=max_blocks,
        blocks=tuple(blocks),
        delta=delta,
        c_lo=c_lo,
        norm_lo=norm_lo,
        norm_hi=norm_hi,
        exhausted=exhausted,
        continuation_threshold=threshold,
        certificate=tuple(cert),
    )


def harmonic_l2_preset(n_max: int = 8) -> ParameterSet:
    """Scales 1/(2n) on grids refined by m_n = 2n, l2 model."""
    return ParameterSet(harmonic(Fraction(1, 2)), linear_refinement(2), n_max, model=L2)


def geometric_l1_preset(n_max: int = 12) -> ParameterSet:
    """Scales 1/2**(n+1) on grids refined by m_n = 2n, l1 model."""
    half = Fraction(1, 2)
    return ParameterSet(geometric(half, half), linear_refinement(2), n_max, model=L1)
