"""Certificates about a parameter set and its limit set: validation, the
block partition and covering sums.

``validate`` checks every parameter invariant up to n_max with exact
witnesses. ``block_partition`` builds the greedy block-norm certificate
sum_m ||alpha|A_m|| < (1 + eps)^(1/2) ||alpha||. ``hausdorff_upper`` bounds
the level-n covering sum of image diameters, the route to finite H^1, reading
the components through ``params.point_nums``.

Only the ``validate`` command and library callers import this module, so no
other command compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple, Optional

from .errors import DEFAULT_COMPONENT_BUDGET, BudgetExceeded, CertificationError, DomainError
from .params import L2, ParameterSet, point_nums
from .rational import DEFAULT_SQRT_BITS, sqrt_enclosure, sqrt_upper
from .sequences import SERIES_NAMES, SequenceRule

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

    Norm conditions are certified by one ``series_sum`` at the model's power,
    1 for L1 and 2 for L2; an explicit rule without the needed tail bound
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

    power = 2 if params.model == L2 else 1
    if power == 2:
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
    name = SERIES_NAMES[power]
    try:
        _, hi = params.alpha.series_sum(params.n_max, power)
    except CertificationError:
        if params.alpha.l1_diverges():  # only an l1 tail diverges
            check(CHECK_TAIL_CERTIFIED, False, "alpha l1 tail diverges")
        else:
            check(CHECK_TAIL_CERTIFIED, False, f"alpha has no certified {name} tail bound")
    else:
        check(CHECK_TAIL_CERTIFIED, True, f"{name} tail certified")
        norm, term = (CHECK_L2_NORM, "alpha_n^2") if power == 2 else (CHECK_L1_NORM, "alpha_n")
        check(norm, hi < 1, f"sum {term} <= {hi} (slack {1 - hi})")
        if power == 2:  # the box norm squared is 1 + sum alpha_n^2
            check(CHECK_BOX_NORM, hi < 3, f"1 + sum alpha_n^2 <= {1 + hi} (slack {3 - hi})")

    return ValidationReport(all(c.passed for c in checks), tuple(checks))


# -- block partition -------------------------------------------------------------


class Block(NamedTuple):
    """Block A_m = [start, end]. ``sq_sum`` bounds its squared sum from above: it is
    ``s_hi``, the bound on the whole sum, for block 1, and for block m >= 2 the
    certified squared tail past block m - 1, which contains it."""

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
    whose remaining tail bound drops to (delta * 2**-(m-1))**2. Block m >= 2
    lies in the certified tail past block m - 1, which the greedy step bounded
    by the previous threshold squared, so the block norms beyond the first sum
    to at most 2*delta, and no exact partial sum over a block is taken:

        sum_m ||alpha restricted to A_m|| <= U + 2*delta < c_lo * L

    where [L, U] encloses ||alpha|| and c_lo <= c. Blocks not returned
    explicitly are covered by the same geometric argument, recorded in
    ``continuation_threshold``.
    """

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


def _minimal_tail_index(rule: SequenceRule, start: int, threshold_sq: Fraction) -> int:
    """Minimal N >= start with certified squared-l2 tail(N) <= threshold_sq."""
    if rule.certified_tail(start, 2)[1] <= threshold_sq:
        return start
    hi = max(start, 1)
    while rule.certified_tail(hi, 2)[1] > threshold_sq:
        hi *= 2
        if hi > 2**40:
            raise CertificationError(
                f"tail bound never reaches {threshold_sq}; sequence not certifiably summable"
            )
    lo = max(start, hi // 2)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if rule.certified_tail(mid, 2)[1] <= threshold_sq:
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
    s_lo, s_hi = alpha.series_sum(anchor, 2)

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
    for m in range(1, max_blocks + 1):
        end = _minimal_tail_index(alpha, prev_end, threshold**2)
        if end == prev_end:
            # remaining certified tail already under this block's threshold;
            # every further block is empty
            exhausted = alpha.certified_tail(prev_end, 2)[1] == 0
            break
        sq = s_hi if m == 1 else alpha.certified_tail(prev_end, 2)[1]
        blocks.append(Block(prev_end + 1, end, sq, threshold**2))
        cert.append(CertLine(f"block_{m}_sq", sq, "<=", s_hi if m == 1 else prev_threshold**2))
        if alpha.certified_tail(end, 2)[1] == 0:
            exhausted = True
            break
        prev_end = end
        prev_threshold = threshold
        threshold = threshold / 2

    cert.append(CertLine("total_vs_target", norm_hi + 2 * delta, "<", c_lo * norm_lo))

    return BlockPartition(
        blocks=tuple(blocks),
        delta=delta,
        c_lo=c_lo,
        norm_lo=norm_lo,
        norm_hi=norm_hi,
        exhausted=exhausted,
        continuation_threshold=threshold,
        certificate=tuple(cert),
    )


# -- covering sums ----------------------------------------------------------------


class CoveringReport(NamedTuple):
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

    # per cell: squares under a root (L2) or a plain sum (L1)
    if params.model == L2:
        combine, tail = (lambda x: x * x), params.point_tail_l2sq_upper(N)
        cell_norm = partial(sqrt_upper, bits=params.sqrt_bits)
    else:
        combine = cell_norm = lambda x: x
        tail = params.point_tail_l1_upper(N)
    norm_hi = params.box_norm_enclosure()[1]
    alphas = [params.alpha_term(k) for k in range(N + 1)]
    # constant per-cell contribution of the fully-periodic levels n < k <= N
    periodic = sum(
        (combine(alphas[k] / (2 * params.grid_size(k))) for k in range(n + 1, N + 1)),
        Fraction(0),
    )
    # f_k at each cell's start and left limit at its end, over 2 M_n^2; y - x >= 0
    sizes, scale = params.grid_sizes[: n + 1], 2 * size * size
    weights = [alphas[k] / scale for k in range(n + 1)]
    total = Fraction(0)
    for idx in range(size):
        start, end = point_nums(sizes, idx, size), point_nums(sizes, idx + 1, size, left=True)
        cell = periodic + tail
        for w, x, y in zip(weights, start, end):
            if y != x:
                cell += combine(w * (y - x))
        total += cell_norm(cell)

    return CoveringReport(
        grid_level=n,
        truncation_level=N,
        sum_upper=total,
        norm_bound_upper=norm_hi,
    )
