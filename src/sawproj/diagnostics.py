"""Seeded diagnostics: the union of refinement events, secant witnesses, the
slope translation identity and per-level oscillation.

The exact events live in ``events``: the borel-cantelli sampler reads ``event_window``;
``event_set`` and ``independence_check`` are bound here for the perfbench hooks. No sampler
loads ``intervals`` or ``construction``; every sawtooth value comes from ``params.point_nums``.

Secant witnesses work at the fine scale: an eligible parameter sits
within alpha_n / M_n of a level-n grid point beta that lies on no coarser
grid. Stepping just across beta changes component n by at least
(1/2 - alpha_n)/M_n. Each coordinate k < n moves by at most the parameter
displacement: f_0 = t, and for alpha_n <= 1/2 no level-(n-1) grid point, so
no jump of f_k, lies within alpha_n / M_n of beta. Each coordinate k > n
moves by less than 1/(2 M_k). So the squared component-n share of the
squared displacement norm is bounded below by 1/(64 Kbar^2) once
alpha_n <= 1/8 (Kbar^2 the upper enclosure of the unit-box norm bound). The
sampler decides a sample from its exact component-n difference and these
bounds on the rest, and computes every coordinate only when that screen
leaves the test open.

All sampling uses a named, seeded generator and is reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .events import event_set, event_window, independence_check  # noqa: F401  (perfbench hooks)
from .params import L2, ParameterSet, point_nums

GENERATOR_NAME = "mt19937-getrandbits"
SAMPLE_BITS = 48  # a sampled parameter is a multiple of 2^-48 of its range
_UNION_CHUNKS = 8  # sample_event_union splits its samples over this many streams


# -- seeded rational sampling -------------------------------------------------------


def spawn_rng(seed: int, chunk: int = 0) -> random.Random:
    """Deterministic child generator for a chunked sample stream.

    A negative seed is refused: Random seeds from the absolute value, so it
    would alias a positive one.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return random.Random(seed * 1000003 + chunk)


def rand_fraction(rng: random.Random, bits: int = SAMPLE_BITS) -> Fraction:
    """Uniform dyadic rational in [0, 1)."""
    return Fraction(rng.getrandbits(bits), 1 << bits)


def rand_index(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] via getrandbits rejection (platform-stable)."""
    if hi < lo:
        raise DomainError(f"empty index range [{lo}, {hi}]")
    span = hi - lo + 1
    bits = span.bit_length()
    while True:
        v = rng.getrandbits(bits)
        if v < span:
            return lo + v


# -- union of refinement events ------------------------------------------------------


def _event_hit(window: tuple[int, int, int], r: int) -> bool:
    """Whether t = r / 2^48 lies in the level-n event of ``event_window``: the
    fractional part of t M_{n-1} is x / 2^48 with x = r M_{n-1} mod 2^48, and it
    must lie within alpha_n of 0 or 1."""
    size, den, num = window
    x, bound = r * size & ((1 << SAMPLE_BITS) - 1), num << SAMPLE_BITS
    return x * den <= bound or ((1 << SAMPLE_BITS) - x) * den <= bound


class UnionSampleReport(NamedTuple):
    levels: tuple[int, ...]
    samples: int
    seed: int
    generator: str
    hits: int
    expected_probability: Fraction

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    def within_sigmas(self, k: int) -> bool:
        """|observed - p| <= k * sqrt(p(1-p)/samples), compared on squares."""
        p = self.expected_probability
        dev = self.fraction - p
        return dev**2 * self.samples <= k**2 * p * (1 - p)


def sample_event_union(
    params: ParameterSet, levels: Sequence[int], samples: int, seed: int
) -> UnionSampleReport:
    """Seeded hit fraction for "t belongs to at least one level event".

    With exact independence the union probability is 1 - prod(1 - 2 alpha_n);
    the sampled fraction is binomial around it. Each sample is t = R / 2^48
    with R = getrandbits(48), tested in integers by _event_hit.
    """
    levels = tuple(sorted(set(levels)))
    if not levels:
        raise DomainError("no event levels to sample")
    windows = [event_window(params, n) for n in levels]
    expected = 1 - prod(1 - Fraction(2 * num, den) for _, den, num in windows)
    per = [samples // _UNION_CHUNKS] * _UNION_CHUNKS
    per[-1] += samples - sum(per)
    hits = 0
    for chunk, count in enumerate(per):
        rng = spawn_rng(seed, chunk)
        for _ in range(count):
            r = rng.getrandbits(SAMPLE_BITS)
            hits += any(_event_hit(window, r) for window in windows)
    return UnionSampleReport(levels, samples, seed, GENERATOR_NAME, hits, expected)


# -- secant witnesses ------------------------------------------------------------------


class SecantWitness(NamedTuple):
    n: int
    t0: Fraction
    tn: Fraction
    delta: tuple[Fraction, ...]  # embedded coordinate differences up to n_max
    norm_sq_upper: Fraction  # truncated squared norm plus certified tail
    ratio_sq: Fraction
    threshold: Fraction

    @property
    def passed(self) -> bool:
        return self.ratio_sq >= self.threshold


def secant_threshold(params: ParameterSet) -> Fraction:
    """1 / (64 Kbar^2) with Kbar^2 the upper norm-bound enclosure."""
    return 1 / (64 * params.box_norm_sq_enclosure()[1])


class _SecantConstants(NamedTuple):
    """What every witness of one parameter set shares: the grid sizes, the
    weights alpha_k = weights[k] / q with q = lcm den(alpha_k), the threshold,
    and the tail certificate of the squared coordinates past n_max."""

    sizes: tuple[int, ...]
    weights: tuple[int, ...]
    q: int
    threshold: Fraction
    tail_sq: Fraction

    @staticmethod
    def of(params: ParameterSet) -> "_SecantConstants":
        alphas = [params.alpha_term(k) for k in range(params.n_max + 1)]
        q = lcm(*(a.denominator for a in alphas))
        weights = tuple(a.numerator * (q // a.denominator) for a in alphas)
        tail_sq = params.point_tail_l2sq_upper(params.n_max)
        threshold = secant_threshold(params)
        return _SecantConstants(params.grid_sizes, weights, q, threshold, tail_sq)

    def deltas(self, den: int, a0: int, an: int) -> tuple[list[int], int]:
        """alpha_k (f_k(tn) - f_k(t0)) at t0 = a0/den, tn = an/den, as
        numerators over the returned scale S = 2 den M_N q."""
        p0, pn = point_nums(self.sizes, a0, den), point_nums(self.sizes, an, den)
        deltas = [w * (y - x) for w, x, y in zip(self.weights, p0, pn)]
        return deltas, 2 * den * self.sizes[-1] * self.q

    def rest_upper(self, n: int, den: int, disp: int) -> int:
        """B_hi >= sum_{k != n} delta_k^2 + tail_sq over S^2 den(tail_sq), S the
        scale of deltas, for t0 = a0/den and tn with |an - a0| = disp on either
        side of a level-n grid point on no coarser grid and within 1/(2 M_n) of
        it: |delta_k| <= alpha_k disp/den for k < n and alpha_k/(2 M_k) for k > n.
        B_hi is c0 + c2 disp^2 with c0 = B_hi at disp 0."""
        top, tail = self.sizes[-1], self.tail_sq
        rest = sum(
            (w * 2 * top * disp if k < n else w * (top // size) * den) ** 2
            for k, (w, size) in enumerate(zip(self.weights, self.sizes))
            if k != n
        )
        return rest * tail.denominator + tail.numerator * (2 * den * top * self.q) ** 2

    def passes(self, deltas: list[int], scale: int, n: int) -> bool:
        """ratio_sq >= threshold, cross-multiplied over the deltas' scale."""
        thr, tail = self.threshold, self.tail_sq
        norm = sum(d * d for d in deltas) * tail.denominator + tail.numerator * scale * scale
        return deltas[n] ** 2 * thr.denominator * tail.denominator >= thr.numerator * norm


def _require_l2(params: ParameterSet) -> None:
    if params.model != L2:
        raise DomainError("secant witnesses are an L2-model diagnostic")


def secant_witness(params: ParameterSet, t0: Fraction, n: int) -> Optional[SecantWitness]:
    """Deterministic cross-boundary witness at level n, or None if ineligible.

    Eligibility: t0 within alpha_n / M_n of its nearest level-n grid point
    beta, with beta on no coarser grid (equivalently the grid index of beta
    is not divisible by m_n). The partner parameter is beta itself when
    t0 < beta, else beta - alpha_n / M_n.
    """
    _require_l2(params)
    t0 = Fraction(t0)
    m_n = params.refinement_factor(n)  # refuses a level outside [1, n_max]
    alpha_n, size = params.alpha_term(n), params.grid_size(n)
    step = lcm(t0.denominator, alpha_n.denominator * size) // size  # 1/M_n over den
    den = step * size
    a0 = t0.numerator * (den // t0.denominator)
    radius = step // alpha_n.denominator * alpha_n.numerator
    an = _secant_partner(size, m_n, a0, den, radius)
    if an is None:
        return None
    consts = _SecantConstants.of(params)
    deltas, scale = consts.deltas(den, a0, an)
    # discarded levels k > n_max differ by at most 1/(2 M_k) per coordinate
    norm_sq_upper = Fraction(sum(d * d for d in deltas), scale**2) + consts.tail_sq
    delta = tuple(Fraction(d, scale) for d in deltas)
    ratio_sq = Fraction(deltas[n] ** 2, scale**2) / norm_sq_upper
    return SecantWitness(
        n, t0, Fraction(an, den), delta, norm_sq_upper, ratio_sq, consts.threshold
    )


def _secant_partner(size: int, m_n: int, a0: int, den: int, radius: int) -> Optional[int]:
    """The level-n partner of an eligible t0 = a0/den, or None; size = M_n
    divides den, m_n is the refinement factor and radius = den alpha_n / M_n."""
    if not 0 <= a0 < den:
        raise DomainError(f"t0 = {Fraction(a0, den)} outside [0, 1)")
    step = den // size
    k = (2 * a0 + step) // (2 * step)  # the nearest level-n grid index
    beta = k * step
    if radius == 0 or abs(a0 - beta) > radius or k % m_n == 0:
        return None  # too far, or beta lies on a coarser grid
    return beta if a0 < beta else beta - radius


def check_secant_levels(params: ParameterSet, levels: Sequence[int]) -> None:
    """Refuse, before any level is sampled, a level where no parameter can be
    eligible: with m_n = 1 every level-n grid point lies on the coarser grid,
    and with alpha_n = 0 no parameter is near enough to one."""
    _require_l2(params)
    for n in levels:
        m_n, alpha_n = params.refinement_factor(n), params.alpha_term(n)
        if m_n == 1 or alpha_n == 0:
            raise DomainError(
                f"no eligible secant parameter at level {n}: m_n = {m_n}, alpha_n = {alpha_n}"
            )


def sample_secant_witnesses(
    params: ParameterSet, n: int, samples: int, seed: int
) -> tuple[int, int]:
    """(passed, total) over seeded eligible parameters near level-n boundaries,
    each t0 and partner a numerator over den = 2^48 den(alpha_n) M_n."""
    check_secant_levels(params, (n,))
    rng = spawn_rng(seed, n)
    size, m_n, alpha_n = params.grid_size(n), params.refinement_factor(n), params.alpha_term(n)
    consts = _SecantConstants.of(params)
    step = alpha_n.denominator << SAMPLE_BITS
    den, radius = step * size, alpha_n.numerator << SAMPLE_BITS
    # delta_n^2 / (delta_n^2 + B_hi) >= threshold implies passes(); rest_upper
    # holds only while [t0, tn] stays within 1/(2 M_n) of beta, so for 2 alpha_n <= 1
    screen, thr = 2 * alpha_n <= 1, consts.threshold
    gain = consts.tail_sq.denominator * (thr.denominator - thr.numerator)
    c0 = thr.numerator * consts.rest_upper(n, den, 0)
    c2 = thr.numerator * consts.rest_upper(n, den, 1) - c0
    # f_n reads M_n alone: component 1 of the grid (1, M_n), lifted to scale S
    grid, lift = (1, size), consts.weights[n] * (consts.sizes[-1] // size)
    passed = total = 0
    while total < samples:
        k = rand_index(rng, 1, size - 1)
        if k % m_n == 0:
            continue
        offset = rng.getrandbits(SAMPLE_BITS) * alpha_n.numerator
        a0 = k * step + (offset if rng.getrandbits(1) else -offset)
        an = _secant_partner(size, m_n, a0, den, radius)
        if an is not None:
            total += 1
            d_n = lift * (point_nums(grid, an, den)[1] - point_nums(grid, a0, den)[1])
            screened = screen and gain * d_n * d_n >= c0 + c2 * (an - a0) ** 2
            passed += screened or consts.passes(*consts.deltas(den, a0, an), n)
    return passed, total


# -- slope translation identity ----------------------------------------------------------


def _slope_identity(
    sizes: tuple[int, ...], n: int, den: int, t: int, h: int, lo: int, hi: int
) -> tuple[int, tuple[int, ...], tuple[int, int]]:
    """The half-period translation identity in the level-n cell [lo, hi), all over den.

    With t' = t +- 1/(2 M_n) and all four parameters in the cell, every
    component m != n satisfies f_m(t'+h) - f_m(t') = f_m(t+h) - f_m(t)
    exactly (affine below level n, half-period periodic above), while at
    m = n one side is 0 and the other is h. Returns t', the levels with
    equal sides and the two level-n sides (over 2 den M_N); raises
    DomainError on a failure.
    """
    half = den // (2 * sizes[n])
    shifted = t + half if t + half < hi else t - half
    t_h, s_h = t + h, shifted + h
    for name, p in (("t", t), ("t'", shifted), ("t+h", t_h), ("t'+h", s_h)):
        if not lo <= p < hi:
            cell = f"[{Fraction(lo, den)}, {Fraction(hi, den)})"
            raise DomainError(f"{name} = {Fraction(p, den)} outside the cell {cell}")
    scale, side = 2 * den * sizes[-1], 2 * sizes[-1] * h  # side: h over scale
    equal_levels, toggled = [], (0, 0)
    points = [point_nums(sizes, p, den) for p in (t, shifted, t_h, s_h)]
    for m, (a, b, c, d) in enumerate(zip(*points)):
        lhs, rhs = d - b, c - a
        if m == n and h != 0:
            if sorted((lhs, rhs)) != sorted((0, side)):
                raise DomainError(
                    f"level-{n} sides expected {{0, {Fraction(h, den)}}}, "
                    f"got {Fraction(lhs, scale)} and {Fraction(rhs, scale)}"
                )
            toggled = (lhs, rhs)
        elif lhs != rhs:
            raise DomainError(
                f"component {m} translation identity fails: "
                f"{Fraction(lhs, scale)} != {Fraction(rhs, scale)}"
            )
        elif m != n:
            equal_levels.append(m)
    return shifted, tuple(equal_levels), toggled


def sample_slope_identities(params: ParameterSet, samples: int, seed: int) -> int:
    """Run the identity on seeded admissible tuples; returns the pass count.

    Tuples are made admissible by construction: t in the first quarter of a
    cell (shift goes right) or the last quarter (shift goes left), and
    |h| < 1/(4 M_n) pointing inward. A quarter cell is 2^48 over 2^50 M_n.

    The identity at level n needs M_n / (2 M_m) integral for 1 <= m < n and
    M_m / (2 M_n) for m > n; over the levels n = 1..L sampled here that is
    m_k even for 2 <= k <= L + 1, checked before any sample is drawn.
    """
    max_level = min(5, params.n_max - 1)
    if max_level < 1:
        raise DomainError(
            f"--check slope-identity reads levels 1..5 and needs n_max >= 2, "
            f"got n_max = {params.n_max}"
        )
    for k in range(2, max_level + 2):
        if params.refinement_factor(k) % 2:
            raise DomainError(
                f"--check slope-identity reads levels 1..{max_level} and needs m_k even "
                f"for 2 <= k <= {max_level + 1}, got m_{k} = {params.refinement_factor(k)}"
            )
    sizes, passed, rng = params.grid_sizes, 0, spawn_rng(seed)
    for _ in range(samples):
        n = rand_index(rng, 1, max_level)
        lo = (rand_index(rng, 1, sizes[n]) - 1) << (SAMPLE_BITS + 2)
        u, h = rng.getrandbits(SAMPLE_BITS), rng.getrandbits(SAMPLE_BITS)
        # first quarter (the shift goes right) or third (it goes left); h >= 0
        t = lo + u if rng.getrandbits(1) else lo + (2 << SAMPLE_BITS) + u
        den, hi = sizes[n] << (SAMPLE_BITS + 2), lo + (4 << SAMPLE_BITS)
        _slope_identity(sizes, n, den, t, h, lo, hi)
        passed += 1
    return passed


def sample_oscillation(params: ParameterSet, samples: int, seed: int) -> tuple[Fraction, bool]:
    """The worst |f_k(t) - f_k(u)| over every k and seeded pairs t, u in one
    level-n cell (n <= 6; t over den = 2^48 M_6), and whether all are <= 1/M_n."""
    top, sizes = min(6, params.n_max), params.grid_sizes
    den, last = sizes[top] << SAMPLE_BITS, sizes[-1]
    rng = spawn_rng(seed)
    worst, ok = 0, True
    for _ in range(samples):
        n = rand_index(rng, 0, top)
        step = den // sizes[n]
        lo = (rand_index(rng, 1, sizes[n]) - 1) * step
        t = lo + rng.getrandbits(SAMPLE_BITS) * (step >> SAMPLE_BITS)
        u = lo + rng.getrandbits(SAMPLE_BITS) * (step >> SAMPLE_BITS)
        pair = zip(point_nums(sizes, t, den), point_nums(sizes, u, den))
        gap = max(abs(x - y) for x, y in pair)
        worst = max(worst, gap)
        ok &= gap <= 2 * last * step
    return Fraction(worst, 2 * den * last), ok
