"""Independent brute-force implementations used to cross-check the engine.

Everything here is deliberately written from first principles: its own
sawtooth, its own left limits, and quadratic pairwise interval merging, so
agreement with the package is a genuine dual-route check. The samplers draw
from the package's seeded generator (``spawn_rng``, ``rand_index``,
``rand_fraction``), so both routes see the same parameters.
"""

import math
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple

from hypothesis import assume
from hypothesis import strategies as st

import sawproj as sp
from sawproj.diagnostics import rand_fraction, rand_index, spawn_rng
from sawproj.errors import DomainError
from sawproj.rational import sqrt_upper


def saw(t: Fraction) -> Fraction:
    whole = t.numerator // t.denominator
    frac = t - whole
    return Fraction(0) if frac < Fraction(1, 2) else frac - Fraction(1, 2)


def component(params, n: int, t: Fraction) -> Fraction:
    if n == 0:
        return Fraction(t)
    size = params.grid_size(n)
    return saw(size * Fraction(t)) / size


def component_left_limit(params, n: int, t: Fraction) -> Fraction:
    if n == 0:
        return Fraction(t)
    size = params.grid_size(n)
    scaled = size * Fraction(t)
    if scaled.denominator == 1:
        return Fraction(1, 2 * size)
    return saw(scaled) / size


def pairwise_merge(intervals: list[tuple[Fraction, Fraction]]):
    """Merge closed intervals by repeated pairwise absorption (O(k^2))."""
    work = [list(iv) for iv in intervals]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            if work[i] is None:
                continue
            for j in range(len(work)):
                if i == j or work[j] is None:
                    continue
                a, b = work[i]
                c, d = work[j]
                if c <= b and a <= d:  # closed intervals touch or overlap
                    work[i] = [min(a, c), max(b, d)]
                    work[j] = None
                    changed = True
        work = [w for w in work if w is not None]
    return sorted(tuple(w) for w in work)


def two_pointer_intersect(u, v) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(denom, pairs) of u.intersect(v) by one walk over both unions' pairs,
    advancing past whichever current component ends first."""
    denom = math.lcm(u.denom, v.denom)
    a = [(lo * (denom // u.denom), hi * (denom // u.denom)) for lo, hi in u.pairs]
    b = [(lo * (denom // v.denom), hi * (denom // v.denom)) for lo, hi in v.pairs]
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return denom, tuple(out)


def direction_functional(functional, p, q):
    """The functional of t |-> p*t + q*h(t), h the functional's projection:
    coefficients (p + q c_0, q c_1, q c_2, ...), its rule rebuilt from the rule's
    fields with every term and tail scaled by |q|, and the sign flipped for q < 0."""
    p, q = Fraction(p), Fraction(q)
    if p == 0 and q == 0:
        raise DomainError("direction (0, 0) is not admissible")
    rule, scale = functional.rule, abs(q)
    if rule.kind == "explicit":
        rule = sp.explicit(
            [v * scale for v in rule.values],
            None if rule.tail_l1 is None else rule.tail_l1 * scale,
            None if rule.tail_l2sq is None else rule.tail_l2sq * scale**2,
        )
    else:
        rule = sp.SequenceRule(rule.kind, a=rule.a * scale, r=rule.r)
    return functional._replace(
        alpha0=p + q * functional.alpha0,
        rule=rule,
        sign=-functional.sign if q < 0 else functional.sign,
        name=functional.name and f"{functional.name}@({p},{q})",
    )


def pl_image_oracle(params, functional, level: int):
    """Image union and measure of the level-N truncated projection."""
    pieces = 2 * params.grid_size(level)
    coeffs = [functional.coeff(n) for n in range(level + 1)]
    intervals = []
    for j in range(pieces):
        a = Fraction(j, pieces)
        b = Fraction(j + 1, pieces)
        va = sum(c * component(params, n, a) for n, c in enumerate(coeffs))
        vb = sum(c * component_left_limit(params, n, b) for n, c in enumerate(coeffs))
        intervals.append((min(va, vb), max(va, vb)))
    merged = pairwise_merge(intervals)
    measure = sum((hi - lo for lo, hi in merged), Fraction(0))
    return merged, measure


def covering_sum_oracle(params, truncation_level: int, grid_level: int) -> Fraction:
    """sum_upper of hausdorff_upper: one pass over the level-n cells with two
    Fraction component values per cell and level."""
    n, N = grid_level, truncation_level
    size = params.grid_size(n)
    if params.model == "L2":
        combine, tail = (lambda x: x * x), params.point_tail_l2sq_upper(N)
        cell_norm = partial(sqrt_upper, bits=params.sqrt_bits)
    else:
        combine = cell_norm = lambda x: x
        tail = params.point_tail_l1_upper(N)
    alphas = [params.alpha_term(k) for k in range(N + 1)]
    periodic = sum(
        (combine(alphas[k] / (2 * params.grid_size(k))) for k in range(n + 1, N + 1)),
        Fraction(0),
    )
    total = Fraction(0)
    for idx in range(size):
        a = Fraction(idx, size)
        b = Fraction(idx + 1, size)
        cell = periodic + tail
        for k in range(n + 1):
            osc = component_left_limit(params, k, b) - component(params, k, a)
            cell += combine(alphas[k] * osc)
        total += cell_norm(cell)
    return total


def direct_image(pl):
    """Image union and measure from the package's direct piece stream.

    Every piece of ``pl.piece_value_ints()`` contributes the closed interval
    between its endpoint numerators; the pairs are merged by one sort and a
    linear sweep, independently of the shape engine behind image_measure.
    """
    denom = pl.denom
    merged = []
    for lo, hi in sorted((min(v, w), max(v, w)) for v, w in pl.piece_value_ints()):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    union = [(Fraction(lo, denom), Fraction(hi, denom)) for lo, hi in merged]
    return union, sum((hi - lo for lo, hi in union), Fraction(0))


def curve_point(params, coeffs, t: Fraction, left: bool = False):
    """c_n times this module's component (or its left limit) over t, per coordinate."""
    value = component_left_limit if left else component
    return tuple(c * value(params, n, t) for n, c in enumerate(coeffs))


def curve_vertices_oracle(params, functional, level: int):
    """(t, coords) of every level-N polygon vertex, one Fraction at a time.

    Each coordinate is c_n times this module's component (or its left limit
    at a right cell end), evaluated separately at the start, the cell
    midpoints and both sides of every right cell end.
    """
    size = params.grid_size(level)
    coeffs = [functional.coeff(n) for n in range(level + 1)]
    point = partial(curve_point, params, coeffs)
    vertices = [(Fraction(0), point(Fraction(0)))]
    for j in range(size):
        mid, right = Fraction(2 * j + 1, 2 * size), Fraction(j + 1, size)
        vertices += [(mid, point(mid)), (right, point(right, left=True)), (right, point(right))]
    return vertices


class CanonicalTau(NamedTuple):
    """Nondecreasing PL surjection of [0, 1] with a constant interval at
    every level-N grid endpoint and affine pieces in between.

    Layout in s: [K_0][G_1][K_1]...[G_M][K_M] where K_i (length const_len)
    sits at endpoint i/M and G_i (length gap_len) maps onto the i-th cell.
    """

    grid_size: int
    const_len: Fraction
    gap_len: Fraction

    def value(self, s: Fraction) -> Fraction:
        kind, i, frac = self.locate(s)
        if kind == "const":
            return Fraction(i, self.grid_size)
        return Fraction(i - 1, self.grid_size) + frac / self.grid_size

    def locate(self, s: Fraction) -> tuple[str, int, Fraction]:
        """("const", endpoint index, u in [0,1]) or ("gap", cell index, frac)."""
        s = Fraction(s)
        if not 0 <= s <= 1:
            raise DomainError(f"s = {s} outside [0, 1]")
        if s <= self.const_len:
            return "const", 0, s / self.const_len
        block = self.gap_len + self.const_len
        u = s - self.const_len
        i = min(int(u / block) + 1, self.grid_size)
        off = u - (i - 1) * block
        if off <= self.gap_len:
            return "gap", i, off / self.gap_len
        return "const", i, (off - self.gap_len) / self.const_len

    def breakpoints(self) -> Iterator[Fraction]:
        """The s of every polygon vertex: 0, then each cell's gap start, midpoint
        and end, then 1."""
        block = self.gap_len + self.const_len
        yield Fraction(0)
        for i in range(self.grid_size):
            g_lo = self.const_len + i * block
            yield from (g_lo, g_lo + self.gap_len / 2, g_lo + self.gap_len)
        yield Fraction(1)


def canonical_tau(params, level: int) -> CanonicalTau:
    """The canonical common parametrization of the level-N polygon."""
    size = params.grid_size(level)
    endpoints = size + 1
    const_len = Fraction(1, 4 * size * endpoints)
    gap_len = (1 - endpoints * const_len) / size
    return CanonicalTau(size, const_len, gap_len)


def curve_point_oracle(params, functional, level: int, tau, s: Fraction):
    """The level-N curve at s under tau, whose grid may refine the level's.

    Over a gap the point follows the coordinates over tau(s), taking left limits
    at the gap's end; over a constant interval it runs linearly from the left
    limit to the value at its grid point (a degenerate connector stays put).
    """
    point = partial(curve_point, params, [functional.coeff(n) for n in range(level + 1)])
    kind, i, frac = tau.locate(s)
    grid = tau.grid_size
    if kind == "gap":
        return point(Fraction(i - 1, grid) + frac / grid, left=frac == 1)
    if i == 0:
        return point(Fraction(0))
    start, end = point(Fraction(i, grid), left=True), point(Fraction(i, grid))
    return tuple(a + frac * (b - a) for a, b in zip(start, end))


def polyline_length(vertices) -> Fraction:
    """l1 length of the polyline through the coords of (t, coords) vertices."""
    return sum(
        (
            sum((abs(y - x) for x, y in zip(a, b)), Fraction(0))
            for (_, a), (_, b) in zip(vertices, vertices[1:])
        ),
        Fraction(0),
    )


# -- random curve instances, shared by the curve and CLI property tests -----------------


@st.composite
def curve_cases(draw):
    """An L1 parameter set (factors 1..5, odd and 1 included), a contracting
    functional (geometric or explicit, signed) and a level with at most 600 vertices."""
    factors = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    params = sp.ParameterSet(
        alpha=sp.geometric(Fraction(1, 2), Fraction(1, 2)),
        m=sp.explicit_refinement(factors),
        n_max=len(factors),
        model="L1",
    )
    level = draw(st.integers(0, len(factors)))
    assume(3 * params.grid_size(level) + 1 <= 600)
    small = st.fractions(0, Fraction(1, 5), max_denominator=12)  # four terms sum below 1
    if draw(st.booleans()):
        rule = sp.geometric(draw(small), draw(small))
    else:
        rule = sp.explicit(draw(st.lists(small, min_size=4, max_size=4)), 0, 0)
    functional = sp.Functional(
        alpha0=draw(st.fractions(-2, 2, max_denominator=12)),
        rule=rule,
        signs=tuple(draw(st.lists(st.sampled_from([-1, 1]), max_size=4))),
        name="C",
    )
    return params, functional, level


# -- the Fraction routes the integer samplers and row writers replaced -------------------


def secant_witness_oracle(params, t0: Fraction, n: int):
    """(n, t0, tn, delta, norm_sq_upper, ratio_sq, threshold) of the level-n
    secant witness at t0, or None when t0 is ineligible; one Fraction per value."""
    size, alpha_n = params.grid_size(n), params.alpha_term(n)
    if alpha_n == 0:
        return None
    k = math.floor(t0 * size + Fraction(1, 2))  # the nearest grid index, halves up
    beta = Fraction(k, size)
    if abs(t0 - beta) > alpha_n / size or k % params.refinement_factor(n) == 0:
        return None
    tn = beta if t0 < beta else beta - alpha_n / size
    delta = tuple(
        params.alpha_term(m) * (component(params, m, tn) - component(params, m, t0))
        for m in range(params.n_max + 1)
    )
    norm_sq_upper = sum(d * d for d in delta) + params.point_tail_l2sq_upper(params.n_max)
    threshold = 1 / (64 * params.box_norm_sq_enclosure()[1])
    return n, t0, tn, delta, norm_sq_upper, delta[n] ** 2 / norm_sq_upper, threshold


def event_contains(params, n: int, t: Fraction) -> bool:
    """Membership of t in the level-n event: the fractional part of t M_{n-1}
    lies within alpha_n of 0 or 1."""
    alpha = params.alpha_term(n)
    scaled = Fraction(t) * params.grid_size(n - 1)
    frac = scaled - (scaled.numerator // scaled.denominator)
    return frac <= alpha or frac >= 1 - alpha


def event_union_oracle(params, levels, samples: int, seed: int, chunks: int = 8) -> int:
    """hits of sample_event_union, drawn as Fractions and tested by event_contains."""
    per = [samples // chunks] * chunks
    per[-1] += samples - sum(per)
    hits = 0
    for chunk, count in enumerate(per):
        rng = spawn_rng(seed, chunk)
        for _ in range(count):
            t = rand_fraction(rng)
            hits += any(event_contains(params, n, t) for n in sorted(set(levels)))
    return hits


def secant_sample_oracle(params, n: int, samples: int, seed: int):
    """(passed, total) of sample_secant_witnesses, drawn as Fractions."""
    rng = spawn_rng(seed, n)
    size, alpha_n = params.grid_size(n), params.alpha_term(n)
    passed = total = 0
    while total < samples:
        k = rand_index(rng, 1, size - 1)
        if k % params.refinement_factor(n) == 0:
            continue
        offset = rand_fraction(rng) * alpha_n / size
        t0 = Fraction(k, size) + (offset if rng.getrandbits(1) else -offset)
        witness = secant_witness_oracle(params, t0, n)
        if witness is not None:
            total += 1
            passed += witness[5] >= witness[6]
    return passed, total


def slope_identity_oracle(
    params, n: int, lo: Fraction, hi: Fraction, t: Fraction, h: Fraction
):
    """(n, t, t', h, equal_levels, toggled_sides) of the half-period translation
    identity in the cell [lo, hi), or None when a point leaves it or a check fails."""
    half = Fraction(1, 2 * params.grid_size(n))
    shifted = t + half if t + half < hi else t - half
    if not all(lo <= p < hi for p in (t, shifted, t + h, shifted + h)):
        return None
    equal, toggled = [], (Fraction(0), Fraction(0))
    for m in range(params.n_max + 1):
        lhs = component(params, m, shifted + h) - component(params, m, shifted)
        rhs = component(params, m, t + h) - component(params, m, t)
        if m == n and h != 0:
            if {lhs, rhs} != {0, h}:
                return None
            toggled = (lhs, rhs)
        elif lhs != rhs:
            return None
        elif m != n:
            equal.append(m)
    return n, t, shifted, h, tuple(equal), toggled


def oscillation_oracle(params, samples: int, seed: int):
    """(worst, passed) of sample_oscillation, drawn and compared as Fractions."""
    rng = spawn_rng(seed)
    worst, passed = Fraction(0), True
    for _ in range(samples):
        n = rand_index(rng, 0, min(6, params.n_max))
        size = params.grid_size(n)
        lo, width = Fraction(rand_index(rng, 1, size) - 1, size), Fraction(1, size)
        t = lo + rand_fraction(rng) * width
        u = lo + rand_fraction(rng) * width
        for k in range(params.n_max + 1):
            osc = abs(component(params, k, t) - component(params, k, u))
            passed &= osc <= width
            worst = max(worst, osc)
    return worst, passed


def curve_rows_oracle(params, functional, level: int) -> list[dict]:
    """The rows of the curve command's CSV as Fraction records, for write_csv."""
    names = [f"coord_{n:0{len(str(level))}d}" for n in range(level + 1)]
    return [
        {"vertex_index": i, "t": t, **dict(zip(names, coords)), "is_vertical": i % 3 == 2}
        for i, (t, coords) in enumerate(curve_vertices_oracle(params, functional, level))
    ]


def piece_rows_oracle(params, functional, level: int) -> list[dict]:
    """The rows of the piece table as Fraction records, for write_csv."""
    pieces = 2 * params.grid_size(level)
    coeffs = [functional.coeff(n) for n in range(level + 1)]

    def value(t, limit=component):
        return sum((c * limit(params, n, t) for n, c in enumerate(coeffs)), Fraction(0))

    rows = []
    for j in range(pieces):
        a, b = Fraction(j, pieces), Fraction(j + 1, pieces)
        jump = value(a, component_left_limit) - value(a) if j else Fraction(0)
        rows.append(
            {
                "piece_index": j,
                "left_endpoint": a,
                "length": b - a,
                "slope": (value(b, component_left_limit) - value(a)) * pieces,
                "left_value": value(a),
                "jump_at_left": jump,
            }
        )
    return rows


def slope_sample_oracle(params, samples: int, seed: int):
    """The pass count of sample_slope_identities, or None where a check fails or
    the grids cannot pass them: the identity at level n needs M_n / (2 M_m)
    integral for 1 <= m < n and M_m / (2 M_n) for m > n."""
    max_level = min(5, params.n_max - 1)
    sizes, grids = params.grid_sizes, range(1, params.n_max + 1)
    pairs = [(sizes[m], sizes[n]) for n in range(1, max_level + 1) for m in grids if m != n]
    if any(max(pair) % (2 * min(pair)) for pair in pairs):
        return None
    rng = spawn_rng(seed)
    for _ in range(samples):
        n = rand_index(rng, 1, max_level)
        size = params.grid_size(n)
        idx = rand_index(rng, 1, size)
        quarter = Fraction(1, 4 * size)
        lo = Fraction(idx - 1, size)
        u, h = rand_fraction(rng) * quarter, rand_fraction(rng) * quarter
        t = lo + u if rng.getrandbits(1) else lo + 2 * quarter + u
        if slope_identity_oracle(params, n, lo, Fraction(idx, size), t, h) is None:
            return None
    return samples
