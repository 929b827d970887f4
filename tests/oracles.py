"""Independent brute-force implementations used to cross-check the engine.

Everything here is deliberately written from first principles: its own
sawtooth, its own left limits, and quadratic pairwise interval merging, so
agreement with the package is a genuine dual-route check.
"""

from fractions import Fraction


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


def direct_image(pl):
    """Image union and measure from the package's direct piece stream.

    Every piece of ``pl.piece_value_ints()`` contributes the closed interval
    between its endpoint numerators; the pairs are merged by one sort and a
    linear sweep, independently of the shape engine behind image_measure.
    """
    denom = pl.kernel().denom
    merged = []
    for lo, hi in sorted((min(v, w), max(v, w)) for v, w in pl.piece_value_ints()):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    union = [(Fraction(lo, denom), Fraction(hi, denom)) for lo, hi in merged]
    return union, sum((hi - lo for lo, hi in union), Fraction(0))


def projection_witness_oracle(evaluator, components, weights, lipschitz):
    """Best chord over endpoint pairs of disjoint sorted components, or None.

    Each pair's covered measure is found by clipping every component to the
    pair's span, as in a per-pair intersection; returns the tuple
    (s1, s2, chord_norm, gap_measure, bound) of the first pair with the
    largest bound.
    """
    endpoints = [x for pair in components for x in pair]
    density = 1 - Fraction(1, 2 * lipschitz**2)
    best = None
    for i, s1 in enumerate(endpoints):
        for s2 in endpoints[i + 1:]:
            if s2 <= s1:
                continue
            span = s2 - s1
            inside = sum(
                (max(Fraction(0), min(hi, s2) - max(lo, s1)) for lo, hi in components),
                Fraction(0),
            )
            if inside < density * span:
                continue
            chord = [y - x for x, y in zip(evaluator.value(s1), evaluator.value(s2))]
            norm = sum((abs(c) for c in chord), Fraction(0))
            seen = abs(sum((w * c for w, c in zip(weights, chord)), Fraction(0)))
            if 2 * seen <= norm:
                continue
            bound = norm / 2 - lipschitz * (span - inside)
            if best is None or bound > best[-1]:
                best = (s1, s2, norm, span - inside, bound)
    return best


def curve_vertices_oracle(params, functional, level: int):
    """(t, coords) of every level-N polygon vertex, one Fraction at a time.

    Each coordinate is c_n times this module's component (or its left limit
    at a right cell end), evaluated separately at the start, the cell
    midpoints and both sides of every right cell end.
    """
    size = params.grid_size(level)
    coeffs = [functional.coeff(n) for n in range(level + 1)]

    def point(t, left=False):
        value = component_left_limit if left else component
        return tuple(c * value(params, n, t) for n, c in enumerate(coeffs))

    vertices = [(Fraction(0), point(Fraction(0)))]
    for j in range(size):
        mid, right = Fraction(2 * j + 1, 2 * size), Fraction(j + 1, size)
        vertices += [(mid, point(mid)), (right, point(right, left=True)), (right, point(right))]
    return vertices


def polyline_length(vertices) -> Fraction:
    """l1 length of the polyline through the coords of (t, coords) vertices."""
    return sum(
        (
            sum((abs(y - x) for x, y in zip(a, b)), Fraction(0))
            for (_, a), (_, b) in zip(vertices, vertices[1:])
        ),
        Fraction(0),
    )
