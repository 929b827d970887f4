from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawproj.intervals import IntervalUnion

from oracles import two_pointer_intersect

DENOMS = st.sampled_from([1, 2, 3, 4, 6, 12])


@st.composite
def periodic_unions(draw):
    """An event-like union: period p, radius r (0 gives points, 2r >= p one
    interval), up to 80 centres, over a small denominator."""
    p, first = draw(st.integers(1, 12)), draw(st.integers(-6, 6))
    r = draw(st.integers(0, p))
    centres = range(first, first + p * draw(st.integers(1, 80)), p)
    return IntervalUnion.from_pairs(draw(DENOMS), [(c - r, c + r) for c in centres])


def scattered_unions(max_size):
    """Pairs on a short integer range, so that endpoints coincide across
    unions and degenerate points are common."""
    pairs = st.lists(st.tuples(st.integers(-12, 72), st.integers(0, 8)), max_size=max_size)
    return st.builds(
        lambda denom, raw: IntervalUnion.from_pairs(denom, [(lo, lo + w) for lo, w in raw]),
        DENOMS,
        pairs,
    )


MANY = st.one_of(periodic_unions(), scattered_unions(40))
FEW = st.one_of(scattered_unions(3), st.builds(IntervalUnion, DENOMS, st.just(((0, 60),))))
ONE = IntervalUnion(1, ((0, 1),))


@settings(max_examples=400)
@given(MANY, FEW, MANY)
# the last of the components met is clipped, and a point on a shared endpoint is kept
@example(IntervalUnion(1, ((0, 1), (2, 3), (4, 5))), IntervalUnion(1, ((0, 4),)), ONE)
@example(IntervalUnion(1, ((0, 1), (2, 3))), IntervalUnion(2, ((2, 4), (6, 6))), ONE)
@example(IntervalUnion(1, ((0, 0), (1, 1))), IntervalUnion(1, ()), ONE)
def test_intersect_matches_the_two_pointer_walk(many, few, other):
    for u, v in ((many, few), (few, many), (many, other), (other, many)):
        w = u.intersect(v)
        assert (w.denom, w.pairs) == two_pointer_intersect(u, v)
