from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sawproj as sp
from sawproj.cli import circle_directions
from sawproj.construction import DEFAULT_PIECE_BUDGET
from sawproj.errors import BudgetExceeded, DomainError
from sawproj import measure
from sawproj.measure import IntervalUnion, _merged, _Shape
from sawproj.records import functional_from_config, load_config, params_from_config

from oracles import (
    covering_sum_oracle,
    direct_image,
    direction_functional,
    pairwise_merge,
    pl_image_oracle,
)

F = Fraction


def iu(*pairs):
    return IntervalUnion.from_intervals([(F(a), F(b)) for a, b in pairs])


def test_union_normalization_merges_touching():
    u = iu((0, 1), (1, 2), (3, 3), (5, 4 + 2))
    assert u.intervals == ((F(0), F(2)), (F(3), F(3)), (F(5), F(6)))
    assert u.measure == 3
    assert u.component_count == 3
    with pytest.raises(DomainError):
        iu((1, 0))


def test_union_contains_and_intersect():
    u = iu((0, F(1, 8)), (F(1, 4), F(3, 8)))
    assert u.contains(F(1, 16)) and u.contains(F(1, 4)) and u.contains(F(3, 8))
    assert not u.contains(F(3, 16))
    v = iu((F(1, 16), F(5, 16)))
    assert u.intersect(v).intervals == ((F(1, 16), F(1, 8)), (F(1, 4), F(5, 16)))
    assert u.union(v).intervals == ((F(0), F(3, 8)),)


ENDPOINTS = st.fractions(min_value=-2, max_value=2, max_denominator=12)
RAW_INTERVALS = st.lists(
    st.tuples(ENDPOINTS, ENDPOINTS).map(sorted).map(tuple), max_size=6
)


@settings(max_examples=300)
@given(
    RAW_INTERVALS,
    RAW_INTERVALS,
    st.lists(ENDPOINTS, max_size=6),
    st.integers(2, 9),
)
def test_interval_union_matches_pairwise_merge(a, b, points, k):
    u, v = IntervalUnion.from_intervals(a), IntervalUnion.from_intervals(b)
    merged = pairwise_merge(a)
    assert list(u.intervals) == merged
    assert u.component_count == len(merged)
    assert u.measure == sum((hi - lo for lo, hi in merged), F(0))
    assert list(u.union(v).intervals) == pairwise_merge(a + b)
    pieces = [(max(p, q), min(x, y)) for p, x in a for q, y in b]
    assert list(u.intersect(v).intervals) == pairwise_merge(
        [(lo, hi) for lo, hi in pieces if lo <= hi]
    )
    for x in points:
        assert u.contains(x) == any(lo <= x <= hi for lo, hi in a)
    # equality and hashing see the set, not the denominator
    finer = IntervalUnion(u.denom * k, tuple((lo * k, hi * k) for lo, hi in u.pairs))
    assert finer == u and hash(finer) == hash(u)
    assert not finer != u  # != negates ==; it never compares the tuples
    assert (u == v) == (merged == pairwise_merge(b)) != (u != v)


def test_image_measure_line(d1, f1):
    union, mu = sp.image_measure(sp.build_pl(d1, f1, 0))
    assert union.intervals == ((F(0), F(1, 2)),)
    assert mu == F(1, 2)


def test_image_measure_four_pieces(d1, f1):
    union, mu = sp.image_measure(sp.build_pl(d1, f1, 1))
    assert union.intervals == ((F(0), F(9, 16)),)
    assert mu == F(9, 16)


def test_image_measure_identity_functional(d1):
    ident = sp.Functional(alpha0=F(1), rule=sp.explicit([0] * 8, 0, 0))
    for level in range(4):
        _, mu = sp.image_measure(sp.build_pl(d1, ident, level))
        assert mu == 1


def test_image_measure_matches_oracle_small_cases(d1, f1):
    for level in (0, 1, 2):
        union, mu = sp.image_measure(sp.build_pl(d1, f1, level))
        o_union, o_mu = pl_image_oracle(d1, f1, level)
        assert mu == o_mu
        assert list(union.intervals) == o_union


def test_image_measure_of_a_functional_without_certified_tail(d1):
    # harmonic coefficients have no certified l1 tail, which a table never reads
    harmonic = sp.Functional(alpha0=F(1), rule=sp.harmonic(F(1, 2)))
    for level in range(4):
        union, mu = sp.image_measure(sp.build_pl(d1, harmonic, level))
        assert (list(union.intervals), mu) == pl_image_oracle(d1, harmonic, level)


DIRECT_PIECE_LIMIT = 4096
ORACLE_PIECE_LIMIT = 64


def explicit_truncation(factors, alpha0, coeffs, direction=(0, 0)):
    """(params, functional, level): an explicit grid with zero scales, signed
    coefficients c_0 = alpha0, c_n = coeffs[n - 1], at level len(coeffs), in
    direction (p, q) unless that is (0, 0)."""
    params = sp.ParameterSet(
        alpha=sp.explicit([0] * len(factors), 0, 0),
        m=sp.explicit_refinement(factors),
        n_max=len(factors),
        model="L2",
    )
    coeffs = [F(c) for c in coeffs]
    functional = sp.Functional(
        alpha0=F(alpha0),
        rule=sp.explicit([abs(c) for c in coeffs], 0, 0),
        signs=tuple(-1 if c < 0 else 1 for c in coeffs),
    )
    p, q = map(F, direction)
    if p or q:
        functional = direction_functional(functional, p, q)
    return params, functional, len(coeffs)


@st.composite
def truncations(draw):
    """Explicit grid (factors 1..6, odd and 1 included), signed rational
    coefficients and an optional rational direction, at a level whose piece
    count direct enumeration handles quickly."""
    factors = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    level = draw(st.integers(0, len(factors)))
    while 2 * prod(factors[:level]) > DIRECT_PIECE_LIMIT:
        level -= 1
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    coeffs = draw(st.lists(rationals, min_size=level, max_size=level))
    alpha0 = draw(rationals)
    return explicit_truncation(factors, alpha0, coeffs, (draw(rationals), draw(rationals)))


@settings(max_examples=300)
@given(truncations())
def test_image_engine_equals_direct_enumeration(case):
    params, functional, level = case
    pl = sp.build_pl(params, functional, level)
    union, mu = sp.image_measure(pl)
    d_union, d_mu = direct_image(pl)
    assert list(union.intervals) == d_union
    assert mu == d_mu
    if pl.piece_count <= ORACLE_PIECE_LIMIT:
        assert (list(union.intervals), mu) == pl_image_oracle(params, functional, level)


@settings(max_examples=150)
@given(truncations())
def test_bracket_chain_matches_per_level_images(case):
    params, functional, level = case
    bracket = sp.projection_bracket(params, functional, level)
    mus = bracket.mu_levels
    assert len(mus) == level + 1 and bracket.mu == mus[-1]
    for k in range(level + 1):
        assert mus[k] == sp.image_measure(sp.build_pl(params, functional, k))[1]
    assert [link.level for link in bracket.chain] == list(range(1, level + 1))
    for k, link in enumerate(bracket.chain):
        assert link.delta_mu == abs(mus[k + 1] - mus[k])
        assert link.bound == 2 * abs(functional.coeff(k + 1))
        assert link.holds
    assert bracket.chain_holds
    assert bracket.lower <= bracket.mu <= bracket.upper


@settings(max_examples=200)
@given(truncations())
@example(explicit_truncation([2], "3/5", ["1/3"]))  # shifted copies that only touch
@example(explicit_truncation([6], "-4/3", [2]))  # a part nested in a longer one
@example(explicit_truncation([3], 3, [-4]))  # overlapping hulls, gaps between components
@example(explicit_truncation([6], -3, [8]))  # a one-part cluster that is not solid
@example(explicit_truncation([1, 3, 1, 5], "1/2", ["-3/4", 2, "5/3", -1]))  # m_n = 1, odd
@example(explicit_truncation([2, 4, 3], "1/2", ["1/4", "1/16", "1/36"], (1, -2)))  # q < 0
def test_hull_cluster_measures_match_flattened_and_direct_images(case):
    params, functional, level = case
    mus = sp.projection_bracket(params, functional, level).mu_levels
    for k in range(level + 1):
        pl = sp.build_pl(params, functional, k)
        assert mus[k] == sp.image_measure(pl)[1] == direct_image(pl)[1]


def _tile_tree(tree):
    """A _Shape built from a tree, with the leaf intervals it covers.

    A tree is a leaf (lo, length) or a tile (a, b, step, count) of two
    subtrees. Every tile's hull, measure and solidity are checked against a
    pairwise merge; none is flattened, so every tile keeps its loose copies."""
    if len(tree) == 2:
        lo, length = tree
        return _Shape(lo, lo + length, length, ((lo, lo + length),)), [(lo, lo + length)]
    a, b, step, count = tree
    kinds = [_tile_tree(a), _tile_tree(b)]
    pairs = sorted(
        {(lo + i * step, hi + i * step) for i in range(count) for lo, hi in kinds[i % 2][1]}
    )
    shape = _Shape.tile(kinds[0][0], kinds[1][0], step, count)
    merged = pairwise_merge(pairs)
    assert (shape.lo, shape.hi) == (merged[0][0], merged[-1][1])
    assert shape.measure == sum(hi - lo for lo, hi in merged)
    assert shape.solid == (len(merged) == 1)
    return shape, pairs


COMB = ((0, 2), (0, 2), 6, 2)  # [0, 2] and [6, 8]
TILE_TREES = st.recursive(
    st.tuples(st.integers(-8, 8), st.integers(0, 6)),
    lambda sub: st.tuples(sub, sub, st.integers(-20, 20), st.integers(1, 6)),
    max_leaves=6,
)


@settings(max_examples=300)
@given(TILE_TREES)
@example(((0, 3), (1, 4), 0, 3))  # step 0: solid kinds, each once
@example((COMB, (3, 2), 0, 4))  # step 0: a comb and the leaf in its gap
@example(((0, 2), (1, 3), -3, 5))  # step < 0: the hull's lo is in the last copies
@example(((0, 4), (0, 4), -3, 4))  # step < 0, chained solid copies
@example(((0, 2), (1, 1), 2, 5))  # neighbours that only touch: span = |step|
@example(((0, 3), (0, 3), 2, 3))  # overlapping copies with |step| < span <= 2 |step|
@example(((0, 2), (0, 5), 2, 3))  # chained: a -> b touch at a point
@example(((0, 5), (0, 2), 2, 3))  # chained: b -> a touch at a point
@example(((0, 4), (0, 1), 3, 3))  # a -> b chained, b -> a gapped
@example(((0, 7), (10, 1), 3, 4))  # solid kinds that do not chain, 2 |step| < span
@example((COMB, (1, 3), 1, 2))  # two copies, b solid, hulls overlap
@example(((1, 4), COMB, 2, 2))  # two copies, a solid, hulls overlap
@example(((0, 5), COMB, 4, 4))  # |step| < span <= 2 |step|, count 4
@example(((0, 5), COMB, -4, 4))  # the same with a negative step
@example(((0, 9), COMB, 4, 4))  # 2 |step| < span, loose copies that only touch
@example((COMB, (1, 6), 0, 3))  # step 0 with one solid kind
@example(((0, 7), COMB, 3, 3))  # one loose copy inside the solid copies' interval
@example((COMB, (1, 3), 2, 4))  # loose copies that overlap, so it merges
@example((COMB, COMB, 0, 2))  # step 0, both kinds loose at one offset: it merges
@example(((0, 3), (5, 1), 7, 1))  # count 1
@example((COMB, (0, 1), -4, 1))  # count 1 of a comb
def test_shape_tile_matches_pairwise_merge(tree):
    shape, pairs = _tile_tree(tree)
    assert list(shape.flatten()) == pairwise_merge(pairs)  # last: it keeps the merge


SOLID_TREES = st.one_of(
    st.tuples(st.integers(-8, 8), st.integers(0, 6)),
    TILE_TREES.filter(lambda tree: _tile_tree(tree)[0].solid),
)


@settings(max_examples=300)
@given(SOLID_TREES, SOLID_TREES, st.integers(-20, 20), st.integers(2, 7))
@example((0, 4), (1, 3), -3, 5)  # negative step, chained
@example((0, 3), (1, 4), 0, 3)  # step 0: each kind once, chained
@example((0, 3), (5, 2), 0, 4)  # step 0, apart
@example((0, 2), (0, 1), 2, 2)  # count 2: b touches a
@example((0, 4), (0, 1), 3, 3)  # odd count: a -> b chained, b -> a gapped
@example((0, 2), (0, 2), 2, 5)  # copies that only touch
@example((0, 0), (-1, 2), 1, 3)  # a point leaf chained between intervals
@example((0, 0), (0, 0), 1, 4)  # point leaves apart
@example(((0, 4), (0, 4), -3, 4), (2, 1), 5, 3)  # a solid tile as a kind
def test_solid_tiles_match_the_union_of_their_copies(a, b, step, count):
    (x, _), (y, _) = _tile_tree(a), _tile_tree(b)
    shape, _ = _tile_tree((a, b, step, count))
    copies = [(k.lo + i * step, k.hi + i * step) for i, k in enumerate([x, y] * count)]
    union = IntervalUnion.from_pairs(1, copies[: count if step else 2])
    assert (shape.lo, shape.hi) == (union.pairs[0][0], union.pairs[-1][1])
    assert shape.measure == sum(hi - lo for lo, hi in union.pairs)
    assert shape.pairs == union.pairs


@settings(max_examples=300)
@given(TILE_TREES, st.integers(-5, 105), st.integers(-5, 105))
@example((((0, 5), COMB, 4, 4), (0, 2), 30, 2), 25, 75)  # a window cuts overlapping pairs
@example((COMB, (1, 3), 2, 4), 20, 60)  # a window cuts a tile that merged
@example((((0, 9), COMB, 4, 4), (0, 1), 40, 2), 0, 47)  # a window cuts a loose grandchild
def test_shape_window_matches_pairwise_merge(tree, u, v):
    # the window runs from u% to v% of the hull, a little past it at either end
    shape, pairs = _tile_tree(tree)
    lo, hi = (shape.lo + (shape.hi - shape.lo) * t // 100 for t in sorted((u, v)))
    expected = sum(max(0, min(y, hi) - max(x, lo)) for x, y in pairwise_merge(pairs))
    assert shape.window(lo, hi) == expected
    shape.flatten()
    assert shape.window(lo, hi) == expected


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-20, 20), TILE_TREES), min_size=1, max_size=4))
@example([(0, COMB), (3, COMB)])  # interleaved combs: hulls overlap, components do not
@example([(0, COMB), (2, COMB), (13, (-3, 2))])  # touching combs, then a touching leaf
def test_shape_stack_matches_pairwise_merge(parts):
    shapes, pairs = [], []
    for off, tree in parts:
        shape, leaves = _tile_tree(tree)
        shapes.append((off, shape))
        pairs += [(lo + off, hi + off) for lo, hi in leaves]
    merged = pairwise_merge(pairs)
    assert list(_merged([], shapes)) == merged


def test_scan_directions_match_flattened_and_direct_images():
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "harmonic_l2.cfg")
    params, functional = params_from_config(config), functional_from_config(config)
    for p, q in circle_directions(64):
        combined = direction_functional(functional, p, q)
        mus = sp.projection_bracket(params, combined, 5).mu_levels
        assert mus[4] == direct_image(sp.build_pl(params, combined, 4))[1]
        assert mus[5] == sp.image_measure(sp.build_pl(params, combined, 5))[1]


def test_dense_direction_builds_no_union(d1, f1, monkeypatch):
    # direction 48 of the 64-direction scan: its level-7 image has 645,120
    # components, yet the shape engine lists none of them: each union it builds
    # merges the solid copies of one tile, at most max m_n = 14 of them (its
    # bracket takes the closed form and builds no shapes at all)
    def small_union(denom, pairs):
        assert len(pairs) <= 14, "the components of an image were listed"
        return from_pairs(denom, pairs)

    from_pairs = IntervalUnion.from_pairs
    monkeypatch.setattr(IntervalUnion, "from_pairs", staticmethod(small_union))
    pl = sp.build_pl(d1, direction_functional(f1, F(-2048), F(1536)), 7)
    assert F(measure._image_ints(pl.a, pl.periods, 7).measure, pl.denom) == F(3637276, 3675)


def test_level_seven_tiles_need_no_sweep(d1, f1, monkeypatch):
    # no tile of these images has two loose copies that overlap, so none merges
    def no_merge(pairs, loose):
        raise AssertionError("a tile merged the components of its copies")

    monkeypatch.setattr(measure, "_merged", no_merge)
    for functional, mu in (
        (f1, F(64491960451, 113799168000)),
        (direction_functional(f1, F(-2048), F(1536)), F(3637276, 3675)),
    ):
        pl = sp.build_pl(d1, functional, 7)
        assert F(measure._image_ints(pl.a, pl.periods, 7).measure, pl.denom) == mu


def test_one_signed_brackets_build_no_shapes(d1, f1, monkeypatch):
    # F1 and direction 48 have one-signed tails and are monotone at every level
    def no_shapes(a, steps, top):
        raise AssertionError("a shape was built")

    monkeypatch.setattr(measure, "_image_ints", no_shapes)
    assert sp.projection_bracket(d1, f1, 7).mu == F(64491960451, 113799168000)
    assert sp.directional_measure(d1, f1, (F(-2048), F(1536)), 7).mu == F(3637276, 3675)


def test_level_six_scan_builds_shapes_for_24_levels(monkeypatch):
    # of the 448 levels of the 64-direction level-6 scan, only 24 in directions
    # 40-44 have mixed-sign or non-monotone truncations
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "harmonic_l2.cfg")
    params, functional = params_from_config(config), functional_from_config(config)
    calls = []

    def counted(a, steps, top):
        calls.append(top)
        return image_ints(a, steps, top)

    image_ints = measure._image_ints
    monkeypatch.setattr(measure, "_image_ints", counted)
    for p, q in circle_directions(64):
        sp.directional_measure(params, functional, (p, q), 6)
    assert len(calls) == 24


@st.composite
def one_signed_truncations(draw):
    """``truncations`` with c_1..c_N of one sign, zeros included, c_0 of either
    sign or 0, and an optional direction, whose q < 0 flips the tail's sign."""
    factors = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    level = draw(st.integers(1, len(factors)))  # every level k <= level is checked
    while 2 * prod(factors[:level]) > DIRECT_PIECE_LIMIT:
        level -= 1
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    sizes = st.fractions(min_value=0, max_value=4, max_denominator=12)
    sign = draw(st.sampled_from([1, -1]))
    coeffs = [sign * c for c in draw(st.lists(sizes, min_size=level, max_size=level))]
    alpha0 = draw(st.one_of(st.just(F(0)), rationals))
    direction = draw(st.one_of(st.just((0, 0)), st.tuples(rationals, rationals)))
    return explicit_truncation(factors, alpha0, coeffs, direction)


@settings(max_examples=300)
@given(one_signed_truncations())
@example((sp.harmonic_l2_preset(n_max=4), sp.inverse_square_functional(), 4))  # F1
@example(  # direction 48 of the 64-direction scan: no positive slope
    (
        sp.harmonic_l2_preset(n_max=4),
        direction_functional(sp.inverse_square_functional(), F(-2048), F(1536)),
        4,
    )
)
@example(explicit_truncation([2, 3], "1/2", ["1/4", "1/9"], (-3, 0)))  # q = 0: no tail
@example(explicit_truncation([2, 4, 3], "1/2", ["1/4", "1/16", "1/36"], (-1, -2)))  # all < 0
@example(explicit_truncation([3], -2, []))  # k = 0 with c_0 < 0
@example(explicit_truncation([1, 3, 1, 5], "1/2", ["3/4", 0, "5/3", 1]))  # m_n = 1, odd
def test_one_signed_levels_match_the_engine_and_direct_images(case):
    params, functional, level = case
    pl = sp.build_pl(params, functional, level)
    nums = measure._monotone_nums(pl.a, pl.periods)
    assert len(nums) == level + 1
    signs = {x > 0 for x in pl.a[1:] if x}
    s = -1 if signs == {False} else 1
    if s * pl.a[0] >= 0 or s * sum(pl.a) <= 0:
        assert None not in nums  # the rule applies at every level
    for k, num in enumerate(nums):
        if num is not None:
            assert num == measure._image_ints(pl.a, pl.periods, k).measure
            assert F(num, pl.denom) == direct_image(sp.build_pl(params, functional, k))[1]


def test_two_copy_tiles_need_no_merge(d1, f1, monkeypatch):
    # direction 42 of the 64-direction scan: its costly tiles are two copies, one
    # of them a single interval, so the other copy is the tile's only loose one
    def no_merge(pairs, loose):
        raise AssertionError("a tile merged the components of its copies")

    monkeypatch.setattr(measure, "_merged", no_merge)
    for level, mu in ((7, F(9847661387, 67737600)), (8, F(5003530198069, 34681651200))):
        bracket = sp.directional_measure(d1, f1, (F(-1280), F(1848)), level)
        assert bracket.mu == mu
        assert bracket.chain_holds


def test_level_nine_scan_needs_no_merge(f1, monkeypatch):
    # no tile of the 64-direction level-9 scan has two loose copies that
    # overlap; a merge this deep lists millions of components (2.1 GB for
    # direction 43)
    def no_merge(pairs, loose):
        raise AssertionError("a tile merged the components of its copies")

    monkeypatch.setattr(measure, "_merged", no_merge)
    params = sp.harmonic_l2_preset(n_max=10)
    for k, direction in enumerate(circle_directions(64)):
        bracket = sp.directional_measure(params, f1, direction, 9, piece_budget=2**33)
        assert bracket.chain_holds
        if k == 43:
            assert bracket.mu == F(5861837392018091, 28092137472000)


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
DIRECTIONS = st.one_of(
    st.tuples(RATIONALS, RATIONALS),
    st.tuples(RATIONALS, st.just(F(0))),
    st.tuples(st.just(F(0)), RATIONALS),
).filter(any)


@settings(max_examples=200)
@given(truncations(), DIRECTIONS, st.integers(0, 5))
@example(explicit_truncation([2, 3], "1/2", ["1/4", "-1/9"]), (F(3, 2), F(-2, 5)), 1)  # q < 0
def test_direction_route_matches_the_combined_functional(case, direction, level):
    # below the top level the explicit tail is positive, so |q| T_N is checked too
    params, functional, top = case
    level = min(level, top)
    bracket = sp.directional_measure(params, functional, direction, level)
    combined = direction_functional(functional, *direction)
    assert bracket == sp.projection_bracket(params, combined, level)


def test_direction_route_builds_one_table_and_tail(d1, f1, monkeypatch):
    directions = circle_directions(16)  # (256, 0) first: a direction that needs no tail
    expected = [
        sp.projection_bracket(d1, direction_functional(f1, p, q), 4) for p, q in directions
    ]
    tables, tails = [], []
    table, tail = measure.build_pl, sp.Functional.abs_tail_upper
    monkeypatch.setattr(measure, "build_pl", lambda *args: tables.append(1) or table(*args))
    monkeypatch.setattr(sp.Functional, "abs_tail_upper", lambda f, n: tails.append(n) or tail(f, n))
    brackets = measure.direction_brackets(d1, f1, 4, DEFAULT_PIECE_BUDGET)
    assert (tables, tails) == ([], [])  # nothing is built before a bracket is asked for
    assert [brackets(p, q) for p, q in directions] == expected
    assert (len(tables), tails) == (1, [4])


def test_projection_bracket_f1(d1, f1):
    bracket = sp.projection_bracket(d1, f1, 1)
    assert bracket.mu == F(9, 16)
    # the coefficient tail past level 1 is (pi^2/6 - 1)/4 = 0.16123...;
    # the rational enclosure must straddle a deep partial sum of it
    lo, hi = f1.rule.tail_enclosure(1, 1)
    partial = sum(f1.coeff(n) for n in range(2, 500))
    assert lo <= partial < hi
    assert bracket.tail_upper == hi
    assert bracket.lower == bracket.mu - 2 * bracket.tail_upper
    assert bracket.upper == bracket.mu + 2 * bracket.tail_upper
    assert bracket.chain_holds


def test_stability_chain_exact(d1, f1):
    bracket = sp.projection_bracket(d1, f1, 4)
    for link in bracket.chain:
        assert link.delta_mu <= link.bound
    # successive bracket widths shrink: 4*T_N nonincreasing in N
    widths = [
        sp.projection_bracket(d1, f1, level).upper
        - sp.projection_bracket(d1, f1, level).lower
        for level in range(4)
    ]
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_identity_bracket_collapses(d1):
    ident = sp.Functional(alpha0=F(1), rule=sp.explicit([0] * 8, 0, 0))
    bracket = sp.projection_bracket(d1, ident, 3)
    assert (bracket.lower, bracket.mu, bracket.upper) == (1, 1, 1)


def test_directional_axis(d1, f1):
    bracket = sp.directional_measure(d1, f1, (F(1), F(0)), 2)
    assert bracket.mu == 1
    assert bracket.tail_upper == 0


def test_directional_identity_between_code_paths(d1, f1):
    planar = sp.Functional(alpha0=F(0), rule=f1.rule)
    via_direction = sp.directional_measure(d1, planar, (f1.alpha0, F(1)), 3)
    direct = sp.projection_bracket(d1, f1, 3)
    assert via_direction.mu == direct.mu
    assert via_direction.mu_levels == direct.mu_levels
    assert via_direction.tail_upper == direct.tail_upper


def test_directional_golden_value(d1, f1):
    bracket = sp.directional_measure(d1, f1, (F(-1), F(4)), 4)
    assert bracket.mu == F(140105, 110592)
    assert bracket.mu > 0


def test_negative_q_direction_matches_mirror(d1, f1):
    up = sp.directional_measure(d1, f1, (F(1), F(2)), 3)
    down = sp.directional_measure(d1, f1, (F(-1), F(-2)), 3)
    assert up.mu == down.mu  # images are reflections of each other


def test_bracket_checks_level_and_budget_first(d1, f1, monkeypatch):
    def no_image(*args):
        raise AssertionError("an image was computed before the checks")

    build = measure.build_pl

    def no_table(*args):
        build(*args)  # the level and budget checks must refuse before a table is built
        raise AssertionError("a table was built before the checks")

    monkeypatch.setattr(measure, "build_pl", no_table)
    monkeypatch.setattr(measure, "_image_ints", no_image)
    for level in (-1, 9):
        with pytest.raises(DomainError):
            sp.projection_bracket(d1, f1, level)
    with pytest.raises(BudgetExceeded) as err:
        sp.projection_bracket(d1, f1, 8, piece_budget=2 * d1.grid_size(8) - 1)
    assert err.value.count == 2 * d1.grid_size(8)


def test_bracket_beyond_default_budget(f1):
    # 2 M_10 = 7.4e9 pieces: every chain level runs under the caller's budget
    deep = sp.harmonic_l2_preset(n_max=10)
    bracket = sp.projection_bracket(deep, f1, 10, piece_budget=2**33)
    assert bracket.piece_count == 2 * deep.grid_size(10) > DEFAULT_PIECE_BUDGET
    assert len(bracket.mu_levels) == 11 and bracket.chain_holds
    assert 0 < bracket.lower < bracket.upper
    # direction 42 of the 64-direction scan still measures its top levels by shapes
    mixed = sp.directional_measure(deep, f1, (F(-1280), F(1848)), 10, piece_budget=2**33)
    assert len(mixed.mu_levels) == 11 and mixed.chain_holds
    assert 0 < mixed.mu < mixed.upper


def test_image_budget(d1, f1):
    with pytest.raises(BudgetExceeded):
        sp.image_measure(sp.build_pl(d1, f1, 5), piece_budget=100)


def test_hausdorff_identity_parameters():
    flat = sp.ParameterSet(
        alpha=sp.explicit([0] * 6, 0, 0),
        m=sp.linear_refinement(2),
        n_max=6,
        model="L2",
    )
    for n in (0, 1, 2):
        report = sp.hausdorff_upper(flat, 6, n)
        assert report.sum_upper == 1


def test_hausdorff_within_norm_bound(d1):
    for n in (0, 1, 2, 3):
        report = sp.hausdorff_upper(d1, 8, n)
        assert report.within_norm_bound
        assert report.sum_upper <= report.norm_bound_upper
    report = sp.hausdorff_upper(d1, 8, 0)
    assert report.norm_bound_upper < F(6, 5)
    with pytest.raises(DomainError):
        sp.hausdorff_upper(d1, 2, 3)


def test_hausdorff_l1_model(d2):
    report = sp.hausdorff_upper(d2, 6, 2)
    assert report.within_norm_bound


def test_hausdorff_cell_budget(d1):
    with pytest.raises(BudgetExceeded):
        sp.hausdorff_upper(d1, 8, 4, cell_budget=100)


def _covering_params(model, factors, scales, tails=(0, 0)) -> sp.ParameterSet:
    return sp.ParameterSet(
        alpha=sp.explicit(scales, *tails),
        m=sp.explicit_refinement(factors),
        n_max=len(factors),
        model=model,
    )


@st.composite
def covering_cases(draw):
    """A parameter set in either model (explicit scales up to 1/2 with
    certified tails, refinement factors 1..7, odd and 1 included), a
    truncation level and a grid level of at most 200 cells."""
    n_max = draw(st.integers(1, 4))
    scales = st.fractions(0, F(1, 2), max_denominator=12)
    params = _covering_params(
        draw(st.sampled_from(["L1", "L2"])),
        draw(st.lists(st.integers(1, 7), min_size=n_max, max_size=n_max)),
        draw(st.lists(scales, min_size=n_max, max_size=n_max)),
        (draw(scales), draw(scales)),
    )
    truncation = draw(st.integers(0, n_max))
    grid = draw(st.integers(0, truncation))
    while params.grid_size(grid) > 200:
        grid -= 1
    return params, truncation, grid


@settings(max_examples=200)
@given(covering_cases())
@example((_covering_params("L2", [3, 1, 5], [F(1, 2), F(1, 3), F(1, 4)]), 3, 3))
@example((_covering_params("L1", [2, 3, 1], [F(1, 2), F(1, 5), F(1, 7)]), 3, 2))
def test_covering_sum_matches_the_cell_oracle(case):
    params, truncation, grid = case
    report = sp.hausdorff_upper(params, truncation, grid)
    assert report.sum_upper == covering_sum_oracle(params, truncation, grid)


def test_hausdorff_exact_sums(d1, d2):
    # exact values from an independent implementation with one loop per
    # model; both models, two (N, n) pairs each
    pinned = [
        (d1, 4, 2, "50284249730790278929005003967239098099861/47149619158246126476961864276204584960000"),
        (d1, 6, 3, "676994064887491169095026580291497249667/628661588776615019692824857016061132800"),
        (d2, 6, 2, "290537281479811/243524645683200"),
        (d2, 8, 4, "6266650158211/5073430118400"),
    ]
    for params, truncation, grid, value in pinned:
        assert sp.hausdorff_upper(params, truncation, grid).sum_upper == F(value)
