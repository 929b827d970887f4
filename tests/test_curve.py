from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings

import sawproj as sp
from sawproj.diagnostics import rand_fraction, spawn_rng
from sawproj.errors import BudgetExceeded, CertificationError, DomainError

from oracles import (
    canonical_tau,
    curve_cases,
    curve_point_oracle,
    curve_vertices_oracle,
    polyline_length,
)

F = Fraction


def test_level_zero_is_a_straight_segment(d2, r1):
    c0 = sp.build_curve(d2, r1, 0)
    assert sp.curve_length(c0) == 1
    assert [v.coords for v in c0.vertices] == [(F(0),), (F(1, 2),), (F(1),), (F(1),)]


def test_level_one_polygon_exact(d2, r1):
    c1 = sp.build_curve(d2, r1, 1)
    expected = [
        (F(0), (F(0), F(0))),
        (F(1, 4), (F(1, 4), F(0))),
        (F(1, 2), (F(1, 2), F(1, 16))),
        (F(1, 2), (F(1, 2), F(0))),
        (F(3, 4), (F(3, 4), F(0))),
        (F(1), (F(1), F(1, 16))),
        (F(1), (F(1), F(0))),
    ]
    assert [(v.t, v.coords) for v in c1.vertices] == expected
    assert sp.curve_length(c1) == F(5, 4)


def _odd_grid_curve_instance():
    """An l1 instance on a grid with odd factors and m_2 = 1, whose signed
    coefficients have distinct denominators."""
    params = sp.ParameterSet(
        alpha=sp.geometric(F(1, 2), F(1, 2)),
        m=sp.explicit_refinement([3, 1, 5, 2]),
        n_max=4,
        model="L1",
    )
    functional = sp.Functional(
        alpha0=F(2, 3),
        rule=sp.explicit([F(1, 5), F(1, 7), F(1, 9), F(1, 6)], 0, 0),
        signs=(1, -1, -1, 1),
    )
    return params, functional


@pytest.mark.parametrize("instance", ["geometric", "odd-grid"])
def test_curve_matches_per_vertex_oracle(instance, d2, r1):
    params, functional = (d2, r1) if instance == "geometric" else _odd_grid_curve_instance()
    for level in range(5):
        curve = sp.build_curve(params, functional, level)
        expected = curve_vertices_oracle(params, functional, level)
        assert [(v.t, v.coords) for v in curve.vertices] == expected
        assert sp.curve_length(curve) == polyline_length(expected)
        assert sp.curve_length(curve) == sp.curve_length_closed_form(params, functional, level)


@settings(max_examples=80)
@given(curve_cases())
def test_period_layout_matches_per_vertex_oracle(case):
    """One pattern per coordinate gives every vertex and the length of the
    polygon, on grids with odd factors and m_n = 1 and with signed coefficients."""
    params, functional, level = case
    curve = sp.build_curve(params, functional, level)
    expected = curve_vertices_oracle(params, functional, level)
    assert [(v.t, v.coords) for v in curve.vertices] == expected
    assert len(curve.vertices) == curve.vertex_count == 3 * params.grid_size(level) + 1
    length = sp.curve_length(curve)
    assert length == polyline_length(expected)
    assert length == sp.curve_length_closed_form(params, functional, level)


def test_curve_csv_streams_in_bounded_memory(tmp_path, d2, r1):
    """build_curve and curve.csv at level 5 (11,521 vertices) stay under 1 MB
    of traced allocations; a row per vertex held at once took 4.8 MB."""
    import tracemalloc

    from sawproj.curve import export_curve_csv

    tracemalloc.start()
    try:
        export_curve_csv(sp.build_curve(d2, r1, 5), tmp_path / "curve.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert len((tmp_path / "curve.csv").read_bytes().splitlines()) == 1 + 11521


def test_length_ledger(d2, r1):
    lengths = {0: sp.curve_length(sp.build_curve(d2, r1, 0))}
    for n in range(1, 5):
        lengths[n] = sp.curve_length(sp.build_curve(d2, r1, n))
        built = lengths[n] - lengths[n - 1]
        closed = sp.length_increment(d2, r1, n)
        assert built == closed
        assert built <= F(3, 2) * abs(r1.coeff(n))
    assert lengths[4] == sp.curve_length_closed_form(d2, r1, 4)
    assert lengths[4] == 1 + sum(sp.length_increment(d2, r1, n) for n in range(1, 5))


def test_length_difference_requires_consecutive_matching_curves(d2, r1):
    c2 = sp.build_curve(d2, r1, 2)
    c1 = sp.build_curve(d2, r1, 1)
    assert sp.length_difference(c2, c1) == sp.length_increment(d2, r1, 2)
    with pytest.raises(DomainError):
        sp.length_difference(c2, sp.build_curve(d2, r1, 0))
    other = sp.Functional(alpha0=F(1), rule=sp.geometric(F(1, 4), F(1, 2)))
    with pytest.raises(DomainError):
        sp.length_difference(c2, sp.build_curve(d2, other, 1))


def test_zero_functional_collapses_to_segment(d2):
    zero = sp.Functional(alpha0=F(1), rule=sp.explicit([0] * 12, 0, 0))
    c3 = sp.build_curve(d2, zero, 3)
    assert sp.curve_length(c3) == 1
    for v in c3.vertices:
        assert v.coords[0] == v.t
        assert all(c == 0 for c in v.coords[1:])


def on_polygon(curve, t: Fraction) -> bool:
    """Whether the truncated point over t, times the coefficients, lies where the
    polygon's segment over t interpolates its two vertices: t is in the first
    half of its level-N cell (vertices 3j, 3j + 1) or the second (3j + 1, 3j + 2)."""
    size = curve.params.grid_size(curve.level)
    j = int(t * size)
    mid = F(2 * j + 1, 2 * size)
    i, t_a, t_b = (3 * j, F(j, size), mid) if t < mid else (3 * j + 1, mid, F(j + 1, size))
    a, b = curve.vertex(i).coords, curve.vertex(i + 1).coords
    theta = (t - t_a) / (t_b - t_a)
    point = sp.truncated_point(curve.params, curve.level, t).coords
    expected = tuple(c * x for c, x in zip(curve.functional.coeffs(curve.level), point))
    return tuple(x + theta * (y - x) for x, y in zip(a, b)) == expected


def test_containment_of_truncated_points(d2, r1):
    c3 = sp.build_curve(d2, r1, 3)
    rng = spawn_rng(17)
    for _ in range(1000):
        assert on_polygon(c3, rand_fraction(rng))
    # a point off the set is rejected: vertex 1 (and each repeat of coordinate
    # 1's pattern) moved to coordinate 1 = 1
    first, *rest = c3.patterns
    moved = c3._replace(patterns=((c3.denom, *first[1:]), *rest))
    assert moved.vertex(1).coords[1] == 1 != c3.vertex(1).coords[1]
    assert moved.vertex(0) == c3.vertex(0)
    assert not on_polygon(moved, F(1, 10**6))


def test_curve_requires_l1_model_and_contraction(d1, d2, f1):
    with pytest.raises(DomainError):
        sp.build_curve(d1, f1, 1)
    too_big = sp.Functional(alpha0=F(1), rule=sp.geometric(F(3, 2), F(1, 2)))
    with pytest.raises(DomainError):
        sp.build_curve(d2, too_big, 1)


def test_vertex_budget(d2, r1):
    with pytest.raises(BudgetExceeded) as err:
        sp.build_curve(d2, r1, 4, vertex_budget=10)
    assert err.value.count == 3 * d2.grid_size(4) + 1


def test_canonical_tau_structure(d2):
    tau = canonical_tau(d2, 1)
    assert tau.grid_size == 2
    assert tau.const_len == F(1, 4 * 2 * 3)
    assert (tau.grid_size + 1) * tau.const_len + tau.grid_size * tau.gap_len == 1
    assert tau.value(F(0)) == 0
    assert tau.value(F(1)) == 1
    # nondecreasing along a sweep
    prev = F(-1)
    for k in range(101):
        v = tau.value(F(k, 100))
        assert v >= prev
        prev = v


def test_s_outside_the_unit_interval_is_refused(d2):
    tau = canonical_tau(d2, 1)
    for s in (F(-1), F(2)):
        with pytest.raises(DomainError):
            tau.locate(s)


def test_sup_distance_enumeration_matches_closed_form(d2, r1):
    curves = {n: sp.build_curve(d2, r1, n) for n in range(4)}
    for n in (1, 2, 3):
        enum = sp.sup_distance(curves[n], curves[n - 1])
        assert enum == sp.sup_distance_bound(d2, r1, n)
        assert enum == abs(r1.coeff(n)) / (2 * d2.grid_size(n))
        assert enum <= F(3, 2) * abs(r1.coeff(n))


def test_sup_distance_golden_level_one(d2, r1):
    c0 = sp.build_curve(d2, r1, 0)
    c1 = sp.build_curve(d2, r1, 1)
    value = sp.sup_distance(c1, c0)
    assert value == F(1, 16)
    assert value <= F(3, 8)


def test_sup_distance_zero_functional(d2):
    zero = sp.Functional(alpha0=F(1), rule=sp.explicit([0] * 12, 0, 0))
    c1 = sp.build_curve(d2, zero, 1)
    c0 = sp.build_curve(d2, zero, 0)
    assert sp.sup_distance(c1, c0) == 0


def l1_distance(a, b) -> Fraction:
    """l1 distance of two points, the shorter padded with zero coordinates."""
    return sum((abs(x - y) for x, y in zip_longest(a, b, fillvalue=0)), F(0))


def test_sup_distance_dominates_a_fine_parameter_sweep(d2, r1):
    sup = sp.sup_distance(sp.build_curve(d2, r1, 2), sp.build_curve(d2, r1, 1))
    tau = canonical_tau(d2, 2)

    def gap(s):
        higher = curve_point_oracle(d2, r1, 2, tau, s)
        return l1_distance(higher, curve_point_oracle(d2, r1, 1, tau, s))

    assert max(gap(F(k, 997)) for k in range(998)) <= sup
    assert max(map(gap, tau.breakpoints())) == sup


@settings(max_examples=200)
@given(curve_cases())
def test_sup_distance_matches_the_point_oracle_and_closed_form(case):
    """The integer walk equals the largest distance of the two levels' Fraction
    points over the higher level's vertices, and the closed form."""
    params, functional, level = case
    assume(level > 0)
    tau = canonical_tau(params, level)
    expected = max(
        l1_distance(
            curve_point_oracle(params, functional, level, tau, s),
            curve_point_oracle(params, functional, level - 1, tau, s),
        )
        for s in tau.breakpoints()
    )
    higher = sp.build_curve(params, functional, level)
    lower = sp.build_curve(params, functional, level - 1)
    assert sp.sup_distance(higher, lower) == expected
    assert expected == sp.sup_distance_bound(params, functional, level)


def test_build_curve_refuses_a_functional_without_a_certified_l1_tail(d2):
    divergent = sp.Functional(F(1, 2), sp.harmonic(F(1, 4)))
    with pytest.raises(CertificationError, match="no certified l1 tail"):
        sp.build_curve(d2, divergent, 2)
