from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sawproj as sp
from sawproj.diagnostics import rand_fraction, rand_index, spawn_rng
from sawproj.errors import BudgetExceeded, CertificationError, DomainError
from sawproj.params import point_nums_at

from oracles import component, curve_point, piece_rows_oracle, saw
from test_measure import truncations

F = Fraction


def test_sawtooth_values():
    # the oracle the integer components are checked against
    assert saw(F(1, 4)) == 0
    assert saw(F(3, 4)) == F(1, 4)
    assert saw(F(5, 2)) == 0
    assert saw(F(0)) == 0
    assert saw(F(1, 2)) == 0
    assert saw(F(9, 10)) == F(2, 5)


def test_component_values(d1):
    assert sp.component_value(d1, 1, F(3, 8)) == F(1, 8)
    assert sp.component_value(d1, 2, F(5, 16)) == 0
    for n in range(1, 9):
        assert sp.component_value(d1, n, F(0)) == 0
    with pytest.raises(DomainError):
        sp.component_value(d1, 9, F(0))
    with pytest.raises(DomainError):
        sp.component_value(d1, 1, F(1))


def test_component_range(d1):
    rng = spawn_rng(11)
    for _ in range(300):
        t = rand_fraction(rng)
        n = rand_index(rng, 1, 8)
        v = sp.component_value(d1, n, t)
        assert 0 <= v < F(1, 2 * d1.grid_size(n))


def test_truncated_point_examples(d1):
    p = sp.truncated_point(d1, 2, F(3, 8))
    assert p.coords == (F(3, 8), F(1, 8), F(0))
    assert sp.truncated_point(d1, 3, F(0)).coords == (0, 0, 0, 0)
    assert sp.truncated_point(d1, 1, F(1, 2)).coords == (F(1, 2), F(0))
    assert p.tail_l1_upper > 0
    lo, hi = p.tail_l2_enclosure
    assert 0 <= lo <= hi
    assert p.embedded(d1) == (F(3, 8), F(1, 16), F(0))


@pytest.mark.parametrize("preset", ["d1", "d2"])
@pytest.mark.parametrize("t", [F(0), F(3, 8), F(1, 3), F(5, 7), F(1, 2), F(99, 100)])
@pytest.mark.parametrize("level", [0, 1, 4, 8])
def test_truncated_point_l2_tail_encloses_the_discarded_coordinates(preset, t, level, request):
    # the exact l2 norm of the discarded coordinates level < n <= n_max, from the
    # oracle's Fraction sawtooth; at t = 0 and t = 3/8, level 4, every one is 0
    params = request.getfixturevalue(preset)
    lo, hi = sp.truncated_point(params, level, t).tail_l2_enclosure
    dropped_sq = sum(
        (params.alpha_term(n) * component(params, n, t)) ** 2
        for n in range(level + 1, params.n_max + 1)
    )
    assert lo**2 <= dropped_sq <= hi**2
    if t in (0, F(3, 8)) and level == 4:
        assert lo == dropped_sq == 0


def piece_table(pl) -> list[dict]:
    """The integer piece table as Fraction rows: pl.nums for the left value
    and the slope, and the jump at the left end as the previous piece's right
    limit less this piece's left value (0 at piece 0), as pieces.csv has it."""
    count = pl.piece_count
    rows, limit = [], None
    for j in range(count):
        v, w = pl.nums(j)
        rows.append(
            {
                "piece_index": j,
                "left_endpoint": F(j, count),
                "length": F(1, count),
                "slope": F((w - v) * count, pl.denom),
                "left_value": F(v, pl.denom),
                "jump_at_left": F(limit - v if j else 0, pl.denom),
            }
        )
        limit = w
    return rows


def table_value(pl, t: F) -> F:
    """The table's value at t: the left value of t's piece plus the share of
    the piece's rise that t has covered."""
    j, share = divmod(t * pl.piece_count, 1)
    v, w = pl.nums(j)
    return (v + (w - v) * share) / pl.denom


def oracle_value(params, functional, level: int, t: F, left: bool = False) -> F:
    """sum_n c_n f_n(t), or its left limit, over the oracle's Fraction sawtooth."""
    return sum(curve_point(params, functional.coeffs(level), t, left=left))


def test_pl_four_piece_table(d1, f1):
    rows = piece_table(sp.build_pl(d1, f1, 1))
    assert [r["left_endpoint"] for r in rows] == [F(0), F(1, 4), F(1, 2), F(3, 4)]
    assert [r["slope"] for r in rows] == [F(1, 2), F(3, 4), F(1, 2), F(3, 4)]
    assert [r["left_value"] for r in rows] == [F(0), F(1, 8), F(1, 4), F(3, 8)]
    assert [r["jump_at_left"] for r in rows] == [F(0), F(0), F(1, 16), F(0)]


def test_pl_value_spot_checks(d1, f1):
    pl = sp.build_pl(d1, f1, 2)
    rows = piece_table(pl)
    assert rows[6]["left_endpoint"] == F(3, 8)
    assert rows[6]["left_value"] == oracle_value(d1, f1, 2, F(3, 8)) == F(7, 32)
    assert len(rows) == 16 and rows[8]["left_endpoint"] == F(1, 2)
    assert rows[8]["jump_at_left"] == f1.coeff(1) / 4 + f1.coeff(2) / 16


def test_identity_functional_is_affine(d1):
    ident = sp.Functional(alpha0=F(1), rule=sp.explicit([0] * 8, 0, 0))
    for row in piece_table(sp.build_pl(d1, ident, 3)):
        assert row["slope"] == 1 and row["jump_at_left"] == 0


def test_piece_evaluation_matches_direct_sum(d1, f1):
    pl = sp.build_pl(d1, f1, 3)
    rows = piece_table(pl)
    rng = spawn_rng(23)
    for _ in range(1000):
        t = rand_fraction(rng)
        row = rows[int(t * pl.piece_count)]
        value = row["left_value"] + row["slope"] * (t - row["left_endpoint"])
        assert value == table_value(pl, t) == oracle_value(d1, f1, 3, t)


def test_right_continuity_at_breakpoints(d1, f1):
    pl = sp.build_pl(d1, f1, 2)
    for row in piece_table(pl)[1:]:
        t = row["left_endpoint"]
        left = oracle_value(d1, f1, 2, t, left=True)
        assert left - oracle_value(d1, f1, 2, t) == row["jump_at_left"]


@pytest.mark.parametrize("level", range(4))
def test_piece_table_matches_fraction_oracle(d1, f1, level):
    pl = sp.build_pl(d1, f1, level)
    rows = piece_table(pl)
    assert rows == piece_rows_oracle(d1, f1, level)
    for row in rows:
        assert oracle_value(d1, f1, level, row["left_endpoint"]) == row["left_value"]


@settings(max_examples=100)
@given(truncations())
def test_piece_table_matches_fraction_oracle_on_truncations(case):
    params, functional, level = case
    assert piece_table(sp.build_pl(params, functional, level)) == piece_rows_oracle(
        params, functional, level
    )


def test_truncation_tail_bound(d1, f1):
    rng = spawn_rng(31)
    lo_pl = sp.build_pl(d1, f1, 2)
    hi_pl = sp.build_pl(d1, f1, 6)
    # each dropped level n moves h by at most |c_n| / (2 M_n)
    bound = sum(abs(f1.coeff(n)) / (2 * d1.grid_size(n)) for n in range(3, 7))
    for _ in range(200):
        t = rand_fraction(rng)
        assert abs(table_value(hi_pl, t) - table_value(lo_pl, t)) <= bound


def test_per_coordinate_oscillation(d1):
    rng = spawn_rng(37)
    for _ in range(500):
        n = rand_index(rng, 0, 6)
        size = d1.grid_size(n)
        idx = rand_index(rng, 1, size)
        lo = F(idx - 1, size)
        width = F(1, size)
        t = lo + rand_fraction(rng) * width
        u = lo + rand_fraction(rng) * width
        for k in range(9):
            assert abs(sp.component_value(d1, k, t) - sp.component_value(d1, k, u)) <= width


def test_periodicity(d1):
    rng = spawn_rng(41)
    for _ in range(300):
        m = rand_index(rng, 1, 6)
        period = F(1, d1.grid_size(m))
        t = rand_fraction(rng) * (1 - period)
        assert sp.component_value(d1, m, t + period) == sp.component_value(d1, m, t)


def test_left_limits(d1):
    def left(n, t):
        nums, scale = point_nums_at(d1, n, t, left=True)
        return F(nums[n], scale)

    assert left(1, F(1, 2)) == F(1, 4)
    assert left(1, F(3, 8)) == F(1, 8)
    assert left(2, F(1)) == F(1, 16)


def _grid(factors) -> sp.ParameterSet:
    return sp.ParameterSet(
        alpha=sp.explicit([0] * len(factors), 0, 0),
        m=sp.explicit_refinement(factors),
        n_max=len(factors),
        model="L2",
    )


@st.composite
def component_arguments(draw):
    """A grid (factors 1..6, odd and 1 included), a component index and a
    parameter in [0, 1]: a random rational, 0, 1, or a point of some
    level's half-grid."""
    factors = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    params = _grid(factors)
    n = draw(st.integers(0, len(factors)))
    kind = draw(st.sampled_from(["rational", "zero", "one", "half-grid"]))
    if kind == "rational":
        t = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    elif kind == "half-grid":
        cells = 2 * params.grid_size(draw(st.integers(0, len(factors))))
        t = F(draw(st.integers(0, cells)), cells)
    else:
        t = F(kind == "one")
    return params, n, t


@settings(max_examples=500)
@given(component_arguments())
@example((_grid([3, 5, 1]), 2, F(1, 3)))
@example((_grid([3, 5, 1]), 3, F(8, 15)))
@example((_grid([1, 1, 2]), 2, F(1, 2)))
@example((_grid([4, 6]), 2, F(1)))
def test_integer_components_match_sawtooth(case):
    params, n, t = case
    sizes = params.grid_sizes
    values = [t] + [saw(size * t) / size for size in sizes[1:]]
    nums, scale = point_nums_at(params, params.n_max, t)
    assert [F(x, scale) for x in nums] == values
    if t > 0:
        # a level-m grid point takes the top of the tooth it ends
        nums, scale = point_nums_at(params, params.n_max, t, left=True)
        assert [F(x, scale) for x in nums] == [
            F(1, 2 * size) if m and (size * t).denominator == 1 else values[m]
            for m, size in enumerate(sizes)
        ]
    if t < 1:
        assert sp.component_value(params, n, t) == values[n]
    # at t = 1 every level sits at a grid point
    nums, scale = point_nums_at(params, n, F(1), left=True)
    assert [F(x, scale) for x in nums] == [1] + [F(1, 2 * size) for size in sizes[1 : n + 1]]


def test_component_rejects_negative_argument(d1):
    with pytest.raises(DomainError):
        sp.component_value(d1, 3, F(-1, 7))


def test_build_pl_budget_and_tail_requirements(d1, f1):
    with pytest.raises(BudgetExceeded) as err:
        sp.build_pl(d1, f1, 4, piece_budget=100)
    assert err.value.count == 2 * 384
    # a table reads no tail, so the certified l1 tail is the bracket's to require
    divergent = sp.Functional(alpha0=F(1), rule=sp.harmonic(F(1, 2)))
    assert sp.build_pl(d1, divergent, 2).piece_count == 2 * 8
    with pytest.raises(CertificationError):
        sp.projection_bracket(d1, divergent, 2)
