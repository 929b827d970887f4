from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sawproj as sp
from sawproj.certificates import (
    CHECK_ALPHA_M_INTEGER,
    CHECK_BOX_NORM,
    CHECK_EVEN_REFINEMENT,
    CHECK_L1_NORM,
    CHECK_L2_NORM,
    CHECK_TAIL_CERTIFIED,
)
from sawproj.errors import CertificationError, DomainError

F = Fraction


def test_grid_sizes(d1):
    assert [d1.grid_size(n) for n in range(5)] == [1, 2, 8, 48, 384]
    assert d1.grid_size(8) == 2**8 * factorial(8)
    with pytest.raises(DomainError):
        d1.grid_size(9)


def test_cell_lengths_sum_to_one(d1):
    for n in range(1, 5):
        # refinement is exactly m-fold
        assert d1.grid_size(n) == d1.grid_size(n - 1) * d1.refinement_factor(n)


EVEN = (CHECK_EVEN_REFINEMENT, True, "all refinement factors even")
INTEGER = (CHECK_ALPHA_M_INTEGER, True, "alpha_n * m_n is a positive integer for all n")
L2_TAIL = (CHECK_TAIL_CERTIFIED, True, "squared-l2 tail certified")
L1_TAIL = (CHECK_TAIL_CERTIFIED, True, "l1 tail certified")


def assert_checks(params, kinds, checks):
    """validate's failure kinds, and its (check, passed, detail) triples in order."""
    report = sp.validate(params)
    assert report.failure_kinds() == kinds
    assert report.passed == (not kinds)
    assert [tuple(c) for c in report.checks] == checks


def test_validate_presets_pass(d1, d2):
    assert_checks(d1, set(), [
        EVEN, INTEGER, L2_TAIL,
        (CHECK_L2_NORM, True, "sum alpha_n^2 <= 19732933/47980800 (slack 28247867/47980800)"),
        (CHECK_BOX_NORM, True,
         "1 + sum alpha_n^2 <= 67713733/47980800 (slack 124209467/47980800)"),
    ])
    assert_checks(d2, set(), [
        EVEN, L1_TAIL, (CHECK_L1_NORM, True, "sum alpha_n <= 1/2 (slack 1/2)"),
    ])


def test_validate_failure_kinds_flip_one_at_a_time():
    base = dict(alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=6, model="L2")

    odd = sp.ParameterSet(**{**base, "m": sp.constant_refinement(3)})
    assert_checks(odd, {CHECK_EVEN_REFINEMENT, CHECK_ALPHA_M_INTEGER}, [
        (CHECK_EVEN_REFINEMENT, False, "odd factors: m_1=3, m_2=3, m_3=3, m_4=3, m_5=3, m_6=3"),
        (CHECK_ALPHA_M_INTEGER, False,
         "non-integer products: n=1: 3/2, n=2: 3/4, n=3: 1/2, n=4: 3/8, n=5: 3/10, n=6: 1/4"),
        L2_TAIL,
        (CHECK_L2_NORM, True, "sum alpha_n^2 <= 76997/187200 (slack 110203/187200)"),
        (CHECK_BOX_NORM, True, "1 + sum alpha_n^2 <= 264197/187200 (slack 484603/187200)"),
    ])

    nonint = sp.ParameterSet(**{**base, "alpha": sp.harmonic(F(1, 3))})
    assert_checks(nonint, {CHECK_ALPHA_M_INTEGER}, [
        EVEN,
        (CHECK_ALPHA_M_INTEGER, False,
         "non-integer products: n=1: 2/3, n=2: 2/3, n=3: 2/3, n=4: 2/3, n=5: 2/3, n=6: 2/3"),
        L2_TAIL,
        (CHECK_L2_NORM, True, "sum alpha_n^2 <= 76997/421200 (slack 344203/421200)"),
        (CHECK_BOX_NORM, True, "1 + sum alpha_n^2 <= 498197/421200 (slack 1186603/421200)"),
    ])

    big = sp.ParameterSet(**{**base, "alpha": sp.harmonic(F(1))})
    assert_checks(big, {CHECK_L2_NORM}, [
        EVEN, INTEGER, L2_TAIL,
        (CHECK_L2_NORM, False, "sum alpha_n^2 <= 76997/46800 (slack -30197/46800)"),
        (CHECK_BOX_NORM, True, "1 + sum alpha_n^2 <= 123797/46800 (slack 63403/46800)"),
    ])

    uncert = sp.ParameterSet(
        **{**base, "alpha": sp.explicit([F(1, 2)] * 6, None, None)}
    )
    assert_checks(uncert, {CHECK_TAIL_CERTIFIED}, [
        EVEN, INTEGER,
        (CHECK_TAIL_CERTIFIED, False, "alpha has no certified squared-l2 tail bound"),
    ])

    l1_big = sp.ParameterSet(
        alpha=sp.geometric(F(3, 2), F(1, 2)), m=sp.linear_refinement(2), n_max=6, model="L1"
    )
    assert_checks(l1_big, {CHECK_L1_NORM}, [
        EVEN, L1_TAIL, (CHECK_L1_NORM, False, "sum alpha_n <= 3/2 (slack -1/2)"),
    ])

    l1_div = sp.ParameterSet(
        alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=6, model="L1"
    )
    assert_checks(l1_div, {CHECK_TAIL_CERTIFIED}, [
        EVEN, (CHECK_TAIL_CERTIFIED, False, "alpha l1 tail diverges"),
    ])

    l1_uncert = uncert._replace(model="L1")
    assert_checks(l1_uncert, {CHECK_TAIL_CERTIFIED}, [
        EVEN, (CHECK_TAIL_CERTIFIED, False, "alpha has no certified l1 tail bound"),
    ])


def test_validate_d1_norm_certificate(d1):
    lo, hi = d1.alpha.series_sum(d1.n_max, 2)
    assert lo < hi < 1
    # the loose closed form also holds: tail above level 8 is at most 1/32
    assert d1.alpha.certified_tail(8, 2)[1] <= F(1, 32)


def test_box_norm_enclosure_models(d1, d2):
    lo, hi = d1.box_norm_enclosure()
    assert lo**2 <= F(142, 100) and hi < F(6, 5)
    l1_lo, l1_hi = d2.box_norm_enclosure()
    assert l1_lo <= l1_hi == 1 + F(1, 2)


def test_l1_box_norm_of_a_divergent_alpha_is_refused():
    divergent = sp.ParameterSet(
        alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=6, model="L1"
    )
    with pytest.raises(CertificationError, match="no certified l1 tail"):
        divergent.box_norm_enclosure()


def test_point_tail_bounds_dominate_partial_continuations(d1):
    # the discarded-levels bound must dominate any finite continuation
    for level in (0, 2, 5):
        cont = sum(
            d1.alpha.term(n) / (2 * d1.grid_size(n))
            for n in range(level + 1, d1.n_max + 1)
        )
        assert d1.point_tail_l1_upper(level) >= cont
        cont_sq = sum(
            (d1.alpha.term(n) / (2 * d1.grid_size(n))) ** 2
            for n in range(level + 1, d1.n_max + 1)
        )
        assert d1.point_tail_l2sq_upper(level) >= cont_sq
    assert d1.point_tail_l1_upper(d1.n_max) > 0


def test_point_tail_bounds_step_by_one_exact_term(d1, d2):
    # the exact head starts past the level, so one level down adds that level's term
    for params in (d1, d2):
        for level in range(1, params.n_max + 1):
            step = params.alpha.term(level) / (2 * params.grid_size(level))
            l1, l2sq = params.point_tail_l1_upper, params.point_tail_l2sq_upper
            assert l1(level - 1) - l1(level) == step
            assert l2sq(level - 1) - l2sq(level) == step**2


# each entry point's lowest level (0 from grid_size, 1 from refinement_factor) and its call
LEVEL_ENTRY_POINTS = {
    "truncated_point": (0, lambda params, functional, n: sp.truncated_point(params, n, F(1, 3))),
    "build_curve": (0, sp.build_curve),
    "length_increment": (1, sp.length_increment),
    "sup_distance_bound": (1, sp.sup_distance_bound),
    "point_tail_l1_upper": (0, lambda params, functional, n: params.point_tail_l1_upper(n)),
    "point_tail_l2sq_upper": (0, lambda params, functional, n: params.point_tail_l2sq_upper(n)),
    "event_set": (1, lambda params, functional, n: sp.event_set(params, n)),
    "sample_event_union": (1, lambda params, functional, n: sp.sample_event_union(params, [n], 8, 0)),
    "secant_witness": (1, lambda params, functional, n: sp.secant_witness(params, F(1, 3), n)),
    "build_pl": (0, sp.build_pl),
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("entry", list(LEVEL_ENTRY_POINTS))
def test_level_outside_range_raises_the_owners_message(entry, side, d1, f1, d2, r1):
    # the one message of ParameterSet.grid_size or refinement_factor, word for word
    low, call = LEVEL_ENTRY_POINTS[entry]
    params, functional = (d2, r1) if entry == "build_curve" else (d1, f1)  # curves are l1
    n = low - 1 if side == "below" else params.n_max + 1
    with pytest.raises(DomainError) as err:
        call(params, functional, n)
    assert str(err.value) == f"level {n} outside [{low}, {params.n_max}]"


def test_parameter_set_rejects_bad_shapes():
    with pytest.raises(DomainError):
        sp.ParameterSet(alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=0, model="L2")
    with pytest.raises(DomainError):
        sp.ParameterSet(alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=2, model="sup")
    with pytest.raises(DomainError):
        sp.ParameterSet(alpha=sp.explicit([F(1, 2)], 0, 0), m=sp.linear_refinement(2), n_max=3, model="L2")
    with pytest.raises(DomainError):  # the same checks run on positional fields
        sp.ParameterSet(sp.harmonic(F(1, 2)), sp.linear_refinement(2), 0, "L2")
    with pytest.raises(DomainError):
        sp.ParameterSet(sp.harmonic(F(1, 2)), sp.RefinementRule("explicit", 0, (2, 0)), 2, "L2")
    bogus = (
        lambda: sp.RefinementRule("bogus"),
        lambda: sp.RefinementRule(kind="bogus", k=2),
        lambda: sp.linear_refinement(2)._replace(kind="bogus"),
        lambda: sp.harmonic_l2_preset()._replace(model="sup"),
        lambda: sp.harmonic_l2_preset()._replace(sqrt_bits=0),
        lambda: sp.ParameterSet(sp.harmonic(F(1, 2)), sp.linear_refinement(2), 2, "L2", -3),
    )
    for build in bogus:
        with pytest.raises(DomainError):
            build()


def test_n_max_ceiling_is_checked_before_the_grid():
    assert sp.harmonic_l2_preset(256).grid_sizes[-1] == 2**256 * factorial(256)
    # a factor rule that fails at level 1 shows that the ceiling comes first
    never = sp.explicit_refinement(())
    with pytest.raises(DomainError, match="n_max = 257 exceeds the ceiling 256"):
        sp.ParameterSet(sp.harmonic(F(1, 2)), never, 257, "L2")


def test_parameter_set_record_semantics():
    fields = dict(alpha=sp.harmonic(F(1, 2)), m=sp.linear_refinement(2), n_max=8, model="L2")
    a = sp.ParameterSet(**fields)
    b = sp.ParameterSet(*fields.values())
    assert a == b and hash(a) == hash(b) and a is not b
    assert a.grid_sizes == b.grid_sizes
    assert a.grid_sizes[:5] == (1, 2, 8, 48, 384) and a.grid_sizes[8] == 2**8 * factorial(8)
    assert a._replace(n_max=4).grid_sizes == (1, 2, 8, 48, 384)  # recomputed, not copied
    assert "grid_sizes" not in repr(a) and repr(a) == repr(b)
    assert a != sp.ParameterSet(**{**fields, "n_max": 7})
    for name in ("grid_sizes", "n_max", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    assert a.grid_sizes == b.grid_sizes


# -- block partition ------------------------------------------------------------


def test_block_partition_geometric_example():
    part = sp.block_partition(sp.geometric(F(1, 2), F(1, 2)), F(1))
    assert part.blocks[0].start == 1
    assert part.blocks[0].end <= 8  # short prefix
    assert part.passed


def test_block_partition_single_nonzero_term():
    part = sp.block_partition(sp.explicit([F(3, 5)], 0, 0), F(1))
    assert len(part.blocks) == 1
    assert part.blocks[0] .sq_sum == F(9, 25)
    assert part.exhausted
    assert part.passed


def test_block_partition_harmonic(d1):
    part = sp.block_partition(d1.alpha, F(1, 2), max_blocks=3)
    assert part.passed
    # blocks are consecutive and disjoint
    prev_end = 0
    for block in part.blocks:
        assert block.start == prev_end + 1
        assert block.end >= block.start
        prev_end = block.end
    # each block's exact squared sum obeys the recorded threshold chain
    for m, block in enumerate(part.blocks[1:], start=2):
        assert block.sq_sum <= part.blocks[m - 2].threshold_sq


# rules whose exact block sums are cheap: geometric, and finite explicit lists
_CHEAP_RULES = st.one_of(
    st.builds(
        sp.geometric,
        st.integers(1, 16).map(lambda k: F(k, 8)),
        st.integers(1, 7).map(lambda k: F(k, 8)),
    ),
    st.lists(st.integers(0, 12).map(lambda k: F(k, 12)), min_size=1, max_size=40)
    .filter(any)
    .map(lambda values: sp.explicit(values, 0, 0)),
)


@given(rule=_CHEAP_RULES, eps=st.sampled_from([F(1, 10), F(1, 2), F(1), F(3)]))
def test_block_certificate_lhs_bounds_the_exact_block_sum(rule, eps):
    part = sp.block_partition(rule, eps)
    lines = [line for line in part.certificate if line.label.startswith("block_")]
    assert [line.lhs for line in lines] == [block.sq_sum for block in part.blocks]
    for block in part.blocks:
        assert block.sq_sum >= sum(rule.term(n) ** 2 for n in range(block.start, block.end + 1))
    assert part.passed


def test_block_partition_errors():
    with pytest.raises(DomainError):
        sp.block_partition(sp.harmonic(F(1, 2)), F(0))
    with pytest.raises(CertificationError):
        sp.block_partition(sp.explicit([F(1, 2)], None, None), F(1))
    with pytest.raises(CertificationError):
        # an all-zero sequence has norm 0, so delta degenerates to 0
        sp.block_partition(sp.explicit([F(0)], 0, 0), F(1))


def test_block_partition_survives_tiny_eps():
    # exact arithmetic keeps delta strictly positive even for minuscule eps
    part = sp.block_partition(sp.geometric(F(1, 2), F(1, 2)), F(1, 2**40), sqrt_bits=64)
    assert part.delta > 0
    assert part.passed
