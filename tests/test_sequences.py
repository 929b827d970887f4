from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sawproj.errors import DEFAULT_PIECE_BUDGET, CertificationError, DomainError
from sawproj.measure import direction_brackets
from sawproj.sequences import (
    Functional,
    SequenceRule,
    _zeta4_tail_bracket,
    explicit,
    geometric,
    harmonic,
    inverse_square,
)

from oracles import direction_functional

F = Fraction


def test_term_values():
    assert harmonic(F(1, 2)).term(4) == F(1, 8)
    assert geometric(F(1, 2), F(1, 2)).term(3) == F(1, 16)
    assert inverse_square(F(1, 4)).term(3) == F(1, 36)
    assert explicit([F(1, 3), F(0)], 0, 0).term(2) == 0


def test_terms_start_at_one_and_explicit_is_finite():
    with pytest.raises(DomainError):
        harmonic(F(1)).term(0)
    with pytest.raises(DomainError):
        explicit([F(1)], 0, 0).term(2)
    with pytest.raises(DomainError, match="power must be 1 or 2"):
        harmonic(F(1)).tail_enclosure(0, 3)


def test_negative_terms_rejected():
    with pytest.raises(DomainError):
        harmonic(F(-1))
    with pytest.raises(DomainError):
        explicit([F(-1, 2)], 0, 0)
    with pytest.raises(DomainError):
        geometric(F(1), F(3, 2))
    bogus = (
        lambda: SequenceRule("bogus"),
        lambda: SequenceRule(kind="bogus", a=F(1)),
        lambda: harmonic(F(1))._replace(a=F(-1)),
    )
    for build in bogus:
        with pytest.raises(DomainError):
            build()


def test_geometric_tails_are_exact():
    rule = geometric(F(1, 2), F(1, 2))
    for n in (0, 1, 5):
        lo, hi = rule.tail_enclosure(n, 1)
        assert lo == hi
        # telescoping oracle: exact finite sum plus the same closed form later
        partial = sum(rule.term(k) for k in range(n + 1, n + 31))
        deeper = rule.tail_enclosure(n + 30, 1)[0]
        assert lo == partial + deeper
        sq_lo, sq_hi = rule.tail_enclosure(n, 2)
        assert sq_lo == sq_hi
        sq_partial = sum(rule.term(k) ** 2 for k in range(n + 1, n + 31))
        assert sq_lo == sq_partial + rule.tail_enclosure(n + 30, 2)[0]


@pytest.mark.parametrize("n_from", [1, 2, 8, 50])
def test_harmonic_l2sq_tail_bracket_against_partials(n_from):
    rule = harmonic(F(1, 2))
    lo, hi = rule.tail_enclosure(n_from, 2)
    assert lo < hi
    deep = n_from + 3000
    partial = sum(rule.term(k) ** 2 for k in range(n_from + 1, deep + 1))
    deep_lo, deep_hi = rule.tail_enclosure(deep, 2)
    # both bracket the same number, so they must be compatible
    assert lo <= partial + deep_hi
    assert hi >= partial + deep_lo
    assert partial < hi


def test_zeta4_tail_bracket_against_partials():
    # sum_{n > N} 1/n^4 is S + tail(N + 100), with S the exact terms in between
    for n_from in range(31):
        lo, hi = _zeta4_tail_bracket(n_from)
        partial = sum(F(1, n**4) for n in range(n_from + 1, n_from + 101))
        deep_lo, deep_hi = _zeta4_tail_bracket(n_from + 100)
        assert lo <= partial + deep_hi
        assert partial + deep_lo <= hi
        for a in (F(1, 4), F(3)):
            assert inverse_square(a).tail_enclosure(n_from, 2) == (a**2 * lo, a**2 * hi)


@pytest.mark.parametrize("n_from", [1, 2, 8, 50])
def test_inverse_square_l1_tail_bracket_against_partials(n_from):
    rule = inverse_square(F(1, 4))
    lo, hi = rule.tail_enclosure(n_from, 1)
    deep = n_from + 3000
    partial = sum(rule.term(k) for k in range(n_from + 1, deep + 1))
    deep_lo, deep_hi = rule.tail_enclosure(deep, 1)
    assert lo <= partial + deep_hi
    assert hi >= partial + deep_lo
    assert partial < hi


def test_harmonic_l1_tail_diverges():
    rule = harmonic(F(1, 2))
    assert rule.l1_diverges()
    assert rule.tail_enclosure(3, 1) is None
    with pytest.raises(CertificationError, match="no certified l1 tail"):
        rule.certified_tail(3, 1)


def test_zero_harmonic_rule_converges():
    rule = harmonic(F(0))
    assert not rule.l1_diverges()
    assert rule.tail_enclosure(3, 1) == (0, 0)


def test_explicit_tails_trusted_as_stated():
    rule = explicit([F(1, 2), F(1, 4)], tail_l1=F(1, 8), tail_l2sq=F(1, 64))
    lo, hi = rule.tail_enclosure(1, 1)
    assert lo == F(1, 4) and hi == F(1, 4) + F(1, 8)
    assert rule.tail_enclosure(1, 2) == (F(1, 16), F(1, 16) + F(1, 64))
    assert explicit([F(1)], None, None).tail_enclosure(0, 1) is None
    assert explicit([F(1)], F(0), None).tail_enclosure(0, 2) is None


_QUARTERS = st.integers(0, 8).map(lambda k: F(k, 4))
_ALL_KINDS = st.one_of(
    st.builds(harmonic, _QUARTERS),
    st.builds(geometric, _QUARTERS, st.integers(0, 7).map(lambda k: F(k, 8))),
    st.builds(inverse_square, _QUARTERS),
    st.builds(
        explicit,
        st.lists(st.integers(0, 6).map(lambda k: F(k, 6)), max_size=30),
        st.sampled_from([None, F(0), F(1, 9)]),
        st.sampled_from([None, F(0), F(1, 81)]),
    ),
)


@given(rule=_ALL_KINDS, splits=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_sums_at_every_split_enclose_one_number(rule, splits):
    if rule.kind == "explicit":
        splits = tuple(min(s, len(rule.values)) for s in splits)
    for power, name in ((1, "l1"), (2, "squared-l2")):
        if rule.tail_enclosure(0, power) is None:
            with pytest.raises(CertificationError, match=f"no certified {name} tail"):
                rule.series_sum(splits[0], power)
            continue
        (lo_a, hi_a), (lo_b, hi_b) = (rule.series_sum(s, power) for s in splits)
        assert lo_a <= hi_a and lo_b <= hi_b
        assert max(lo_a, lo_b) <= min(hi_a, hi_b)
    if rule.kind == "geometric":
        a, r = rule.a, rule.r
        assert rule.series_sum(splits[0], 1) == (a * r / (1 - r),) * 2
        assert rule.series_sum(splits[1], 2) == (a**2 * r**2 / (1 - r**2),) * 2


def test_term_bound_after():
    assert harmonic(F(1, 2)).term_bound_after(4) == F(1, 10)
    assert geometric(F(1, 2), F(1, 2)).term_bound_after(2) == F(1, 16)
    assert explicit([F(1), F(1, 2)], 0, 0).term_bound_after(1) == F(1, 2)
    assert explicit([F(1)], F(1, 3), None).term_bound_after(0) is None


@given(st.lists(st.fractions(0, 1, max_denominator=12), max_size=8), st.integers(0, 9))
def test_explicit_term_bound_after_dominates_every_later_term(values, n):
    rule = explicit(values, 0)  # a zero l1 tail: the listed terms are all there are
    bound = rule.term_bound_after(n)
    assert all(rule.term(k) <= bound for k in range(n + 1, len(values) + 1))


def test_functional_coeffs_and_signs():
    f = Functional(alpha0=F(1, 2), rule=inverse_square(F(1, 4)))
    assert f.coeff(0) == F(1, 2)
    assert f.coeff(2) == F(1, 16)
    g = Functional(alpha0=F(1, 2), rule=inverse_square(F(1, 4)), sign=-1, signs=(-1, 1))
    assert g.coeff(1) == F(1, 4)  # sign * signs[0] = 1
    assert g.coeff(2) == -F(1, 16)


def test_functional_rejects_bad_signs():
    rule = inverse_square(F(1, 4))
    built = (
        lambda: Functional(F(0), rule, 0),
        lambda: Functional(F(0), rule, sign=0),
        lambda: Functional(alpha0=F(0), rule=rule, sign=0),
        lambda: Functional(F(0), rule, 1, (1, 2)),
        lambda: Functional(F(0), rule, signs=(1, 2)),
        lambda: Functional(alpha0=F(0), rule=rule, signs=(1, 2)),
        lambda: Functional(F(0), rule)._replace(sign=0),
    )
    for build in built:
        with pytest.raises(DomainError):
            build()


def test_functional_direction_combination(d1):
    f = Functional(alpha0=F(1, 2), rule=inverse_square(F(1, 4)))
    g = direction_functional(f, F(-1), F(4))
    assert g.coeff(0) == F(-1) + 4 * F(1, 2)
    assert g.coeff(3) == 4 * f.coeff(3)
    assert g.abs_tail_upper(2) == 4 * f.abs_tail_upper(2)
    h = direction_functional(f, F(1), F(-2))
    assert h.coeff(1) == -2 * f.coeff(1)
    # an explicit rule scales its values and both stated tails
    e = direction_functional(Functional(F(0), explicit([F(1, 2)], F(1, 4), F(1, 16))), 0, -2)
    assert e.rule == explicit([F(1)], F(1, 2), F(1, 4)) and e.coeff(1) == -1
    with pytest.raises(DomainError):
        direction_functional(f, F(0), F(0))
    with pytest.raises(DomainError):
        direction_brackets(d1, f, 2, DEFAULT_PIECE_BUDGET)(F(0), F(0))


@pytest.mark.parametrize(
    "rule",
    [
        harmonic(F(0)),
        geometric(F(1, 2), F(1, 3)),
        inverse_square(F(1, 4)),
        explicit([F(1, 2), F(1, 5), F(1, 7)], tail_l1=F(1, 9)),
    ],
    ids=lambda rule: rule.kind,
)
def test_direction_tail_is_abs_q_times_the_tail(d1, rule):
    functional = Functional(alpha0=F(1, 3), rule=rule, signs=(1, -1))
    for n in range(4):
        brackets = direction_brackets(d1, functional, n, DEFAULT_PIECE_BUDGET)
        for p, q in [(F(1), F(2)), (F(-3, 4), F(-5, 7)), (F(0), F(-2)), (F(5, 3), F(0))]:
            assert brackets(p, q).tail_upper == abs(q) * functional.abs_tail_upper(n)


def test_divergent_direction_tail_needs_q_zero(d1):
    functional = Functional(alpha0=F(1, 3), rule=harmonic(F(1, 2)))
    brackets = direction_brackets(d1, functional, 3, DEFAULT_PIECE_BUDGET)
    assert brackets(F(1), F(0)).tail_upper == 0
    with pytest.raises(CertificationError):
        brackets(F(1), F(-1, 2))
