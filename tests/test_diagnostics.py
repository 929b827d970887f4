import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sawproj as sp
from sawproj.diagnostics import (
    SAMPLE_BITS,
    _event_hit,
    _SecantConstants,
    _slope_identity,
    rand_fraction,
    rand_index,
    sample_event_union,
    sample_oscillation,
    sample_secant_witnesses,
    sample_slope_identities,
    secant_threshold,
    spawn_rng,
)
from sawproj.errors import BudgetExceeded, DomainError
from sawproj.events import check_event_levels, event_window, independence_checks
from sawproj.measure import IntervalUnion

from oracles import (
    component,
    event_contains,
    event_union_oracle,
    oscillation_oracle,
    secant_sample_oracle,
    secant_witness_oracle,
    slope_identity_oracle,
    slope_sample_oracle,
)

F = Fraction


def test_event_set_measures(d1):
    assert sp.event_set(d1, 1).measure == 1
    assert sp.event_set(d1, 2).measure == F(1, 2)
    assert sp.event_set(d1, 3).measure == F(1, 3)
    assert sp.event_set(d1, 1).cells.intervals == ((F(0), F(1)),)
    assert sp.event_set(d1, 2).cells.intervals == (
        (F(0), F(1, 8)),
        (F(3, 8), F(5, 8)),
        (F(7, 8), F(1)),
    )


def test_event_set_zero_scale():
    flat = sp.ParameterSet(
        alpha=sp.explicit([0] * 4, 0, 0), m=sp.linear_refinement(2), n_max=4, model="L2"
    )
    ev = sp.event_set(flat, 2)
    assert ev.measure == 0
    assert ev.cells.component_count == flat.grid_size(1) + 1


def test_event_set_rejects_oversized_scale():
    wide = sp.ParameterSet(
        alpha=sp.explicit([F(3, 4)] * 2, 0, 0), m=sp.linear_refinement(2), n_max=2, model="L2"
    )
    with pytest.raises(DomainError):
        sp.event_set(wide, 1)


def test_event_occupies_end_subcells_of_each_coarse_cell(d1):
    # within every level-(n-1) cell the event is exactly the first and last
    # alpha_n * m_n level-n subcells
    for n in (2, 3, 4):
        cells = sp.event_set(d1, n).cells
        coarse = d1.grid_size(n - 1)
        fine = d1.grid_size(n)
        ends = int(d1.alpha_term(n) * d1.refinement_factor(n))
        for k in range(coarse):
            lo = F(k, coarse)
            hi = F(k + 1, coarse)
            inside = cells.intersect(IntervalUnion.from_intervals([(lo, hi)]))
            expected = IntervalUnion.from_intervals(
                [(lo, lo + F(ends, fine)), (hi - F(ends, fine), hi)]
            )
            assert inside == expected


def test_event_membership_closed_form_matches_union(d1):
    rng = spawn_rng(5)
    for n in (1, 2, 3, 4):
        cells = sp.event_set(d1, n).cells
        for _ in range(200):
            t = rand_fraction(rng)
            assert event_contains(d1, n, t) == cells.contains(t)


def test_event_levels_outside_one_to_n_max_are_refused():
    # sample_event_union sampled past n_max and passed an empty level set
    params = sp.harmonic_l2_preset(4)
    for n in (0, 5):
        for refused in (
            lambda: sp.event_set(params, n),
            lambda: sample_event_union(params, (n,), 100, 1),
            lambda: sample_event_union(params, (2, n), 100, 1),
        ):
            with pytest.raises(DomainError, match=f"level {n} outside \\[1, 4\\]"):
                refused()
    with pytest.raises(DomainError, match="no event levels"):
        sample_event_union(params, (), 100, 1)
    assert sp.event_set(params, 4).cells.contains(F(0))
    assert sample_event_union(params, (4,), 100, 1).hits


def test_independence_pairs_and_triples(d1):
    assert sp.independence_check(d1, (1, 2)).measure == F(1, 2)
    assert sp.independence_check(d1, (2, 3)).measure == F(1, 6)
    res = sp.independence_check(d1, (2, 3, 4))
    assert res.measure == res.expected == F(1, 24)
    single = sp.independence_check(d1, (3,))
    assert single.measure == 2 * d1.alpha_term(3)
    with pytest.raises(DomainError):
        sp.independence_check(d1, (1, 2, 3, 4, 5))
    with pytest.raises(BudgetExceeded):
        sp.independence_check(d1, (5, 6), component_budget=10)


def test_independence_budget_is_checked_before_any_event(d1, monkeypatch):
    def no_event(*args):
        raise AssertionError("an event was built before the budget check")

    monkeypatch.setattr(sp.events, "event_set", no_event)
    # the level-2 event fits the budget, the level-6 one (M_5 + 1 components) does not
    with pytest.raises(BudgetExceeded) as err:
        sp.independence_check(d1, (2, 6), component_budget=100)
    assert err.value.count == d1.grid_size(5) + 1
    with pytest.raises(DomainError):
        sp.independence_check(d1, (0, 2))


@pytest.mark.parametrize("group", [(3, 3), (4, 2, 4)])
def test_independence_checks_take_a_group_as_independence_check_does(d1, group):
    # a repeated level is one event, so (3, 3) meets in 2 alpha_3, not 4 alpha_3**2
    (res,) = independence_checks(d1, [group])
    assert res == sp.independence_check(d1, group)
    assert res.levels == tuple(sorted(set(group))) and res.multiplicative


@pytest.mark.parametrize("group", [(), (1, 2, 3, 4, 5)], ids=["empty", "five"])
def test_independence_checks_refuse_a_group_before_any_event(d1, group, monkeypatch):
    def no_event(*args):
        raise AssertionError("an event was built before the group check")

    monkeypatch.setattr(sp.events, "event_set", no_event)
    with pytest.raises(DomainError, match="between one and four levels"):
        independence_checks(d1, [(1, 2), group])


def test_event_budget_admits_an_event_of_exactly_its_size(d1):
    components = d1.grid_size(2) + 1  # the level-3 event's component count
    check_event_levels(d1, (3,), components)
    with pytest.raises(BudgetExceeded):
        check_event_levels(d1, (3,), components - 1)


def test_independence_of_four_levels(d1):
    res = sp.independence_check(d1, (1, 2, 3, 4))
    assert res.measure == res.expected == F(1, 24)


def test_intersection_budget_admits_a_meet_of_exactly_its_size(d1):
    # the level-1 event is [0, 1], so the meet is the level-3 event's 9 components
    (res,) = independence_checks(d1, [(1, 3)], 9)
    assert res.component_count == 9
    assert res.measure == res.expected == F(1, 3)


def test_union_sampling_is_seeded_and_within_three_sigmas(d1):
    report = sample_event_union(d1, range(4, 9), 4000, 271828)
    again = sample_event_union(d1, range(4, 9), 4000, 271828)
    assert report.hits == again.hits
    assert report.expected_probability == F(5, 8)
    assert report.within_sigmas(3)


def test_secant_witness_eligible_example(d1):
    size = d1.grid_size(4)
    beta = F(1, size)  # grid index 1 is on no coarser grid
    t0 = beta - d1.alpha_term(4) / (2 * size)
    w = sp.secant_witness(d1, t0, 4)
    assert w is not None
    assert w.tn == beta
    assert w.passed
    assert w.threshold == secant_threshold(d1)
    assert secant_threshold(d1) == 1 / (64 * d1.box_norm_sq_enclosure()[1])
    assert d1.box_norm_sq_enclosure()[1] <= F(142, 100)
    # witness geometry: different cells, bounded separation
    assert int(w.t0 * size) != int(w.tn * size) or w.tn == beta
    assert abs(w.t0 - w.tn) <= 2 * d1.alpha_term(4) / size


def test_secant_witness_right_side_steps_back(d1):
    size = d1.grid_size(4)
    beta = F(1, size)
    t0 = beta + d1.alpha_term(4) / (3 * size)
    w = sp.secant_witness(d1, t0, 4)
    assert w is not None
    assert w.tn == beta - d1.alpha_term(4) / size
    assert w.passed


def test_secant_witness_ineligible_cases(d1):
    # nearest grid point lies on a coarser grid
    assert sp.secant_witness(d1, F(1, 8), 4) is None
    # too far from the fine grid
    size = d1.grid_size(4)
    assert sp.secant_witness(d1, F(1, size) + F(1, 2 * size), 4) is None
    # zero scale at the chosen level
    flat = sp.ParameterSet(
        alpha=sp.explicit([0] * 4, 0, 0), m=sp.linear_refinement(2), n_max=4, model="L2"
    )
    assert sp.secant_witness(flat, F(1, 100), 2) is None


def test_secant_witness_requires_l2(d2):
    with pytest.raises(DomainError):
        sp.secant_witness(d2, F(1, 10), 3)


def test_secant_witness_matches_component_oracle(d1):
    rng = spawn_rng(5)
    top = d1.n_max
    for n in (1, 4, 7):
        size, alpha_n = d1.grid_size(n), d1.alpha_term(n)
        for _ in range(20):
            k = rand_index(rng, 1, size - 1)
            k += k % d1.refinement_factor(n) == 0  # a grid point on no coarser grid
            offset = rand_fraction(rng) * alpha_n / size
            t0 = F(k, size) + (offset if rng.getrandbits(1) else -offset)
            w = sp.secant_witness(d1, t0, n)
            delta = tuple(
                d1.alpha_term(m) * (component(d1, m, w.tn) - component(d1, m, t0))
                for m in range(top + 1)
            )
            norm_sq_upper = sum(d * d for d in delta) + d1.point_tail_l2sq_upper(top)
            assert w.delta == delta
            assert w.norm_sq_upper == norm_sq_upper
            assert w.ratio_sq == delta[n] ** 2 / norm_sq_upper
            assert w.threshold == secant_threshold(d1)


# (passed, total) as computed by the Fraction component route that preceded
# the integer one; level 1 is where the rate is far from 1
SECANT_COUNTS = {
    1: {1: (139, 300), 2: (300, 300), 5: (300, 300)},
    3: {1: (122, 300), 2: (300, 300), 5: (300, 300)},
}


@pytest.mark.parametrize("seed", sorted(SECANT_COUNTS))
def test_secant_sample_counts_are_pinned(d1, seed):
    for n, counts in SECANT_COUNTS[seed].items():
        assert sample_secant_witnesses(d1, n, 300, seed) == counts


def test_secant_sampling_high_pass_rate(d1):
    passed, total = sample_secant_witnesses(d1, 5, 120, 1234)
    assert total == 120
    assert 10 * passed >= 9 * total


@contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging: SIGALRM raises TimeoutError after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_rand_index_empty_range_raises():
    with time_limit(5), pytest.raises(DomainError):
        rand_index(spawn_rng(1), 3, 2)


@pytest.mark.parametrize(
    "m, alpha, n",
    [
        (sp.explicit_refinement([2, 1, 4]), [F(1, 4), F(1, 4), F(1, 8)], 2),  # m_n = 1
        (sp.explicit_refinement([1, 4]), [F(1, 4), F(1, 8)], 1),  # M_n = 1
        (sp.linear_refinement(2), [F(1, 4), F(0), F(1, 8)], 2),  # alpha_n = 0
    ],
    ids=["m_n-is-1", "M_n-is-1", "alpha_n-is-0"],
)
def test_secant_sampling_without_eligible_parameters_raises(m, alpha, n):
    params = sp.ParameterSet(
        alpha=sp.explicit(alpha, 0, 0), m=m, n_max=len(alpha), model="L2"
    )
    with time_limit(5), pytest.raises(DomainError):
        sample_secant_witnesses(params, n, 10, 1)


def test_slope_identity_example(d1):
    # level 1 in the cell [0, 1/2): t, h and the cell are numerators over 16,
    # the two level-1 sides numerators over 2 * 16 * M_N
    sizes, side = d1.grid_sizes, F(1, 2 * 16 * d1.grid_sizes[-1])
    identity = _slope_identity(sizes, 1, 16, 2, 1, 0, 8)  # t 1/8, h 1/16
    shifted, equal_levels, toggled = identity
    assert F(shifted, 16) == F(3, 8)
    assert {x * side for x in toggled} == {F(0), F(1, 16)}
    assert 2 in equal_levels  # half-period divides the shift


def test_slope_identity_zero_shift(d1):
    # t = 1/8 and h = 0 in the cell [0, 1/2): both level-1 sides vanish
    assert _slope_identity(d1.grid_sizes, 1, 16, 2, 0, 0, 8)[2] == (0, 0)


def test_slope_identity_rejects_escaping_points(d1):
    with pytest.raises(DomainError):  # t = 3/8 and h = 1/4 leave the cell [0, 1/2)
        _slope_identity(d1.grid_sizes, 1, 16, 6, 4, 0, 8)


def test_slope_identity_sampling(d1):
    assert sample_slope_identities(d1, 250, 777) == 250
    # n_max = 1 leaves no level below n_max to check
    with pytest.raises(DomainError, match=r"levels 1\.\.5 and needs n_max >= 2, got n_max = 1$"):
        sample_slope_identities(sp.harmonic_l2_preset(n_max=1), 250, 777)


def test_event_measures_hold_up_to_level_eight(d1):
    # deeper levels: hundreds of thousands of components, still exact
    for n in (7, 8):
        assert sp.event_set(d1, n).measure == F(1, n)


def test_negative_seed_is_refused():
    # Random seeds from abs(), so -1 * 1000003 would alias seed 1 at chunk 0
    with pytest.raises(DomainError, match="seed must be nonnegative"):
        spawn_rng(-1)
    with pytest.raises(DomainError):
        sample_secant_witnesses(sp.harmonic_l2_preset(), 4, 10, -5)


# -- integer samplers against the Fraction routes they replaced ---------------------------

SCALES = st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12)


@st.composite
def l2_parameter_sets(draw):
    """L2 parameter sets with certified tails: harmonic, geometric or explicit
    scales up to 1/2 and refinement factors 1..7, odd and 1 included."""
    n_max = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["harmonic", "geometric", "explicit"]))
    if kind == "harmonic":
        alpha = sp.harmonic(draw(SCALES))
    elif kind == "geometric":
        alpha = sp.geometric(draw(SCALES), draw(SCALES))
    else:
        values = draw(st.lists(SCALES, min_size=n_max, max_size=n_max))
        alpha = sp.explicit(values, draw(SCALES), draw(SCALES))
    factors = draw(st.lists(st.integers(1, 7), min_size=n_max, max_size=n_max))
    return sp.ParameterSet(
        alpha=alpha, m=sp.explicit_refinement(factors), n_max=n_max, model="L2"
    )


def _outcome(run):
    """The value of run(), or the DomainError it raised."""
    try:
        return run()
    except DomainError:
        return DomainError


@settings(max_examples=400)
@given(l2_parameter_sets(), st.data())
def test_secant_witness_matches_fraction_oracle(params, data):
    n = data.draw(st.integers(1, params.n_max))
    size = params.grid_size(n)
    # mostly near a level-n grid point, where parameters are eligible
    offset = data.draw(st.fractions(-1, 1, max_denominator=2**20))
    t0 = F(data.draw(st.integers(0, size)), size) + offset * params.alpha_term(n) / size
    assume(0 <= t0 < 1)
    w = sp.secant_witness(params, t0, n)
    expected = secant_witness_oracle(params, t0, n)
    if w is None:
        assert expected is None
    else:
        assert (w.n, w.t0, w.tn, w.delta, w.norm_sq_upper, w.ratio_sq, w.threshold) == expected
        assert w.passed == (expected[5] >= expected[6])


@settings(max_examples=150)
@given(l2_parameter_sets(), st.integers(0, 2**32), st.data())
def test_secant_sample_counts_match_fraction_oracle(params, seed, data):
    n = data.draw(st.integers(1, params.n_max))
    if params.refinement_factor(n) == 1 or params.alpha_term(n) == 0:
        with pytest.raises(DomainError):
            sample_secant_witnesses(params, n, 30, seed)
        return
    assert sample_secant_witnesses(params, n, 30, seed) == secant_sample_oracle(
        params, n, 30, seed
    )


@settings(max_examples=400)
@given(l2_parameter_sets(), st.data())
def test_secant_rest_bound_holds_and_its_screen_implies_passes(params, data):
    # the sampler's screen: B_hi bounds the exact rest of the squared norm, so
    # delta_n^2 / (delta_n^2 + B_hi) >= threshold is enough to pass
    n = data.draw(st.integers(1, params.n_max))
    size, m_n, alpha_n = params.grid_size(n), params.refinement_factor(n), params.alpha_term(n)
    assume(m_n > 1 and 0 < 2 * alpha_n <= 1)
    k = data.draw(st.integers(1, size - 1))
    k += k % m_n == 0  # a grid point on no coarser grid
    offset = data.draw(st.fractions(-1, 1, max_denominator=2**20))
    w = sp.secant_witness(params, F(k, size) + offset * alpha_n / size, n)
    assume(w is not None)
    den = math.lcm(w.t0.denominator, w.tn.denominator)
    a0, an = int(w.t0 * den), int(w.tn * den)
    consts = _SecantConstants.of(params)
    deltas, scale = consts.deltas(den, a0, an)
    tail = consts.tail_sq
    rest = sum(d * d for d in deltas) - deltas[n] ** 2
    bound = consts.rest_upper(n, den, abs(an - a0))
    assert bound >= rest * tail.denominator + tail.numerator * scale**2
    share = deltas[n] ** 2 * tail.denominator
    if share and F(share, share + bound) >= consts.threshold:
        assert consts.passes(deltas, scale, n)


@settings(max_examples=400)
@given(l2_parameter_sets(), st.data())
def test_slope_identity_matches_fraction_oracle(params, data):
    n = data.draw(st.integers(1, params.n_max))
    size = params.grid_size(n)
    lo = F(data.draw(st.integers(0, size - 1)), size)
    # the whole cell, or its left or right half
    lo, hi = data.draw(st.sampled_from([
        (lo, lo + F(1, size)), (lo, lo + F(1, size)),
        (lo, lo + F(1, 2 * size)), (lo + F(1, 2 * size), lo + F(1, size)),
    ]))
    t = lo + data.draw(st.fractions(0, 1, max_denominator=64).filter(lambda u: u < 1)) * (hi - lo)
    h = data.draw(st.fractions(-1, 1, max_denominator=64)) / (2 * size)
    expected = slope_identity_oracle(params, n, lo, hi, t, h)
    den = math.lcm(2 * size, *(x.denominator for x in (t, h, lo, hi)))
    args = tuple(int(x * den) for x in (t, h, lo, hi))
    if expected is None:  # a point leaves the cell, or odd factors break periodicity
        with pytest.raises(DomainError):
            _slope_identity(params.grid_sizes, n, den, *args)
        return
    shifted, equal_levels, toggled = _slope_identity(params.grid_sizes, n, den, *args)
    side = F(1, 2 * den * params.grid_sizes[-1])
    assert (n, t, F(shifted, den), h, equal_levels, tuple(x * side for x in toggled)) == expected


@settings(max_examples=150)
@given(l2_parameter_sets(), st.integers(0, 2**32))
def test_sampled_identities_and_oscillation_match_fraction_oracles(params, seed):
    got = _outcome(lambda: sample_slope_identities(params, 20, seed))
    expected = _outcome(lambda: slope_sample_oracle(params, 20, seed))
    assert got == (DomainError if expected is None else expected)
    assert sample_oscillation(params, 30, seed) == oscillation_oracle(params, 30, seed)


def test_oscillation_sample_of_the_preset(d1):
    worst, passed = sample_oscillation(d1, 1000, 1)
    assert (worst, passed) == oscillation_oracle(d1, 1000, 1)
    assert passed and worst == F(266400310121365, 281474976710656)


@settings(max_examples=400)
@given(l2_parameter_sets(), st.data())
def test_event_hit_matches_event_contains(params, data):
    # the integer membership test of the sampler against the Fraction oracle
    n = data.draw(st.integers(1, params.n_max))
    size, alpha = params.grid_size(n - 1), params.alpha_term(n)
    # mostly within a few units of 2^-48 of a window edge k/M_{n-1} +- alpha_n/M_{n-1}
    side = data.draw(st.sampled_from([-1, 1]))
    edge = F(data.draw(st.integers(0, size)), size) + side * alpha / size
    near = math.floor(edge * 2**SAMPLE_BITS) + data.draw(st.integers(-2, 2))
    r = data.draw(st.one_of(st.just(near), st.integers(0, 2**SAMPLE_BITS - 1)))
    assume(0 <= r < 2**SAMPLE_BITS)
    t = F(r, 2**SAMPLE_BITS)
    assert _event_hit(event_window(params, n), r) == event_contains(params, n, t)


@settings(max_examples=300)
@given(
    st.lists(st.fractions(0, 1, max_denominator=12), min_size=3, max_size=3),
    st.lists(st.integers(1, 5), min_size=3, max_size=3),
    st.integers(1, 3),
)
@example([F(1, 2), F(1, 4), F(1, 6)], [2, 4, 6], 1)  # 2 alpha_1 = 1 exactly: admitted
@example([F(1, 2), F(7, 13), F(1, 6)], [2, 4, 6], 2)  # 2 alpha_2 = 14/13: refused
def test_event_set_is_its_window_clipped_and_refused_past_one_half(values, factors, n):
    params = sp.ParameterSet(
        alpha=sp.explicit(values, 0, 0), m=sp.explicit_refinement(factors), n_max=3, model="L2"
    )
    alpha, size = values[n - 1], params.grid_size(n - 1)
    if 2 * alpha > 1:
        for refused in (event_window, sp.event_set, lambda p, n: check_event_levels(p, (n,))):
            with pytest.raises(DomainError, match=f"^2 alpha_{n} = {2 * alpha} exceeds 1$"):
                refused(params, n)
        return
    window = event_window(params, n)
    assert window == (size, alpha.denominator, alpha.numerator)
    # the windows [k - alpha_n, k + alpha_n] / M_{n-1}, k = 0..M_{n-1}, clipped to [0, 1]
    clipped = [
        (max(F(0), (k - alpha) / size), min(F(1), (k + alpha) / size)) for k in range(size + 1)
    ]
    assert sp.event_set(params, n).cells == IntervalUnion.from_intervals(clipped)


@settings(max_examples=150)
@given(l2_parameter_sets(), st.integers(0, 2**32), st.data())
def test_event_union_hits_match_fraction_oracle(params, seed, data):
    levels = data.draw(st.sets(st.integers(1, params.n_max), min_size=1))
    report = sample_event_union(params, levels, 60, seed)
    assert report.hits == event_union_oracle(params, levels, 60, seed)
