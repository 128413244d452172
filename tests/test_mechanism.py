import csv
import random
from fractions import Fraction as F

import pytest

from dynration import (
    AllocationProfile,
    Jump,
    StepFunction,
    TooManySteps,
    coordinate_ascent,
    evaluate,
    extract,
    make_market,
    verify,
)
from dynration.mechanism import (
    LOTTERY_ONLY,
    POSTED,
    POSTED_LOTTERY,
    UNREACHABLE_THRESHOLD,
    NegativePriceError,
    mechanism_from_json,
    mechanism_to_json,
)
from dynration.report import price_path_csv

from gen import random_market


def test_ration_menu(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    first, second = mech.periods
    assert first.mode == POSTED
    assert first.p_high == F(5, 6)
    assert first.q_high == 1 and first.q_high_inclusive
    assert second.mode == LOTTERY_ONLY
    assert second.per_winner_price == F(2, 3)
    assert second.service_prob == F(1, 2)
    assert second.lottery_quantity == F(1, 2)
    assert second.q_low == F(2, 3) and second.q_low_inclusive
    assert second.q_high == UNREACHABLE_THRESHOLD and second.p_high is None


def test_closed_periods(ration_market):
    mech = extract(ration_market, AllocationProfile.zero(2))
    assert all(menu.mode == "closed" for menu in mech.periods)
    assert all(not menu.has_posted and not menu.has_lottery for menu in mech.periods)


def test_twogen_posted_prices(twogen_market, twogen_optimum):
    mech = extract(twogen_market, twogen_optimum)
    assert [menu.p_high for menu in mech.periods] == [F(1, 2), F(1, 2)]
    assert [menu.mode for menu in mech.periods] == [POSTED, POSTED]


def test_audit_residuals(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    result = verify(ration_market, ration_optimum, mech, tol=0)
    assert result.passed, result.violations
    assert result.report.service_residual == [None, 0]


def test_audit_random_instances():
    rng = random.Random(21)
    count = 0
    for _ in range(20):
        m = random_market(rng, unbounded=False, max_periods=3)
        report = coordinate_ascent(m, starts=4, seed=rng.randrange(10**6))
        mech = extract(m, report.profile)
        result = verify(m, report.profile, mech, tol=0)
        assert result.passed, result.violations
        for t in mech.lottery_periods():
            count += 1
            assert result.report.service_residual[t] == 0, t
    assert count > 0  # the sweep must actually exercise some lotteries


def test_too_many_steps():
    m = make_market(T=1, atoms=["1/4", "1/2", 1], mass=[[1, 1, 1]])
    three = StepFunction(
        [0, F(1, 4), F(1, 2), 1],
        [Jump(F(1, 4), True), Jump(F(1, 2), True), Jump(1, True)],
    )
    with pytest.raises(TooManySteps):
        extract(m, AllocationProfile((three,)))
    two_lotteries = StepFunction([F(1, 4), F(1, 2)], [Jump(F(1, 2), True)])
    with pytest.raises(TooManySteps, match="two fractional tiers cannot be priced as one lottery"):
        extract(m, AllocationProfile((two_lotteries,)))
    two_jumps_below_one = StepFunction([0, F(1, 4), F(1, 2)], [Jump(F(1, 4), True), Jump(F(1, 2), False)])
    with pytest.raises(TooManySteps, match="a two-jump rule must reach one at the top"):
        extract(m, AllocationProfile((two_jumps_below_one,)))


def test_no_lottery_when_inventory_slack():
    rng = random.Random(22)
    for _ in range(15):
        m = random_market(rng, unbounded=True)
        report = coordinate_ascent(m, starts=4, seed=rng.randrange(10**6))
        assert not report.binding
        mech = extract(m, report.profile)
        assert mech.lottery_periods() == []


def test_threshold_indifference(ration_market, ration_optimum):
    ev = evaluate(ration_market, ration_optimum)
    mech = extract(ration_market, ration_optimum, ev)
    menu = mech.periods[1]
    d = ration_market.discounts.delta[1]
    u_low = ev.u_at[2][ration_market.atoms.index(menu.q_low)]
    low_utility = menu.service_prob * (d * menu.q_low - menu.per_winner_price) + (1 - menu.service_prob) * u_low
    assert low_utility == u_low
    posted = mech.periods[0]
    u_high = ev.u_at[1][ration_market.atoms.index(posted.q_high)]
    assert ration_market.discounts.delta[0] * posted.q_high - posted.p_high == u_high


def test_threshold_price_at_a_jump_off_the_atoms():
    # The period-1 jump at 1/2 is a partition point but no atom, and
    # U_2(v) = 3v/4 is not zero there: the price is 1/2 - U_2(1/2) = 1/8.
    m = make_market(T=2, atoms=["1/3", 1], mass=[[1, 1], [1, 1]], delta=[1, "3/4"])
    prof = AllocationProfile((StepFunction.step(F(1, 2)), StepFunction.one()))
    first, second = extract(m, prof).periods
    assert (first.mode, first.q_high, first.q_high_inclusive) == (POSTED, F(1, 2), True)
    assert first.p_high == F(1, 8)
    assert second.p_high == 0


def test_two_tier_indifference_at_high_threshold():
    m = make_market(T=1, atoms=["1/2", 1], mass=[[2, 1]], inventory="3/2")
    report = coordinate_ascent(m, starts=4, seed=3)
    mech = extract(m, report.profile)
    menu = mech.periods[0]
    assert menu.mode == POSTED_LOTTERY
    # type q_high indifferent between the sure buy and the lottery
    d = m.discounts.delta[0]
    sure = d * menu.q_high - menu.p_high
    gamble = menu.service_prob * (d * menu.q_high - menu.per_winner_price)
    assert sure == gamble
    assert menu.per_winner_price < menu.p_high


def test_shared_location_pair_prices_exactly_equal_in_float():
    # a closed/open pair at one atom puts both tiers at one threshold, so the
    # posted and the lottery price must agree to the last bit; a rounding
    # that left the lottery price one ulp above raised NegativePriceError
    m = make_market(
        T=2, atoms=["19/40", "7/8"], mass=[["1/4", "1/2"], ["3/4", "1/4"]], delta=["3/4", "3/4"], mode="float"
    )
    q = m.atoms[1]
    pair = StepFunction([0, 0.2, 1], [Jump(q, True), Jump(q, False)])
    menu = extract(m, AllocationProfile((pair, StepFunction.step(m.atoms[0])))).periods[0]
    assert menu.mode == POSTED_LOTTERY
    assert menu.q_low == menu.q_high == q
    assert menu.p_high == menu.per_winner_price


def test_free_lottery_base_level():
    m = make_market(T=1, atoms=["1/2", 1], mass=[[1, 1]], inventory=1)
    half_everywhere = StepFunction.constant(F(1, 2))
    mech = extract(m, AllocationProfile((half_everywhere,)))
    menu = mech.periods[0]
    assert menu.mode == LOTTERY_ONLY
    assert menu.q_low == 0 and menu.per_winner_price == 0
    assert menu.lottery_quantity == 1


def test_lottery_open_to_every_bid_below_a_sure_tier():
    # the solver's budget-tight pair whose lower tail starts at piece 0 is
    # alpha on every piece below an atom's tail and one from there: a
    # lottery open to every bid (threshold 0) below a posted tier, which
    # the simulated best responses must reproduce exactly, with the
    # inventory unbounded or spent exactly
    rng = random.Random(2303)
    for _ in range(60):
        m = random_market(rng, unbounded=True, general_lambda=rng.random() < 0.5, tied_delta=rng.random() < 0.3)
        tiers = [(rng.choice([F(1, 4), F(1, 3), F(1, 2), F(3, 4)]), rng.choice(m.atoms), rng.random() < 0.5)
                 for _ in range(m.T)]
        tiers = [(alpha, at, closed or at == 1) for alpha, at, closed in tiers]
        profile = AllocationProfile(tuple(StepFunction([alpha, 1], [Jump(at, closed)]) for alpha, at, closed in tiers))
        if rng.random() < 0.7:
            d = m.discounts
            used = evaluate(m, profile).inventory_used
            m = make_market(m.T, m.atoms, m.mass, used, d.delta, d.lambda_s, d.lambda_b)
        mech = extract(m, profile)
        for menu, (alpha, at, closed) in zip(mech.periods, tiers):
            assert menu.mode == POSTED_LOTTERY
            assert (menu.q_low, menu.q_low_inclusive, menu.service_prob) == (0, True, alpha)
            assert (menu.q_high, menu.q_high_inclusive) == (at, closed)
            assert 0 == menu.per_winner_price <= menu.p_high
        result = verify(m, profile, mech, tol=0)
        assert result.passed, result.violations


def test_prices_from_a_foreign_evaluation_are_refused():
    # an evaluation of the same profile on a market whose deltas are larger
    # values waiting more than this market does: the prices it implies
    # fall below zero, or fall with the threshold
    atoms, mass = ["1/4", "1/2", 1], [[1, 1, 1], [1, 1, 1]]
    market = make_market(T=2, atoms=atoms, mass=mass, delta=["1/2", "1/2"])
    patient = make_market(T=2, atoms=atoms, mass=mass, delta=[1, 1])
    half = F(1, 2)
    sure = AllocationProfile((StepFunction.step(1), StepFunction.one()))
    tiered = AllocationProfile((StepFunction([0, half, 1], [(half, True), (1, True)]), StepFunction.step(half)))
    for profile, message in ((sure, "period 1: price -1/2 < 0"), (tiered, "period 1: lottery price 1/4 above posted 1/8")):
        extract(market, profile)
        with pytest.raises(NegativePriceError, match=f"^{message}$"):
            extract(market, profile, evaluate(patient, profile))


def test_lambda_b_scales_prices(ration_market, ration_optimum):
    m = make_market(
        T=2,
        atoms=["2/3", 1],
        mass=[[0, 1], [1, 0]],
        inventory="3/2",
        delta=[1, 1],
        lambda_b=[1, "1/2"],
    )
    mech = extract(m, ration_optimum)
    # same allocation, but period-2 money is half as painful: price doubles
    assert mech.periods[1].per_winner_price == F(4, 3)
    assert mech.periods[0].p_high == F(5, 6)


def test_mechanism_json_round_trip(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    text = mechanism_to_json(mech)
    assert mechanism_from_json(text, "rational") == mech
    assert '"mode": "lottery-only"' in text


def test_price_path_rows(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    rows = list(csv.reader(price_path_csv(mech).splitlines()))
    assert rows == [
        ["t", "pHigh", "perWinnerPrice", "lotteryQuantity"],
        ["1", "5/6", "", ""],
        ["2", "", "2/3", "1/2"],
    ]
