import csv
import dataclasses
import random
from fractions import Fraction as F

from dynration import (
    AllocationProfile,
    StepFunction,
    best_response,
    coordinate_ascent,
    evaluate,
    ex_ration,
    extract,
    make_market,
    verify,
)
from dynration import bestresponse
from dynration.bestresponse import BUY_HIGH, ENTER_LOTTERY, WAIT
from dynration.mechanism import PeriodMenu, PricedMechanism
from dynration.numeric import FLOAT
from dynration.report import verification_csv

from gen import random_market


def test_ration_plan(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    rep = best_response(ration_market, mech)
    hi = ration_market.atoms.index(1)
    lo = ration_market.atoms.index(F(2, 3))
    # the value-one buyer ties between buying now and gambling later (both 1/6)
    assert rep.plan[0][hi] == BUY_HIGH
    assert rep.utility[0][hi] == F(1, 6)
    assert rep.ic_slack[0][hi] == 0
    assert rep.plan[1][lo] == ENTER_LOTTERY
    assert rep.utility[1][lo] == 0
    assert rep.realized_revenue == F(7, 6)
    assert rep.realized_sales == F(3, 2)
    assert rep.demand[1] == 1
    assert rep.service_residual[1] == 0


def test_all_closed_everyone_waits(ration_market):
    mech = PricedMechanism((PeriodMenu(mode="closed"), PeriodMenu(mode="closed")))
    rep = best_response(ration_market, mech)
    assert all(a == WAIT for row in rep.plan for a in row)
    assert rep.realized_revenue == 0
    assert all(all(u == 0 for u in row) for row in rep.utility)


def test_verify_ration_passes(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    result = verify(ration_market, ration_optimum, mech)
    assert result.passed and not result.violations


def test_verify_twogen_passes(twogen_market, twogen_optimum):
    mech = extract(twogen_market, twogen_optimum)
    result = verify(twogen_market, twogen_optimum, mech)
    assert result.passed
    assert result.report.realized_revenue == 1


def test_perturbed_price_flips_plan(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    bumped = PeriodMenu(
        mode="posted",
        q_high=1,
        q_high_inclusive=True,
        p_high=mech.periods[0].p_high + F(1, 100),
    )
    bad = PricedMechanism((bumped, mech.periods[1]))
    rep = best_response(ration_market, bad)
    assert rep.plan[0][ration_market.atoms.index(1)] == WAIT
    assert rep.realized_revenue < F(7, 6)
    result = verify(ration_market, ration_optimum, bad)
    assert not result.passed
    assert any(v.startswith("PlanMismatch") for v in result.violations)
    assert any(v.startswith("RevenueMismatch") for v in result.violations)


def test_simulated_utilities_match_formula_on_random_optima():
    rng = random.Random(31)
    for _ in range(15):
        m = random_market(rng, general_lambda=rng.random() < 0.3)
        report = coordinate_ascent(m, starts=3, seed=rng.randrange(10**6))
        ev = evaluate(m, report.profile)
        mech = extract(m, report.profile, ev)
        result = verify(m, report.profile, mech, evaluation=ev)
        assert result.passed, result.violations
        for t in range(m.T):
            assert result.report.utility[t] == ev.u_at[t]


def test_utilities_monotone_in_value():
    rng = random.Random(32)
    for _ in range(10):
        m = random_market(rng)
        report = coordinate_ascent(m, starts=2, seed=rng.randrange(10**6))
        mech = extract(m, report.profile)
        rep = best_response(m, mech)
        for t in range(m.T):
            row = rep.utility[t]
            assert all(a <= b for a, b in zip(row, row[1:]))


def test_oversold_detection():
    m = make_market(T=1, atoms=[1], mass=[[2]], inventory=1)
    free = PricedMechanism(
        (PeriodMenu(mode="posted", q_high=0, q_high_inclusive=True, p_high=0),)
    )
    result = verify(m, AllocationProfile.ones(1), free)
    assert any(v.startswith("Oversold") for v in result.violations)


def test_rational_checks_are_exact_by_default(ration_market, ration_optimum):
    # a lottery quantity 1e-12 off, and a price 1e-12 low, fail the exact
    # default and pass an explicit tolerance of 1e-9
    mech = extract(ration_market, ration_optimum)
    lottery = mech.periods[1]
    off = dataclasses.replace(lottery, lottery_quantity=lottery.lottery_quantity + F(1, 10**12))
    report = best_response(ration_market, PricedMechanism((mech.periods[0], off)))
    assert [v.split(":")[0] for v in bestresponse.menu_violations(ration_market, report)] == ["ServiceResidual"]
    assert bestresponse.menu_violations(ration_market, report, tol=F(1, 10**9)) == []
    low = dataclasses.replace(mech.periods[0], p_high=mech.periods[0].p_high - F(1, 10**12))
    lowered = PricedMechanism((low, lottery))
    codes = {v.split(":")[0] for v in verify(ration_market, ration_optimum, lowered).violations}
    assert codes == {"RevenueMismatch", "UtilityMismatch"}
    assert verify(ration_market, ration_optimum, lowered, tol=F(1, 10**9)).passed
    assert verify(ration_market, ration_optimum, mech).passed


def test_verification_rows(ration_market, ration_optimum):
    mech = extract(ration_market, ration_optimum)
    result = verify(ration_market, ration_optimum, mech)
    rows = list(csv.reader(verification_csv(ration_market, result.report).splitlines()))
    assert rows[0] == ["t", "v", "action", "utility", "icSlack"]
    assert len(rows) == 5
    assert ["1", "1", BUY_HIGH, "1/6", "0"] in rows
    assert ["2", "2/3", ENTER_LOTTERY, "0", "0"] in rows


def test_nan_results_fail_verification(monkeypatch):
    # each check passes only on a comparison that holds, so a NaN fails it
    m = ex_ration(mode=FLOAT)
    prof = AllocationProfile((StepFunction.step(1.0), StepFunction.step(m.atoms[0], high=0.5)))
    mech = extract(m, prof)
    ev = evaluate(m, prof)
    nan = float("nan")

    def codes(report=None, evaluation=ev):
        report = report or best_response(m, mech)
        monkeypatch.setattr(bestresponse, "best_response", lambda *args, **kwargs: report)
        return sorted({v.split(":")[0] for v in verify(m, prof, mech, evaluation=evaluation).violations})

    assert codes() == []
    assert codes(evaluation=dataclasses.replace(ev, revenue=nan)) == ["RevenueMismatch"]
    r_at = [[nan, *ev.r_at[0][1:]], *ev.r_at[1:]]
    assert codes(evaluation=dataclasses.replace(ev, r_at=r_at)) == ["PlanMismatch"]
    report = best_response(m, mech)
    report.utility[1][0] = nan
    assert codes(report) == ["NegativeUtility", "UtilityMismatch"]
    report = best_response(m, mech)
    report.ic_slack[0][1] = nan
    assert codes(report) == ["ICViolation"]
    report = best_response(m, mech)
    report.service_residual[1] = nan
    assert codes(report) == ["ServiceResidual"]
    report = best_response(m, mech)
    report.realized_sales = nan
    assert codes(report) == ["Oversold"]
