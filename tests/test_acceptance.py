"""Acceptance suite: one test per numbered criterion, with PASS lines.

Run ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. Criterion 6 carries one strict xfail: the literal
difference-convexity clause is false for monotone allocations in general
(see the counterexample in its body), while every other clause holds.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from dynration import (
    AllocationProfile,
    OracleGrid,
    Partition,
    StepFunction,
    brute_force_optimal,
    coordinate_ascent,
    evaluate,
    ex_ration,
    ex_twogen,
    extract,
    make_market,
    mixture,
    non_anonymous_benchmark,
    normalize_staircase,
    serialize_market,
    solve_coordinate,
    verify,
)
from dynration.mechanism import mechanism_to_json
from dynration.numeric import FLOAT, RATIONAL
from dynration.report import profile_to_json

from gen import lp_from_coefficients, random_lp_coefficients, random_market, random_profile, random_step, slopes

TOL = 1e-9


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_ration_example_reproduction():
    t0 = time.monotonic()
    m = ex_ration()
    report = coordinate_ascent(m, starts=8, seed=0)
    assert report.revenue == F(7, 6)
    assert report.inventory_used == F(3, 2)
    assert report.binding
    mech = extract(m, report.profile)
    assert mech.periods[0].p_high == F(5, 6)
    assert mech.periods[1].per_winner_price == F(2, 3)
    assert mech.periods[1].lottery_quantity == F(1, 2)
    assert mech.periods[1].service_prob == F(1, 2)
    assert verify(m, report.profile, mech).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(1, f"revenue 7/6 exactly, price 5/6, lottery (2/3, 1/2, 1/2); {elapsed:.2f}s")


def test_criterion_2_twogen_example_reproduction():
    t0 = time.monotonic()
    m = ex_twogen()
    report = coordinate_ascent(m, starts=8, seed=0)
    assert report.revenue == 1
    assert not report.binding
    bench = non_anonymous_benchmark(m)
    assert bench == F(3, 2)
    posted_only = brute_force_optimal(m, OracleGrid(levels=("0", "1")))
    assert posted_only.revenue == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(2, f"anonymous 1, non-anonymous 3/2; {elapsed:.2f}s")


def test_criterion_3_unbounded_supply_needs_no_lotteries():
    t0 = time.monotonic()
    rng = random.Random(1003)
    for k in range(200):
        m = random_market(rng, mode=FLOAT, unbounded=True)
        report = coordinate_ascent(m, starts=2, seed=rng.randrange(2**31))
        mech = extract(m, report.profile)
        assert mech.lottery_periods() == [], f"instance {k} extracted a lottery"
        for t, step in enumerate(report.profile.steps):
            assert set(step.levels) <= {0, 1}, f"instance {k} period {t} has a fractional level"
            assert step.num_steps <= 1
            if not step.is_zero():
                assert step.levels[-1] == 1
                assert mech.periods[t].mode == "posted"
            else:
                assert mech.periods[t].mode == "closed"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(3, f"200 unbounded instances, zero lottery tiers, 0/1 single steps; {elapsed:.1f}s")


# -- criterion 4: exact per-period solves against a dense-grid oracle --------

GRID_LEVELS = np.arange(9) / 8.0
_CWR_CACHE = {}


def _grid_matrix(npieces: int) -> np.ndarray:
    if npieces not in _CWR_CACHE:
        _CWR_CACHE[npieces] = np.array(
            list(itertools.combinations_with_replacement(GRID_LEVELS, npieces))
        )
    return _CWR_CACHE[npieces]


def _grid_solve(pts, obj_atom, obj_density, inv_atom, inv_density, budget) -> float:
    """Independent oracle: every monotone piece-value vector on the 1/8 grid."""
    npieces = 2 * len(pts) - 1
    w_j = np.zeros(npieces)
    w_g = np.zeros(npieces)
    for k in range(len(pts)):
        w_j[2 * k] = obj_atom[k]
        w_g[2 * k] = inv_atom[k]
    for s in range(len(pts) - 1):
        width = pts[s + 1] - pts[s]
        w_j[2 * s + 1] = obj_density[s] * width
        w_g[2 * s + 1] = inv_density[s] * width
    M = _grid_matrix(npieces)
    j = M @ w_j
    if budget is not None:
        j = np.where(M @ w_g <= budget + 1e-12, j, -np.inf)
    return float(j.max())


def test_criterion_4_per_period_solve_matches_grid_oracle():
    t0 = time.monotonic()
    rng = random.Random(1004)
    for k in range(200):
        coefficients = random_lp_coefficients(rng)
        lp = lp_from_coefficients(*coefficients)
        sol = solve_coordinate(lp)
        grid_best = _grid_solve(*coefficients)
        assert abs(sol.objective - grid_best) <= TOL, (
            f"LP {k}: solver {sol.objective} vs grid {grid_best}"
        )
        step = StepFunction.from_values(Partition(coefficients[0]), sol.row)
        assert step.num_steps <= 2
        if step.num_steps == 2:
            assert step.eval(1) == 1
        if lp.budget is not None:
            assert sol.used <= lp.budget + TOL
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(4, f"200 coordinate solves match the 1/8-grid oracle within 1e-9; {elapsed:.1f}s")


def test_criterion_5_coordinate_affinity():
    rng = random.Random(1005)
    for k in range(100):
        m = random_market(rng, mode=FLOAT)
        prof = random_profile(rng, m)
        t = rng.randrange(m.T)
        r0 = random_step(rng, m.atoms, FLOAT)
        r1 = random_step(rng, m.atoms, FLOAT)
        evs = [
            evaluate(m, prof.with_step(t, h))
            for h in (r0, mixture(r0, r1, 0.5), r1)
        ]
        assert abs(evs[1].revenue - 0.5 * (evs[0].revenue + evs[2].revenue)) <= TOL
        assert abs(
            evs[1].inventory_used - 0.5 * (evs[0].inventory_used + evs[2].inventory_used)
        ) <= TOL
    _passline(5, "100 three-point collinearity checks on revenue and inventory at 1e-9")


def test_criterion_6_utility_cross_check():
    rng = random.Random(1006)
    for k in range(100):
        m = random_market(rng, mode=FLOAT, general_lambda=rng.random() < 0.3)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        back = [0.0] * m.num_atoms
        for t in range(m.T - 1, -1, -1):
            nxt = back
            back = []
            for i, v in enumerate(m.atoms):
                r = prof.steps[t].eval(v)
                back.append(
                    m.discounts.delta[t] * v * r
                    - m.discounts.lambda_b[t] * ev.payments[t][i]
                    + (1 - r) * nxt[i]
                )
            for i in range(m.num_atoms):
                assert abs(back[i] - ev.u_at[t][i]) <= TOL
        for t in range(m.T):
            s = slopes(ev.partition.points, ev.u_points[t])
            assert ev.u_points[t][0] == 0
            assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))
            assert max(s) <= m.discounts.delta[t] + 1e-12
    _passline(6, "100 profiles: integral U equals recursion U at every atom within 1e-9")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the slope of U_t - U_{t+1} is r_t * (delta_t - U'_{t+1}), a product of a "
        "non-negative rising and a non-negative falling function, which is not "
        "monotone: with delta = (1, 1/2), r_1 = 1 everywhere and r_2 = 1[v >= 1/2] "
        "the slopes are (1, 1/2); the stated clause cannot hold for all profiles"
    ),
)
def test_criterion_6_difference_convexity_clause():
    rng = random.Random(1006)
    for k in range(100):
        m = random_market(rng, mode=FLOAT, general_lambda=rng.random() < 0.3)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        for t in range(m.T):
            gap = [a - b for a, b in zip(ev.u_points[t], ev.u_points[t + 1])]
            s = slopes(ev.partition.points, gap)
            assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))
    _passline(6, "difference convexity over 100 random profiles")


def test_criterion_7_staircase_suite():
    rng = random.Random(1007)
    for k in range(100):
        m = random_market(rng, mode=FLOAT, tied_delta=True)
        prof = random_profile(rng, m)
        norm = normalize_staircase(m, prof, tol=TOL)
        before, after = evaluate(m, prof), evaluate(m, norm)
        assert abs(before.revenue - after.revenue) <= TOL, f"instance {k}"
        assert abs(before.welfare - after.welfare) <= TOL, f"instance {k}"
        probes = sorted(set(m.atoms) | {0.0, 1.0, 1 / 24, 11 / 24, 23 / 24})
        for t in range(m.T):
            values = [norm.steps[t].eval(v) for v in probes]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            for v in probes:
                assert norm.steps[t].eval(v) >= prof.steps[t].eval(v) - 1e-15
    _passline(7, "100 tied-discount instances: normalized profiles invariant within 1e-9")


def _instance_hash(m, seed: int) -> str:
    return hashlib.sha256((serialize_market(m) + str(seed)).encode()).hexdigest()[:12]


def test_criterion_8_global_optimality_audit():
    rng = random.Random(1008)
    attained = 0
    shortfalls = []
    total = 100
    for k in range(total):
        seed = rng.randrange(2**31)
        if k < 70:
            m = random_market(rng, mode=FLOAT, unbounded=True)
            grid = OracleGrid(levels=("0", "1/2", "1"))
        elif k < 90:
            m = random_market(rng, mode=FLOAT, unbounded=False, max_periods=2)
            grid = None
        else:
            m = random_market(rng, mode=FLOAT, unbounded=False, max_periods=3, max_atoms=2)
            grid = None
        report = coordinate_ascent(m, starts=16, seed=seed)
        if grid is None:
            # include the solver's own levels so its profile is in the
            # oracle's space and the oracle is an upper bound by search
            found = sorted({float(l) for s in report.profile.steps for l in s.levels})
            base = [0.0, 1.0] if m.T == 3 else [0.0, 0.5, 1.0]
            grid = OracleGrid(levels=tuple(sorted(set(base) | set(found))))
        oracle = brute_force_optimal(m, grid)
        assert report.revenue <= oracle.revenue + TOL, (
            f"ascent exceeded the oracle on {_instance_hash(m, seed)}"
        )
        if abs(report.revenue - oracle.revenue) <= TOL:
            attained += 1
        else:
            shortfalls.append((_instance_hash(m, seed), oracle.revenue - report.revenue))
    for h, gap in shortfalls:
        print(f"  shortfall {h}: gap {gap:.3e}")
    assert attained >= 0.95 * total, f"attained only {attained}/{total}"
    _passline(8, f"multistart ascent attained the oracle on {attained}/{total} instances")


def test_criterion_9_general_discounting_regression():
    # explicit all-ones schedules must be bit-identical to the defaults
    base = ex_ration()
    explicit = make_market(
        T=2,
        atoms=["2/3", 1],
        mass=[[0, 1], [1, 0]],
        inventory="3/2",
        delta=[1, 1],
        lambda_s=[1, 1],
        lambda_b=[1, 1],
    )
    assert explicit == base
    rep_a = coordinate_ascent(base, starts=4, seed=5)
    rep_b = coordinate_ascent(explicit, starts=4, seed=5)
    assert profile_to_json(rep_a.profile) == profile_to_json(rep_b.profile)
    assert mechanism_to_json(extract(base, rep_a.profile)) == mechanism_to_json(
        extract(explicit, rep_b.profile)
    )

    rng = random.Random(1009)
    for k in range(40):
        m = random_market(rng, mode=RATIONAL, general_lambda=True)
        report = coordinate_ascent(m, starts=4, seed=rng.randrange(2**31))
        ev = evaluate(m, report.profile)
        mech = extract(m, report.profile, ev)  # negative prices raise here
        for menu in mech.periods:
            if menu.has_posted:
                assert menu.p_high >= 0
            if menu.has_lottery:
                assert menu.per_winner_price >= 0
        for t in range(m.T):
            for i, v in enumerate(m.atoms):
                if prof_r := report.profile.steps[t].eval(v):
                    continue
                assert ev.payments[t][i] == 0  # pay only when service is possible
    _passline(9, "all-ones schedules bit-identical; discounted prices nonnegative, paid on allocation only")
