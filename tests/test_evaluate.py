import csv
import dataclasses
import importlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from dynration import (
    FLOAT,
    RATIONAL,
    AllocationProfile,
    Partition,
    StepFunction,
    evaluate,
    ex_ration,
    make_market,
    mixture,
)
from dynration.evaluate import Evaluation, EvaluatorInternalError, evaluate_rows, formula_layer
from dynration.report import evaluation_csv

from gen import random_feasible_profile, random_market, random_profile, random_step, slopes

# the module; the package's ``evaluate`` attribute is the function
evaluate_mod = importlib.import_module("dynration.evaluate")


def test_fstar_nobody_served(twogen_market):
    fstar = evaluate(twogen_market, AllocationProfile.zero(2)).fstar
    assert fstar[1] == [1, 1]  # atoms are (1/2, 1)


def test_fstar_value_one_served_first(ration_market):
    prof = AllocationProfile((StepFunction.step(1), StepFunction.zero()))
    fstar = evaluate(ration_market, prof).fstar
    assert fstar[1] == [1, 0]  # atoms are (2/3, 1)


def test_fstar_everyone_served_on_arrival():
    rng = random.Random(1)
    for _ in range(10):
        m = random_market(rng)
        fstar = evaluate(m, AllocationProfile.ones(m.T)).fstar
        assert fstar == [list(row) for row in m.mass]


def test_fstar_conservation():
    rng = random.Random(2)
    for _ in range(20):
        m = random_market(rng)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        for t in range(m.T - 1):
            for i, v in enumerate(m.atoms):
                r = prof.steps[t].eval(v)
                carry = ev.fstar[t][i] * (1 - r)
                assert ev.fstar[t + 1][i] == m.mass[t + 1][i] + carry


def test_utilities_guaranteed_free_item_last_period():
    m = make_market(T=3, atoms=["1/3", "2/3"], mass=[[1, 1]] * 3, delta=[1, "3/4", "1/2"])
    prof = AllocationProfile((StepFunction.zero(), StepFunction.zero(), StepFunction.one()))
    ev = evaluate(m, prof)
    for t in range(3):
        for i, v in enumerate(m.atoms):
            assert ev.u_at[t][i] == F(1, 2) * v
        assert ev.u_points[t][-1] == F(1, 2)  # v = 1 is a partition point, not an atom
    assert ev.u_points[3][-1] == 0


def test_utilities_ration_profile(ration_market, ration_optimum):
    u_at = evaluate(ration_market, ration_optimum).u_at
    i1 = ration_market.atoms.index(1)
    i23 = ration_market.atoms.index(F(2, 3))
    assert u_at[1][i1] == F(1, 6)
    assert u_at[0][i1] == F(1, 6)
    assert u_at[1][i23] == 0


def test_utilities_zero_profile(ration_market):
    u_at = evaluate(ration_market, AllocationProfile.zero(2)).u_at
    i1 = ration_market.atoms.index(1)
    assert all(u[i1] == 0 for u in u_at)


def test_payments_ration(ration_market, ration_optimum):
    p = evaluate(ration_market, ration_optimum).payments
    i1 = ration_market.atoms.index(1)
    i23 = ration_market.atoms.index(F(2, 3))
    assert p[0][i1] == F(5, 6)
    assert p[1][i23] == F(1, 3)  # expected; per-winner price is 2/3
    assert evaluate(ration_market, AllocationProfile.zero(2)).payments == [[0, 0], [0, 0]]


def test_revenue_examples(ration_market, ration_optimum, twogen_market, twogen_optimum):
    assert evaluate(ration_market, ration_optimum).revenue == F(7, 6)
    assert evaluate(twogen_market, twogen_optimum).revenue == 1
    assert evaluate(ration_market, AllocationProfile.zero(2)).revenue == 0


def test_inventory_examples(ration_market, ration_optimum):
    assert evaluate(ration_market, ration_optimum).inventory_used == F(3, 2)
    assert evaluate(ration_market, AllocationProfile.zero(2)).inventory_used == 0
    m = make_market(T=2, atoms=["1/2", 1], mass=[["3/4", "1/2"], [1, 1]])
    first_only = AllocationProfile((StepFunction.one(), StepFunction.zero()))
    assert evaluate(m, first_only).inventory_used == F(5, 4)


def test_welfare_examples(ration_market, ration_optimum):
    assert evaluate(ration_market, ration_optimum).welfare == F(4, 3)
    assert evaluate(ration_market, AllocationProfile.zero(2)).welfare == 0
    m = make_market(T=1, atoms=["3/5"], mass=[[1]], delta=["5/6"])
    assert evaluate(m, AllocationProfile.ones(1)).welfare == F(1, 2)


def test_accounting_identity():
    rng = random.Random(3)
    for _ in range(25):
        m = random_market(rng, general_lambda=rng.random() < 0.4)
        ev = evaluate(m, random_profile(rng, m))
        cells = [(t, i) for t in range(m.T) for i in range(m.num_atoms)]
        base_cash = sum(m.discounts.lambda_b[t] * ev.payments[t][i] * ev.fstar[t][i] for t, i in cells)
        buyer_utility = sum(ev.u_at[t][i] * m.mass[t][i] for t, i in cells)
        assert ev.welfare == base_cash + buyer_utility


def test_utility_curve_invariants():
    rng = random.Random(4)
    for _ in range(25):
        m = random_market(rng)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        for t in range(m.T):
            s = slopes(ev.partition.points, ev.u_points[t])
            assert ev.u_points[t][0] == 0
            assert all(b >= a for a, b in zip(s, s[1:]))
            assert max(s) <= m.discounts.delta[t]


def test_slope_difference_reconstructs_allocation():
    # The slope gap between consecutive utility curves is the current
    # allocation times the headroom under delta, so dividing it back out
    # recovers r_t wherever the headroom is positive.
    rng = random.Random(40)
    for _ in range(25):
        m = random_market(rng)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        pts = ev.partition.points
        for t in range(m.T):
            s_now = slopes(pts, ev.u_points[t])
            s_next = slopes(pts, ev.u_points[t + 1])
            d = m.discounts.delta[t]
            for k in range(len(pts) - 1):
                r = prof.steps[t].eval((pts[k] + pts[k + 1]) / 2)
                assert s_now[k] - s_next[k] == r * (d - s_next[k])
                if d > s_next[k]:
                    assert (s_now[k] - s_next[k]) / (d - s_next[k]) == r


def test_utility_recursion_consistency():
    rng = random.Random(5)
    for _ in range(20):
        m = random_market(rng, general_lambda=rng.random() < 0.4)
        prof = random_profile(rng, m)
        ev = evaluate(m, prof)
        lam_b = m.discounts.lambda_b
        back = [0] * m.num_atoms
        for t in range(m.T - 1, -1, -1):
            nxt = back
            back = []
            for i, v in enumerate(m.atoms):
                r = prof.steps[t].eval(v)
                back.append(
                    m.discounts.delta[t] * v * r - lam_b[t] * ev.payments[t][i] + (1 - r) * nxt[i]
                )
            assert back == ev.u_at[t]


def test_coordinate_affinity_three_point():
    rng = random.Random(6)
    from gen import random_step

    for _ in range(15):
        m = random_market(rng)
        prof = random_profile(rng, m)
        t = rng.randrange(m.T)
        r0 = random_step(rng, m.atoms)
        r1 = random_step(rng, m.atoms)
        half = F(1, 2)
        evs = [
            evaluate(m, prof.with_step(t, h))
            for h in (r0, mixture(r0, r1, half), r1)
        ]
        assert evs[1].revenue == half * (evs[0].revenue + evs[2].revenue)
        assert evs[1].inventory_used == half * (evs[0].inventory_used + evs[2].inventory_used)


def test_no_negative_payments_on_monotone_profiles():
    rng = random.Random(7)
    for _ in range(40):
        m = random_market(rng, general_lambda=rng.random() < 0.4)
        ev = evaluate(m, random_profile(rng, m))
        assert ev.negative_payments == []


def _market_with_end_atoms(rng, mode):
    # general lambda, sometimes tied delta, and atoms at both ends of [0, 1]
    d = random_market(rng, max_periods=4, general_lambda=True, tied_delta=rng.random() < 0.5).discounts
    atoms = sorted({F(0), F(1), *rng.sample([F(k, 12) for k in range(1, 12)], rng.randint(0, 2))})
    mass = [[F(rng.randint(0, 4), 4) for _ in atoms] for _ in d.delta]
    mass[0][-1] = F(1)
    return make_market(len(d.delta), atoms, mass, None, d.delta, d.lambda_s, d.lambda_b, mode=mode)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_payments_sum_nonnegative_terms_over_the_gaps_below(mode):
    # lambdaB_t p_t(v) = sum over the gaps j = (x_j, x_{j+1}) below v of
    # (r_t(v) - r_t(gap j)) (delta_t - g_{t+1}(gap j)) (x_{j+1} - x_j), with
    # g_T = 0 and g_t = delta_t r_t + (1 - r_t) g_{t+1}; every term is >= 0
    rng = random.Random(71)
    num = float if mode == FLOAT else F
    checked = 0
    for _ in range(60):
        m = _market_with_end_atoms(rng, mode)
        extra = [num(F(k, 24)) for k in rng.sample(range(1, 24, 2), 2)]
        prof = AllocationProfile(tuple(random_step(rng, sorted([*m.atoms, *extra]), mode) for _ in range(m.T)))
        ev = evaluate(m, prof)
        points = sorted({num(0), num(1), *m.atoms, *(j.at for r in prof.steps for j in r.jumps)})
        gaps = list(zip(points, points[1:]))
        r_gap = [[r.eval((a + b) / 2) for a, b in gaps] for r in prof.steps]
        g = [[0] * len(gaps) for _ in range(m.T + 1)]
        delta = m.discounts.delta
        for t in range(m.T - 1, -1, -1):
            g[t] = [delta[t] * r + (1 - r) * g[t + 1][j] for j, r in enumerate(r_gap[t])]
        for t, r in enumerate(prof.steps):
            for i, v in enumerate(m.atoms):
                terms = [
                    (r.eval(v) - r_gap[t][j]) * (delta[t] - g[t + 1][j]) * (b - a)
                    for j, (a, b) in enumerate(gaps)
                    if b <= v
                ]
                assert all(x >= 0 for x in terms)
                want, got = sum(terms), m.discounts.lambda_b[t] * ev.payments[t][i]
                if mode == RATIONAL:
                    assert got == want, (t, v)
                else:
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (t, v, got, want)
                checked += 1
        assert ev.negative_payments == []
    assert checked > 300


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_negative_payments_flags_payments_below_the_noise(mode):
    # rational mode flags any p < 0, float mode p < -1e-12; the triples come
    # period by period, atom by atom
    noise = F(0) if mode == RATIONAL else 1e-12
    below = -F(1, 10**30) if mode == RATIONAL else math.nextafter(-1e-12, -math.inf)
    far = F(-1, 2) if mode == RATIONAL else -0.5
    m = ex_ration(mode)
    for ev in (evaluate(m, AllocationProfile.ones(2)), evaluate(m, random_profile(random.Random(3), m))):
        assert ev.negative_payments == []
        payments = [list(row) for row in ev.payments]
        payments[0][0] = -noise
        payments[0][1] = below
        payments[1][0] = far
        flagged = dataclasses.replace(ev, payments=payments)
        assert flagged.negative_payments == [(0, 1, below), (1, 0, far)]


def test_payment_zero_at_value_zero_atom():
    m = make_market(T=1, atoms=[0, "1/2"], mass=[[1, 1]])
    prof = AllocationProfile((StepFunction.one(),))
    ev = evaluate(m, prof)
    assert ev.payments[0][0] == 0


def test_report_rows_shape(ration_market, ration_optimum):
    rows = list(csv.reader(evaluation_csv(evaluate(ration_market, ration_optimum)).splitlines()))
    assert rows[0] == ["t", "v", "fstar", "r", "U", "p", "cashflow"]
    assert len(rows) == 5
    assert rows[2] == ["1", "1", "1", "1", "1/6", "5/6", "5/6"]  # period 1, atom v=1
    assert rows[3] == ["2", "2/3", "1", "1/2", "0", "1/3", "1/3"]  # the lottery tier


def test_profile_length_mismatch(ration_market):
    with pytest.raises(ValueError):
        evaluate(ration_market, AllocationProfile.zero(3))


def test_batch_columns_match_scalar_evaluation():
    # the grid oracle feeds the recursion numpy columns, one entry per
    # profile; each entry must be the scalar evaluation, bit for bit
    rng = random.Random(17)
    for _ in range(8):
        m = random_market(rng, mode=FLOAT, max_periods=4, max_atoms=4)
        part = Partition(m.atoms)
        profiles = [random_profile(rng, m) for _ in range(12)]
        columns = [np.array([part.values(p.steps[t]) for p in profiles]).T for t in range(m.T)]
        batch = formula_layer(m, part, columns)
        for k, prof in enumerate(profiles):
            ev = evaluate_rows(m, part, [part.values(r) for r in prof.steps])
            assert float(batch.revenue[k]).hex() == ev.revenue.hex()
            assert float(batch.inventory_used[k]).hex() == ev.inventory_used.hex()


def _leaves(f: Evaluation, key) -> list:
    """Every number of the formula layer's tables and sums, in one flat list."""
    out = []
    stack = [f.u_points, f.r_at, f.u_at, f.fstar, f.payments, f.revenue, f.inventory_used]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        else:
            out.extend(key(y) for y in np.ravel(np.asarray(x, dtype=object)))
    return out


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_levels_at_massless_points_do_not_enter_the_formulas(mode):
    # only the gaps have length and only the atoms have mass, so a rule's
    # level at a partition point that holds no atom changes nothing: U_t,
    # payments, revenue and usage stay the same, bit for bit in float mode
    rng = random.Random(29)
    num = float if mode == FLOAT else F
    key = (lambda x: float(x).hex()) if mode == FLOAT else (lambda x: x)
    dtype = float if mode == FLOAT else object
    for _ in range(12):
        m = random_market(rng, mode=mode, max_periods=4, max_atoms=3)
        extra = [num(F(k, 24)) for k in rng.sample(range(1, 24, 2), 3)]  # never a k/12 atom
        part = Partition([*m.atoms, *extra])
        massless = {2 * k for k, p in enumerate(part.points) if p not in m.atoms}
        rows = [[part.values(r) for r in random_profile(rng, m).steps] for _ in range(6)]
        moved = [
            [[num(F(rng.randint(0, 12), 12)) if pc in massless else v for pc, v in enumerate(r)] for r in R]
            for R in rows
        ]
        for R, S in zip(rows, moved):
            assert _leaves(formula_layer(m, part, S), key) == _leaves(formula_layer(m, part, R), key)

        # batched: the oracle's (pieces, profiles) arrays in even periods,
        # the build's list of per-piece columns in odd ones
        def columns(Rs):
            arrays = [np.array([R[t] for R in Rs], dtype=dtype).T for t in range(m.T)]
            return [a if t % 2 == 0 else list(a) for t, a in enumerate(arrays)]

        batch = _leaves(formula_layer(m, part, columns(moved)), key)
        assert batch == _leaves(formula_layer(m, part, columns(rows)), key)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("target", ["fstar", "used"])
def test_self_checks_catch_a_perturbed_formula_layer(monkeypatch, mode, target):
    # one f* entry, or one usage term, off by a little: the f* closed form
    # or the cohort inventory identity must disagree with the recursion
    rng = random.Random(43)
    eps = F(1, 97) if mode == RATIONAL else 1e-6
    what = "fstar closed form" if target == "fstar" else "inventory accounting"
    for _ in range(10):
        m = random_market(rng, mode=mode, min_periods=2, max_atoms=3)
        prof = random_profile(rng, m)
        t, i = rng.randrange(m.T), rng.randrange(m.num_atoms)

        def perturbed(*args):
            f = formula_layer(*args)
            if target == "fstar":
                fstar = [list(row) for row in f.fstar]
                fstar[t][i] += eps
                return dataclasses.replace(f, fstar=fstar)
            return dataclasses.replace(f, inventory_used=f.inventory_used + eps)

        evaluate(m, prof)
        monkeypatch.setattr(evaluate_mod, "formula_layer", perturbed)
        with pytest.raises(EvaluatorInternalError, match=what):
            evaluate(m, prof)
        monkeypatch.undo()
