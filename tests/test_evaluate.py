import csv
import dataclasses
import importlib
import math
import random
from fractions import Fraction as F
from operator import mul

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
from dynration.evaluate import (
    Evaluation,
    EvaluatorInternalError,
    column_sums,
    coordinate_tails,
    evaluate_rows,
    formula_layer,
    inventory_used,
)
from dynration.market import Market
from dynration.report import evaluation_csv
from dynration.stepfn import segment_refinement

from gen import MASS_POOL, edge_market, edge_row, random_feasible_profile, random_market, random_profile
from gen import random_step, slopes
from gen import spelled as _spelled

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
    with pytest.raises(TypeError, match="profile entries must be StepFunction values"):
        AllocationProfile((StepFunction.one(), [1]))


def _batch_markets():
    """Float markets for batch tests: lambdas of 1, general lambdas, none of
    whose lambdaS or lambdaB is all 1s, and a market without atoms."""
    rng = random.Random(17)
    for _ in range(8):
        yield rng, random_market(rng, mode=FLOAT, max_periods=4, max_atoms=4)
    general = 0
    while general < 8:
        m = random_market(rng, mode=FLOAT, max_periods=4, max_atoms=4, general_lambda=True)
        d = m.discounts
        if all(x == 1 for x in d.lambda_s) or all(x == 1 for x in d.lambda_b):
            continue
        general += 1
        yield rng, m
    yield rng, make_market(T=3, atoms=[], mass=[[]] * 3, inventory=1, delta=[1, "3/4", "1/2"], mode=FLOAT)


def _batch_columns(rng, m, count=12):
    part = Partition(m.atoms)
    profiles = [random_profile(rng, m) for _ in range(count)]
    return part, profiles, [np.array([part.values(p.steps[t]) for p in profiles]).T for t in range(m.T)]


def test_batch_columns_match_scalar_evaluation():
    # the grid oracle feeds the recursion numpy columns, one entry per
    # profile; each entry must be the scalar evaluation, bit for bit, where
    # the layer skips its lambdaS and lambdaB of 1 and where it does not
    lambdas = set()
    for rng, m in _batch_markets():
        part, profiles, columns = _batch_columns(rng, m)
        batch = formula_layer(m, part, columns)
        d = m.discounts
        lambdas.update(zip(d.lambda_s, d.lambda_b))
        for k, prof in enumerate(profiles):
            ev = evaluate_rows(m, part, [part.values(r) for r in prof.steps])
            for got, want in ((batch.revenue, ev.revenue), (batch.inventory_used, ev.inventory_used)):
                # a market without atoms sums to the scalar its evaluation has
                got = got[k] if m.num_atoms else got
                assert type(want) is float and (m.num_atoms or type(got) is float)
                assert float(got).hex() == want.hex()
    assert {ls == 1 for ls, _ in lambdas} == {lb == 1 for _, lb in lambdas} == {True, False}


def test_batch_sums_leave_the_callers_columns_as_they_were():
    # the batch sums add in place into accumulators of their own, never into
    # a column of R: read-only columns would raise, and writable ones keep
    # every value
    for rng, m in _batch_markets():
        part, _, columns = _batch_columns(rng, m)
        copies = [c.copy() for c in columns]
        for c in columns[::2]:
            c.flags.writeable = False
        batch = formula_layer(m, part, columns)
        assert all(np.array_equal(c, k) for c, k in zip(columns, copies))
        again = formula_layer(m, part, copies)
        assert np.array_equal(batch.revenue, again.revenue)
        assert np.array_equal(batch.inventory_used, again.inventory_used)


def test_a_failed_broadcast_add_leaves_its_accumulator_unchanged():
    # the batch sums fall back to total + term when a term broadcasts the
    # accumulator to a larger shape; numpy raises before it writes anything
    total = np.array([[1.5], [2.5]])
    with pytest.raises(ValueError):
        total += np.array([[1.0, 2.0, 3.0]])
    assert total.tolist() == [[1.5], [2.5]]
    terms = [np.array([[1.0], [2.0]]), np.array([[0.5, 0.25]]), np.array([[1e-16, 0.0]])]
    got = evaluate_mod._batch_sum(iter(terms), 0.0)
    assert got.shape == (2, 2)
    assert got.tobytes() == ((0.0 + terms[0]) + terms[1] + terms[2]).tobytes()
    assert [t.tolist() for t in terms] == [[[1.0], [2.0]], [[0.5, 0.25]], [[1e-16, 0.0]]]
    assert evaluate_mod._batch_sum(iter(()), 0.0) == 0.0


def _left_to_right(values):
    total = 0
    for x in values:
        total = total + x
    return total


def test_float_sums_add_left_to_right():
    # From Python 3.12 sum() adds floats with compensation, while numpy adds
    # arrays left to right. The layer's sums add left to right on every
    # Python, so a scalar evaluation is its batch column, bit for bit. Here
    # the small masses after a large one are lost one by one, not together.
    m = make_market(
        T=3, atoms=["1/2", "3/4", 1], mass=[[1, 6e-17, 1e-16], [1e-16, 0, 0], [1e-16, 0, 0]], mode=FLOAT
    )
    rows = (StepFunction.step(0.5),) * 3
    ev = evaluate(m, AllocationProfile(rows))
    d = m.discounts
    periods = [ls * _left_to_right(map(mul, p, f)) for ls, p, f in zip(d.lambda_s, ev.payments, ev.fstar)]
    used = [r * f for r_row, f_row in zip(ev.r_at, ev.fstar) for r, f in zip(r_row, f_row)]
    served = [d.delta[t] * a * r * f for t in range(m.T) for a, r, f in zip(m.atoms, ev.r_at[t], ev.fstar[t])]
    assert ev.revenue.hex() == _left_to_right(periods).hex()
    assert ev.inventory_used.hex() == _left_to_right(used).hex()
    assert ev.welfare.hex() == _left_to_right(served).hex()
    # exactly rounded sums differ: within period 0, over the periods, and flat
    assert math.fsum(map(mul, ev.payments[0], ev.fstar[0])) != periods[0]
    assert math.fsum(periods) != ev.revenue
    assert math.fsum(used) != ev.inventory_used
    assert math.fsum(served) != ev.welfare
    part = ev.partition
    batch = formula_layer(m, part, [np.array([part.values(r)]).T for r in rows])
    assert float(batch.revenue[0]).hex() == ev.revenue.hex()
    assert float(batch.inventory_used[0]).hex() == ev.inventory_used.hex()


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


def _shortcut_check_cases(rng, mode, target):
    """``(market, partition, rows, t, i)`` whose perturbed entry sits behind a
    shortcut of the checks: for f*, an atom without mass in any period and
    an atom whose rule is exactly 0 or 1 in every period (every level is a
    whole int or mode number); for usage, a market with one nonzero cohort."""
    num = F if mode == RATIONAL else float
    whole = [0, 1, num(0), num(1)]
    for k in range(12):
        T, atoms = rng.randint(2, 4), sorted(rng.sample([F(j, 12) for j in range(13)], 3))
        npieces = 2 * len({0, 1, *atoms}) - 1
        t, i = rng.randrange(1, T), rng.randrange(3)
        if target == "fstar" and k % 2 == 0:
            mass = [[0 if j == i else rng.choice([0, F(1, 2), 1]) for j in range(3)] for _ in range(T)]
            mass[0][(i + 1) % 3] = 1
            rows = [edge_row(rng, npieces, mode) for _ in range(T)]
        elif target == "fstar":
            mass = [[rng.choice([0, F(1, 2), 1]) for _ in range(3)] for _ in range(T)]
            mass[0][i] = 1
            rows = [tuple(sorted((rng.choice(whole) for _ in range(npieces)), key=float)) for _ in range(T)]
        else:
            mass = [[0] * 3 for _ in range(T)]
            mass[rng.randrange(T)][i] = rng.choice([F(1, 2), 1, F(3, 2)])
            rows = [edge_row(rng, npieces, mode) for _ in range(T)]
        m = make_market(T=T, atoms=atoms, mass=mass, inventory=rng.choice([None, F(1, 2)]), mode=mode)
        yield m, Partition(m.atoms), rows, t, i


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("target", ["fstar", "used"])
def test_self_checks_catch_a_perturbed_formula_layer(monkeypatch, mode, target):
    # one f* entry, or one usage term, off by a little: the f* closed form
    # or the cohort inventory identity must disagree with the recursion, on
    # random markets and profiles and where the checks skip exact 0s and 1s
    rng = random.Random(43)
    eps = F(1, 97) if mode == RATIONAL else 1e-6
    what = "fstar closed form" if target == "fstar" else "inventory accounting"
    cases = []
    for _ in range(10):
        m = random_market(rng, mode=mode, min_periods=2, max_atoms=3)
        prof = random_profile(rng, m)
        part = segment_refinement(prof.steps, m.atoms)
        cases.append((m, part, [part.values(r) for r in prof.steps], rng.randrange(m.T), rng.randrange(m.num_atoms)))
    cases += _shortcut_check_cases(rng, mode, target)
    for m, part, rows, t, i in cases:

        def perturbed(*args):
            f = formula_layer(*args)
            if target == "fstar":
                fstar = [list(row) for row in f.fstar]
                fstar[t][i] += eps
                return dataclasses.replace(f, fstar=fstar)
            return dataclasses.replace(f, inventory_used=f.inventory_used + eps)

        evaluate_rows(m, part, rows)
        monkeypatch.setattr(evaluate_mod, "formula_layer", perturbed)
        with pytest.raises(EvaluatorInternalError, match=what):
            evaluate_rows(m, part, rows)
        monkeypatch.undo()


def _resumed_check_cases(mode, seed):
    """``(market, partition, rows, t, new)`` on markets whose masses are all
    positive: every row 1/2, and a row ``new`` of ones for a period t < T - 1,
    so f*_{t+1} changes at every atom, and so does usage."""
    rng = random.Random(seed)
    half, one = (F(1, 2), 1) if mode == RATIONAL else (0.5, 1.0)
    for _ in range(20):
        T, natoms = rng.randint(2, 4), rng.randint(1, 3)
        atoms = sorted(rng.sample([F(k, 8) for k in range(1, 9)], natoms))
        mass = [[rng.choice([F(1, 2), 1, 2]) for _ in range(natoms)] for _ in range(T)]
        m = make_market(T=T, atoms=atoms, mass=mass, inventory=rng.choice([None, 1]), mode=mode)
        part = Partition(m.atoms)
        yield m, part, ((half,) * part.npieces,) * T, rng.randrange(T - 1), (one,) * part.npieces


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_stale_reused_fstar_row_is_caught(monkeypatch, mode):
    # a change of a checked evaluation skips the closed form on the f* rows
    # 0..t it takes over; a change that also took f*_{t+1} over, which
    # should have changed, must fail the recomputed rows' closed form, and
    # where it counts that row as taken over too, the closed form of row
    # t + 2 or, with no later row, the cohort identity; rows that are not
    # the parent's own objects fail the check that they are
    extend = evaluate_mod._extend_presence
    for m, part, rows, t, new in _resumed_check_cases(mode, 2801):
        parent = evaluate_rows(m, part, rows)
        parent.with_row(t, new).checked()

        def stale(market, r_at, scalar, fstar, first):
            fstar.append(parent.fstar[first + 1])
            extend(market, r_at, scalar, fstar, first + 1)

        monkeypatch.setattr(evaluate_mod, "_extend_presence", stale)
        child = parent.with_row(t, new)
        monkeypatch.undo()
        assert child.fstar[t + 1] is parent.fstar[t + 1]
        with pytest.raises(EvaluatorInternalError, match=f"fstar closed form at t={t + 1}:"):
            child.checked()
        child.reused_fstar = tuple(child.fstar[:t + 2])
        what = "inventory accounting" if t + 2 == m.T else f"fstar closed form at t={t + 2}:"
        with pytest.raises(EvaluatorInternalError, match=what):
            child.checked()
        copied = dataclasses.replace(parent.with_row(t, new), fstar=[list(row) for row in parent.fstar])
        with pytest.raises(EvaluatorInternalError, match=r"reused f\* rows are not the checked evaluation's own"):
            copied.checked()


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_change_of_an_unchecked_evaluation_checks_every_fstar_row(monkeypatch, mode):
    # only an evaluation that passed its checks lends its f* rows as
    # checked: a change of a checked evaluation resumes the closed form at
    # row t + 1, a change of an unchecked one checks from row 0, and so
    # fails where the unchecked evaluation's f*_0 is off
    eps = F(1, 97) if mode == RATIONAL else 1e-6
    check, firsts = evaluate_mod._check_fstar_closed_form, []

    def recording(market, keep, mass, fstar, first=0):
        firsts.append(first)
        check(market, keep, mass, fstar, first)

    monkeypatch.setattr(evaluate_mod, "_check_fstar_closed_form", recording)
    for m, part, rows, t, new in _resumed_check_cases(mode, 2802):
        fresh = formula_layer(m, part, rows)
        fresh.with_row(t, new).checked()
        fresh.checked().with_row(t, new).checked()
        assert firsts[-3:] == [0, 0, t + 1]
        off = formula_layer(m, part, rows)
        off.fstar[0] = [x + eps for x in off.fstar[0]]
        with pytest.raises(EvaluatorInternalError, match="fstar closed form at t=0:"):
            off.with_row(t, new).checked()


def test_float_self_checks_reject_nan():
    # a NaN compares False with any tolerance, so each check must fail it
    nan = float("nan")
    for a, b in ((nan, 1.0), (1.0, nan), (nan, nan)):
        with pytest.raises(EvaluatorInternalError, match="inventory accounting"):
            evaluate_mod._require_equal(a, b, FLOAT, "inventory accounting")
    m = make_market(T=2, atoms=[1], mass=[[1], [1]], mode=FLOAT)
    keep, mass = [(0.5, 1.0)], [(1.0, 1.0)]
    evaluate_mod._check_fstar_closed_form(m, keep, mass, [[1.0], [1.5]])
    for fstar in ([[nan], [1.5]], [[1.0], [nan]]):
        with pytest.raises(EvaluatorInternalError, match="fstar closed form"):
            evaluate_mod._check_fstar_closed_form(m, keep, mass, fstar)


# -- the formula layer against its former implementation -----------------------


def _reference_formula_layer(market, partition, R):
    """The formula layer as it was before its exact 0/1 shortcuts: every
    entry through its full expression, indexed by period and atom, and its
    own prefix integrals. Returns the tables and sums in Evaluation order."""
    T, n = market.T, market.num_atoms
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    pts = partition.points

    def prefix_integrals(gap_values):
        out = [0]
        for k in range(len(pts) - 1):
            out.append(out[-1] + gap_values[k] * (pts[k + 1] - pts[k]))
        return out

    atom_pc = [partition.piece_of_point(a) for a in market.atoms]
    r_at = [[R[t][pc] for pc in atom_pc] for t in range(T)]
    gaps = [r[1::2] for r in R]
    u_points = [None] * T + [prefix_integrals([0] * (len(pts) - 1))]
    g = [0] * len(gaps[0])
    for t in range(T - 1, -1, -1):
        rt, d = gaps[t], delta[t]
        g = [d * rt[p] + (1 - rt[p]) * g[p] for p in range(len(g))]
        u_points[t] = prefix_integrals(g)
    u_at = [[u_points[t][pc // 2] for pc in atom_pc] for t in range(T + 1)]
    fstar = [list(market.mass[0])]
    for t in range(1, T):
        fstar.append([market.mass[t][i] + fstar[t - 1][i] * (1 - r_at[t - 1][i]) for i in range(n)])
    payments = [
        [
            (delta[t] * market.atoms[i] * r_at[t][i] + (1 - r_at[t][i]) * u_at[t + 1][i] - u_at[t][i]) / lam_b[t]
            for i in range(n)
        ]
        for t in range(T)
    ]
    revenue = sum(lam_s[t] * sum(payments[t][i] * fstar[t][i] for i in range(n)) for t in range(T))
    used = sum(r_at[t][i] * fstar[t][i] for t in range(T) for i in range(n))
    return [u_points, r_at, u_at, fstar, payments, revenue, used]


def _tables(ev: Evaluation) -> list:
    return [ev.u_points, ev.r_at, ev.u_at, ev.fstar, ev.payments, ev.revenue, ev.inventory_used]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_formula_layer_matches_the_reference_by_repr(mode):
    # the shortcuts skip arithmetic on exact 0 and 1 levels, masses and
    # lambdas; every table entry and both sums must still be what the full
    # expressions give, of the same type (and dtype and shape), on scalar
    # rows, on a mixed batch (one period as a pieces x columns matrix, the
    # others scalar rows) and on the oracle's (every period an array with
    # its candidates on an axis of its own), and so must the usage helper's
    # usage. An evaluation with any array row takes no shortcut, so a scalar
    # 1 on a gap before the array row, or at an atom after it, must not
    # drop the array's shape from g or f*
    rng = random.Random(2024)
    num = F if mode == RATIONAL else float
    dtype = object if mode == RATIONAL else float
    seen = dict.fromkeys(("unit lambdas among others", "zero-mass atom", "int 0 and 1", "mode's 0 and 1",
                          "scalar 1 on a gap before the array row", "scalar 1 at an atom after the array row"), False)
    for _ in range(80):
        m = edge_market(rng, mode, shortcuts=True)
        part = Partition([*m.atoms, *(num(F(rng.randint(1, 23), 24)) for _ in range(rng.randint(0, 2)))])
        rows = [edge_row(rng, part.npieces, mode) for _ in range(m.T)]
        checks = [rows]
        d, levels = m.discounts, [x for row in rows for x in row]
        for case, hit in (
            ("unit lambdas among others", d.lambda_s[0] == d.lambda_b[0] == 1 and set(d.lambda_s + d.lambda_b) != {1}),
            ("zero-mass atom", any(not any(col) for col in zip(*m.mass))),
            ("int 0 and 1", {(type(x), x) for x in levels} >= {(int, 0), (int, 1)}),
            ("mode's 0 and 1", {(type(x), x) for x in levels} >= {(num, 0), (num, 1)}),
        ):
            seen[case] = seen[case] or hit

        t = rng.randrange(m.T)
        columns = [edge_row(rng, part.npieces, mode) for _ in range(3)]
        build = list(rows)
        build[t] = np.array(columns, dtype=dtype).T
        checks.append(build)
        # g_s reads row s for s < t, f*_{s+1} for t < s < T - 1
        atom_pc = [part.piece_of_point(a) for a in m.atoms]
        seen["scalar 1 on a gap before the array row"] |= any(x == 1 for row in rows[:t] for x in row[1::2])
        seen["scalar 1 at an atom after the array row"] |= any(
            row[pc] == 1 for row in rows[t + 1:m.T - 1] for pc in atom_pc
        )

        oracle = []
        for s in range(m.T):
            candidates = np.array([edge_row(rng, part.npieces, mode) for _ in range(2)], dtype=dtype).T
            oracle.append(candidates.reshape((part.npieces,) + tuple(2 if k == s else 1 for k in range(m.T))))
        checks.append(oracle)

        for R in checks:
            want = _spelled(_reference_formula_layer(m, part, R))
            assert _spelled(_tables(formula_layer(m, part, R))) == want
        want = _reference_formula_layer(m, part, rows)
        assert _spelled(_tables(evaluate_rows(m, part, rows))) == _spelled(want)
        assert _spelled(inventory_used(m, part, rows)) == _spelled(want[-1])
    assert all(seen.values()), seen


# -- one-period changes resumed from the evaluation of the other rows ----------


def _reuse_cases(mode, seen):
    """``(market, partition, rows, changed, t)`` where ``changed`` is ``rows``
    with a new row t and the same row objects elsewhere.

    The markets are ``edge_market``'s plus two atomless ones; the new row
    is one profile's row of int, mode-number and fraction levels, the only
    row that ``with_row`` takes. ``seen`` collects which edge cases came up.
    """
    rng = random.Random(2110)
    num = F if mode == RATIONAL else float
    markets = [edge_market(rng, mode) for _ in range(30)]
    markets += [make_market(T=T, atoms=[], mass=[[]] * T, inventory=inv, mode=mode) for T, inv in ((1, None), (3, 1))]
    for m in markets:
        for case, hit in (("T = 1", m.T == 1), ("atomless", not m.atoms), ("atom at 0", 0 in m.atoms),
                          ("atom at 1", 1 in m.atoms)):
            seen[case] = seen.get(case, False) or hit
        part = Partition([*m.atoms, *(num(F(rng.randint(1, 23), 24)) for _ in range(rng.randint(0, 2)))])
        rows = tuple(edge_row(rng, part.npieces, mode) for _ in range(m.T))
        for t in range(m.T):
            new = edge_row(rng, part.npieces, mode)
            yield m, part, rows, rows[:t] + (new,) + rows[t + 1:], t


def _kept(ev: Evaluation) -> list:
    return [*_tables(ev), ev.gap_discounts]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_one_period_change_resumes_bit_for_bit(mode):
    # an evaluation resumed from the evaluation of rows that differ in
    # period t only takes over the tables t cannot reach and recomputes the
    # rest; every table, sum and kept g table must be a fresh evaluation's,
    # by type, repr, dtype and shape, and so must the evaluation with row t
    # zero, the coordinate model read from a resumed evaluation and the
    # checked evaluation
    seen = {}
    for m, part, rows, changed, t in _reuse_cases(mode, seen):
        like = formula_layer(m, part, rows)
        got = like.with_row(t, changed[t])
        assert _spelled(_kept(got)) == _spelled(_kept(formula_layer(m, part, changed)))
        zeroed = rows[:t] + ([0] * part.npieces,) + rows[t + 1:]
        fresh_zeroed = formula_layer(m, part, zeroed)
        assert _spelled(_kept(like.with_row(t, zeroed[t]))) == _spelled(_kept(fresh_zeroed))
        # the model read from the change is the one read from a fresh
        # evaluation, and its tails are those read from like
        model = coordinate_tails(got, t)
        assert _spelled(model) == _spelled(coordinate_tails(formula_layer(m, part, changed), t))
        assert _spelled(model[2]) == _spelled(coordinate_tails(like, t)[2])
        # the checked change is the change, and resuming back from it gives
        # the first rows
        assert _spelled(_kept(like.with_row(t, changed[t]).checked())) == _spelled(_kept(got))
        assert _spelled(_kept(got.with_row(t, rows[t]))) == _spelled(_kept(like))
    assert all(seen.values()) and set(seen) == {"T = 1", "atomless", "atom at 0", "atom at 1"}


def test_column_sums_match_each_columns_scalar_change():
    # the whole-array pass gives, for every column, the revenue and usage of
    # the scalar one-period change to that column, by type and .hex(): on
    # the tail probes and on matrices of fractional levels, some decreasing,
    # so that payments go negative and a -0.0 product comes up
    rng = random.Random(3201)
    levels = [0.0, 1.0, 1 / 3, 0.5, 0.75, 0.2]
    markets = [edge_market(rng, FLOAT, shortcuts=True) for _ in range(40)]
    markets += [make_market(T=T, atoms=[], mass=[[]] * T, inventory=inv, mode=FLOAT) for T, inv in ((1, None), (3, 1))]
    # no mass anywhere: a negative payment meets presence 0 in every term
    markets += [make_market(T=T, atoms=atoms, mass=[[0] * len(atoms)] * T, inventory=None, mode=FLOAT)
                for T, atoms in ((1, ["1/2"]), (2, ["1/3", "2/3"]))]
    # eleven atoms and nine periods, where a pairwise sum of one column over
    # the atoms or over the periods would differ
    markets += [make_market(T=T, atoms=[F(k, 12) for k in range(1, 12)], inventory=2, mode=FLOAT,
                            mass=[[rng.choice(MASS_POOL) for _ in range(11)] for _ in range(T)]) for T in (1, 3, 9) * 7]
    seen = dict.fromkeys(("T = 1", "atomless", "atoms at 0 and 1", "zero-mass atom", "unit lambda among others",
                          "tied delta", "int 0 and 1 in rows", "-0.0 product"), False)
    hexed = lambda xs: [(type(x).__name__, x.hex()) for x in xs]
    for m in markets:
        d = m.discounts
        part = Partition([*m.atoms, *(rng.randint(1, 23) / 24 for _ in range(rng.randint(0, 2)))])
        npieces = part.npieces
        rows = [edge_row(rng, npieces, FLOAT) for _ in range(m.T)]
        if rng.random() < 0.5:
            rows[rng.randrange(m.T)] = tuple(reversed(rows[0]))
        for case, hit in (
            ("T = 1", m.T == 1),
            ("atomless", not m.atoms),
            ("atoms at 0 and 1", {0, 1} <= set(m.atoms)),
            ("zero-mass atom", any(not any(col) for col in zip(*m.mass))),
            ("unit lambda among others", d.lambda_b[0] == 1 and set(d.lambda_s + d.lambda_b) != {1}),
            ("tied delta", len(set(d.delta)) < m.T),
            ("int 0 and 1 in rows", {(type(x), x) for row in rows for x in row} >= {(int, 0), (int, 1)}),
        ):
            seen[case] = seen[case] or hit
        cur = evaluate_rows(m, part, rows)
        for t in range(m.T):
            fractional = [np.array([[rng.choice(levels) for _ in range(k)] for _ in range(npieces)]) for k in (1, 2, 5)]
            for columns in (np.tri(npieces, npieces + 1), *fractional):
                revenue, used = column_sums(cur, t, columns)
                assert revenue.shape == used.shape == (columns.shape[1],)
                assert revenue.dtype == used.dtype == np.float64
                for column, got in zip(columns.T.tolist(), zip(revenue.tolist(), used.tolist())):
                    ev = cur.with_row(t, column)
                    assert hexed(got) == hexed([ev.revenue, ev.inventory_used])
                    seen["-0.0 product"] |= any(p * f == 0 and math.copysign(1, p * f) < 0
                                                for p_row, f_row in zip(ev.payments, ev.fstar)
                                                for p, f in zip(p_row, f_row))
    assert all(seen.values()), seen


def _reference_coordinate_tails(market: Market, partition: Partition, R, t: int):
    """``coordinate_tails`` as it was before it read the current evaluation:
    ``(base, tails)``, ``base`` a formula-layer evaluation of ``R`` with row
    ``t`` zero, whose tables the coefficient pass reads."""
    T, atoms = market.T, market.atoms
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    zero = delta[0] * 0
    R = list(R)
    R[t] = [0] * partition.npieces
    base = formula_layer(market, partition, R)
    fstar, r_at = base.fstar, base.r_at
    atom_k = [partition.piece_of_point(a) // 2 for a in atoms]
    points = partition.points
    ngaps = len(points) - 1

    def above_gaps(values):
        # [j] the sum of values[i] over the atoms above gap j
        sums, run, i = [zero] * ngaps, zero, len(atoms) - 1
        for j in range(ngaps - 1, -1, -1):
            while i >= 0 and atom_k[i] > j:
                run += values[i]
                i -= 1
            sums[j] = run
        return sums

    # Gap j: a unit of h there moves U_s(x) above it by reach[j] times D_j,
    # the integral of delta_t - g_{t+1} over the gap, where reach[j] is
    # P_s[j]; total[j] gathers the revenue change per unit of D_j.
    total = [-lam_s[t] / lam_b[t] * x for x in above_gaps(fstar[t])]
    reach = [1] * ngaps
    for s in range(t - 1, -1, -1):
        if not any(reach):
            break
        kappa = lam_s[s] / lam_b[s]
        above = above_gaps(fstar[s])
        stay = above_gaps([f * (1 - r) for f, r in zip(fstar[s], r_at[s])])
        for j, (later, r) in enumerate(zip(reach, R[s][1::2])):
            if later != 0:
                reach[j] = now = (1 - r) * later
                total[j] += kappa * (later * stay[j] - now * above[j])
    u_next = base.u_points[t + 1]
    gaps = [
        (x * (delta[t] * (b - a) - (ub - ua)), zero)
        for x, a, b, ua, ub in zip(total, points, points[1:], u_next, u_next[1:])
    ]

    # Atom i: its own payment and usage at t, then the f* it leaves to later
    # periods, d f*_{t+1} = -f*_t and d f*_{s+1} = (1 - r_s) d f*_s.
    at_point = [(zero, zero)] * len(points)
    for i, (a, k, f) in enumerate(zip(atoms, atom_k, fstar[t])):
        rev = lam_s[t] * f * (delta[t] * a - base.u_at[t + 1][i]) / lam_b[t]
        used = f
        moved = -f
        for s in range(t + 1, T):
            if moved == 0:
                break
            r = r_at[s][i]
            rev += lam_s[s] * base.payments[s][i] * moved
            used += r * moved
            moved *= 1 - r
        at_point[k] = (rev, used)

    coefficients = [at_point[0]]
    for gap, point in zip(gaps, at_point[1:]):
        coefficients += (gap, point)
    rev = used = zero
    tails = []
    for j, g in reversed(coefficients):
        rev += j
        used += g
        tails.append((rev, used))
    return base, tuple(reversed(tails))


def test_coordinate_model_is_read_from_the_current_evaluation():
    # rational: for every t, the base read off the evaluation of the
    # current rows equals a fresh evaluation of the rows with row t zero,
    # and the tails are the reference pass's, on markets with general
    # lambdas, tied deltas, atoms at 0 and 1, no atoms, and T = 1
    rng = random.Random(2201)
    markets = [edge_market(rng, RATIONAL) for _ in range(40)]
    markets += [make_market(T=T, atoms=[], mass=[[]] * T, inventory=inv) for T, inv in ((1, None), (3, 1))]
    seen = dict.fromkeys(("general lambda", "tied delta", "atom at 0", "atom at 1", "no atoms", "T = 1"), False)
    for m in markets:
        d = m.discounts
        for case, hit in (
            ("general lambda", any(x != 1 for x in d.lambda_s + d.lambda_b)),
            ("tied delta", any(a == b for a, b in zip(d.delta, d.delta[1:]))),
            ("atom at 0", 0 in m.atoms), ("atom at 1", 1 in m.atoms), ("no atoms", not m.atoms), ("T = 1", m.T == 1),
        ):
            seen[case] = seen[case] or hit
        part = Partition([*m.atoms, *(F(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 2)))])
        rows = tuple(edge_row(rng, part.npieces, RATIONAL) for _ in range(m.T))
        cur = formula_layer(m, part, rows)
        for t in range(m.T):
            base_revenue, base_used, tails = coordinate_tails(cur, t)
            zero = formula_layer(m, part, rows[:t] + ([0] * part.npieces,) + rows[t + 1:])
            assert (base_revenue, base_used) == (zero.revenue, zero.inventory_used)
            assert type(base_revenue) is F and type(base_used) is F
            _, want = _reference_coordinate_tails(m, part, rows, t)
            assert tails == want
            assert _spelled(tails) == _spelled(want)
    assert all(seen.values()), seen


def test_resuming_needs_the_same_row_objects():
    # a one-period change evaluates the evaluation's own row objects
    # outside period t, on its market and partition, whatever row it is
    # given; a batch evaluation has no one-period changes, for a build's
    # held-out check or trial, nor for the coefficient pass, and no
    # self-checks
    m = make_market(T=3, atoms=["1/2", 1], mass=[[1, 1]] * 3, inventory=2)
    part = Partition(m.atoms)
    rows = ((0,) * part.npieces, (F(1, 2),) * part.npieces, (1,) * part.npieces)
    like = formula_layer(m, part, rows)
    copied = tuple(list(rows[2]))
    assert copied == rows[2] and copied is not rows[2]
    for t in range(m.T):
        got = like.with_row(t, copied)
        assert got.market is m and got.partition is part and got.rows[t] is copied
        assert all(got.rows[s] is rows[s] for s in range(m.T) if s != t)
        assert _spelled(_kept(got)) == _spelled(_kept(formula_layer(m, part, got.rows)))
    coordinate_tails(like, 1)
    batch = formula_layer(m, part, rows[:2] + (np.array([rows[2]], dtype=object).T,))
    assert batch.gap_discounts is None
    for call in (lambda: batch.with_row(1, rows[1]), lambda: coordinate_tails(batch, 1)):
        with pytest.raises(ValueError, match="a batch evaluation has no one-period changes"):
            call()
    with pytest.raises(ValueError, match="a batch evaluation has no self-checks"):
        batch.checked()
