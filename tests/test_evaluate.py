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
from dynration import ascent
from dynration.evaluate import Evaluation, EvaluatorInternalError, coordinate_tails, evaluate_rows, formula_layer
from dynration.report import evaluation_csv

from gen import MASS_POOL, random_feasible_profile, random_market, random_profile, random_step, slopes

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


def _spelled(x):
    """``x`` with every number spelled by its type and repr, arrays by dtype and shape too."""
    if isinstance(x, np.ndarray):
        return ("ndarray", str(x.dtype), x.shape, [_spelled(y) for y in x.ravel().tolist()])
    if isinstance(x, (list, tuple)):
        return [_spelled(y) for y in x]
    return (type(x).__name__, repr(x))


def _tables(ev: Evaluation) -> list:
    return [ev.u_points, ev.r_at, ev.u_at, ev.fstar, ev.payments, ev.revenue, ev.inventory_used]


def _edge_market(rng, mode):
    """A small random market that may put atoms at 0 and 1, tie deltas, take
    general lambdas and leave supply unbounded."""
    T, n = rng.randint(1, 4), rng.randint(1, 4)
    atoms = sorted(rng.sample([F(k, 12) for k in range(13)], n))
    if rng.random() < 0.3:
        atoms = sorted({F(0), *atoms[1:-1], F(1)})
    mass = [[rng.choice(MASS_POOL) for _ in atoms] for _ in range(T)]
    mass[0][-1] += 1
    pool = [F(1), F(11, 12), F(5, 6), F(3, 4), F(2, 3), F(1, 2)]
    schedules = [sorted((rng.choice(pool) for _ in range(T)), reverse=True) for _ in range(3)]
    if T > 1 and rng.random() < 0.5:
        schedules[0][1] = schedules[0][0]
    if rng.random() < 0.5:
        schedules[1] = schedules[2] = None
    inventory = None if rng.random() < 0.4 else F(rng.randint(1, 8), 4)
    return make_market(T=T, atoms=atoms, mass=mass, inventory=inventory, delta=schedules[0],
                       lambda_s=schedules[1], lambda_b=schedules[2], mode=mode)


def _edge_row(rng, npieces, mode):
    """A monotone row of whole levels as ints and as the mode's numbers, and fractions."""
    if mode == RATIONAL:
        levels = [0, 0, 1, 1, F(0), F(1), F(1, 3), F(1, 2), F(3, 4)]
    else:
        levels = [0, 0, 1, 1, 0.0, 1.0, 1 / 3, 0.5, 0.75]
    return tuple(sorted((rng.choice(levels) for _ in range(npieces)), key=float))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_formula_layer_matches_the_reference_by_repr(mode):
    # the shortcuts skip arithmetic on exact 0 and 1 levels; every table
    # entry and both sums must still be what the full expressions give, of
    # the same type (and dtype and shape), on scalar rows, on the build's
    # batch (one period as a pieces x probes matrix) and on the oracle's
    # (every period an array with its candidates on an axis of its own)
    rng = random.Random(2024)
    num = F if mode == RATIONAL else float
    dtype = object if mode == RATIONAL else float
    for _ in range(60):
        m = _edge_market(rng, mode)
        part = Partition([*m.atoms, *(num(F(rng.randint(1, 23), 24)) for _ in range(rng.randint(0, 2)))])
        rows = [_edge_row(rng, part.npieces, mode) for _ in range(m.T)]
        checks = [rows]

        t = rng.randrange(m.T)
        columns = [_edge_row(rng, part.npieces, mode) for _ in range(3)]
        build = list(rows)
        build[t] = np.array(columns, dtype=dtype).T
        checks.append(build)

        oracle = []
        for s in range(m.T):
            candidates = np.array([_edge_row(rng, part.npieces, mode) for _ in range(2)], dtype=dtype).T
            oracle.append(candidates.reshape((part.npieces,) + tuple(2 if k == s else 1 for k in range(m.T))))
        checks.append(oracle)

        for R in checks:
            want = _spelled(_reference_formula_layer(m, part, R))
            assert _spelled(_tables(formula_layer(m, part, R))) == want
        assert _spelled(_tables(evaluate_rows(m, part, rows))) == _spelled(_reference_formula_layer(m, part, rows))


# -- one-period changes resumed from the evaluation of the other rows ----------


def _reuse_cases(mode, seen):
    """``(market, partition, rows, changed, t)`` where ``changed`` is ``rows``
    with a new row t and the same row objects elsewhere.

    The markets are ``_edge_market``'s plus two atomless ones; the new row
    is a scalar row of int, mode-number and fraction levels, a batch of
    such rows as columns and, in float mode, the build's tail probes.
    ``seen`` collects which edge cases came up.
    """
    rng = random.Random(2110)
    num = F if mode == RATIONAL else float
    dtype = object if mode == RATIONAL else float
    markets = [_edge_market(rng, mode) for _ in range(30)]
    markets += [make_market(T=T, atoms=[], mass=[[]] * T, inventory=inv, mode=mode) for T, inv in ((1, None), (3, 1))]
    for m in markets:
        for case, hit in (("T = 1", m.T == 1), ("atomless", not m.atoms), ("atom at 0", 0 in m.atoms),
                          ("atom at 1", 1 in m.atoms)):
            seen[case] = seen.get(case, False) or hit
        part = Partition([*m.atoms, *(num(F(rng.randint(1, 23), 24)) for _ in range(rng.randint(0, 2)))])
        rows = tuple(_edge_row(rng, part.npieces, mode) for _ in range(m.T))
        for t in range(m.T):
            news = [
                _edge_row(rng, part.npieces, mode),
                np.array([_edge_row(rng, part.npieces, mode) for _ in range(3)], dtype=dtype).T,
            ]
            if mode == FLOAT:
                news.append(ascent._tail_probes(part.npieces))
            for new in news:
                yield m, part, rows, rows[:t] + (new,) + rows[t + 1:], t


def _kept(ev: Evaluation) -> list:
    return [*_tables(ev), ev.gap_discounts]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_one_period_change_resumes_bit_for_bit(mode):
    # an evaluation resumed from the evaluation of rows that differ in
    # period t only takes over the tables t cannot reach and recomputes the
    # rest; every table, sum and kept g table must be a fresh evaluation's,
    # by type, repr, dtype and shape, and so must the base and tails of the
    # coordinate model and, on scalar rows, the checked evaluation
    seen = {}
    for m, part, rows, changed, t in _reuse_cases(mode, seen):
        like = formula_layer(m, part, rows)
        got = formula_layer(m, part, changed, like=like, t=t)
        assert _spelled(_kept(got)) == _spelled(_kept(formula_layer(m, part, changed)))
        base, tails = coordinate_tails(m, part, changed, t, like)
        want_base, want_tails = coordinate_tails(m, part, changed, t)
        assert _spelled([*_kept(base), tails]) == _spelled([*_kept(want_base), want_tails])
        if got.gap_discounts is not None:
            # a scalar change; resuming back from it gives the first rows
            assert _spelled(_kept(evaluate_rows(m, part, changed, like, t))) == _spelled(_kept(got))
            assert _spelled(_kept(formula_layer(m, part, rows, got, t))) == _spelled(_kept(like))
    assert all(seen.values()) and set(seen) == {"T = 1", "atomless", "atom at 0", "atom at 1"}


def test_resuming_needs_the_same_row_objects():
    # like must be the scalar evaluation of R's own row objects outside
    # period t, on the same market and partition
    m = make_market(T=3, atoms=["1/2", 1], mass=[[1, 1]] * 3, inventory=2)
    part = Partition(m.atoms)
    rows = ((0,) * part.npieces, (F(1, 2),) * part.npieces, (1,) * part.npieces)
    like = formula_layer(m, part, rows)
    copied = rows[:2] + (tuple(list(rows[2])),)
    assert copied == rows and copied[2] is not rows[2]
    formula_layer(m, part, copied, like, 2)
    batch = formula_layer(m, part, rows[:2] + (np.array([rows[2]], dtype=object).T,))
    assert batch.gap_discounts is None
    other = Partition(m.atoms)
    for call in (
        lambda: formula_layer(m, part, copied, like, 1),
        lambda: evaluate_rows(m, part, copied, like, 0),
        lambda: coordinate_tails(m, part, copied, 1, like),
        lambda: formula_layer(m, part, rows, batch, 1),
        lambda: formula_layer(m, other, rows, like, 1),
        lambda: formula_layer(ex_ration(), part, rows, like, 1),
    ):
        with pytest.raises(ValueError, match="like is no scalar evaluation"):
            call()
