import dataclasses
import importlib
import random
from fractions import Fraction as F

import numpy as np
import pytest

import dynration.ascent as ascent
from dynration import (
    AllocationProfile,
    Partition,
    StepFunction,
    brute_force_optimal,
    coordinate_ascent,
    evaluate,
    make_market,
    normalize_staircase,
    solve_coordinate,
)
from dynration.ascent import build_coordinate_lp
from dynration.evaluate import Evaluation, coordinate_tails, evaluate_rows, inventory_used, row_value
from dynration.numeric import FLOAT, RATIONAL
from dynration.stepfn import Jump, segment_refinement

from gen import (
    MASS_POOL,
    edge_market,
    edge_row,
    lp_from_coefficients,
    random_lp_coefficients,
    random_market,
    random_profile,
    random_step,
    shrunk_to_feasible,
    spelled,
)


def test_ration_solve(ration_market):
    report = coordinate_ascent(ration_market, starts=4, seed=1)
    assert report.revenue == F(7, 6)
    assert report.inventory_used == F(3, 2)
    assert report.binding
    assert report.converged


def test_twogen_solve(twogen_market):
    report = coordinate_ascent(twogen_market, starts=4, seed=1)
    assert report.revenue == 1
    assert not report.binding


def test_three_atom_posted_price():
    m = make_market(T=1, atoms=["1/3", "2/3", 1], mass=[["1/3", "1/3", "1/3"]])
    report = coordinate_ascent(m, starts=2, seed=0)
    assert report.revenue == F(4, 9)
    assert report.profile.steps[0] == StepFunction.step(F(2, 3))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the zero and ones starts both stop at 1: moving the sale from t = 1 to t = 2 "
        "changes both periods at once (fix: ROADMAP item 1's two-period escapes and item 3's posted starts)"
    ),
)
def test_ascent_leaves_the_sale_to_the_period_that_pays_more():
    # a lambdaB of 1/2 doubles the price the cohort accepts at t = 2; the
    # ascent returns 1 at starts 0, 2 and 8 and reaches 2 only at 16
    m = make_market(T=2, atoms=[1], mass=[[1], [0]], lambda_b=[1, "1/2"])
    assert coordinate_ascent(m, starts=2).revenue == brute_force_optimal(m).revenue


def _rows(market, profile, t):
    """Period t's model inputs: the other periods' partition and every row on it.

    Row t is zero.
    """
    partition = segment_refinement([r for s, r in enumerate(profile.steps) if s != t], market.atoms)
    zero = [0] * partition.npieces
    return partition, [zero if s == t else partition.values(r) for s, r in enumerate(profile.steps)]


def _build(market, profile, t):
    return build_coordinate_lp(evaluate_rows(market, *_rows(market, profile, t)), t)


def test_lp_single_atom_coefficients():
    m = make_market(T=1, atoms=[1], mass=[[1]])
    lp = _build(m, AllocationProfile.zero(1), 0)
    # pieces {0}, (0, 1), {1}: serving everyone earns nothing; serving
    # value 1 only earns 1
    assert lp.tails == ((0, 1), (0, 1), (1, 1))
    assert lp.budget is None


def test_lp_ration_second_period(ration_market):
    prof = AllocationProfile((StepFunction.step(1), StepFunction.zero()))
    partition, rows = _rows(ration_market, prof, 1)
    assert partition.points == (0, F(2, 3), 1)
    lp = build_coordinate_lp(evaluate_rows(ration_market, partition, rows), 1)
    assert lp.tails == ((-1, 1), (-1, 1), (F(1, 3), 1), (F(-1, 3), 0), (0, 0))
    assert lp.budget == F(1, 2)
    sol = solve_coordinate(lp)
    assert sol.row == (0, 0, F(1, 2), F(1, 2), F(1, 2))
    assert StepFunction.from_values(partition, sol.row) == StepFunction.step(F(2, 3), high=F(1, 2))
    assert sol.predicted_revenue == F(7, 6)
    assert sol.predicted_used == F(3, 2)


def test_lp_zero_when_no_mass_remains():
    m = make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [0, 0]])
    prof = AllocationProfile((StepFunction.one(), StepFunction.zero()))
    lp = _build(m, prof, 1)
    assert all(tail == (0, 0) for tail in lp.tails)


def _probed_lp(market, partition, rows, t):
    """Reference coordinate model of period ``t`` of ``rows`` from 2m + 2
    separate evaluator probes.

    Probes are the zero rule and, at every partition point, the closed tail
    ``1[p <= x]`` and the open tail ``1[p < x]`` (none at the point 1); each
    tail's change over the zero rule is its value. Float builds probe
    every tail at once, so this checks them tail by tail.
    """

    def probe(h):
        ev = evaluate_rows(market, partition, [*rows[:t], partition.values(h), *rows[t + 1:]])
        return ev.revenue, ev.inventory_used

    base = probe(StepFunction.zero())
    change = lambda tail: (tail[0] - base[0], tail[1] - base[1])
    tails = []
    for p in partition.points:
        tails.append(change(probe(StepFunction.step(p, True))))
        if p < 1:
            tails.append(change(probe(StepFunction.step(p, False))))
    return {"base": base, "tails": tails}


def _oracle_market(rng, mode, *, max_periods=3, unbounded=None, massless=False):
    """Random market with general lambdas or tied deltas, and atoms at 0 and 1.

    With ``massless`` one atom gets no mass in any period.
    """
    m = random_market(
        rng,
        max_periods=max_periods,
        max_atoms=4,
        unbounded=unbounded,
        general_lambda=rng.random() < 0.5,
        tied_delta=rng.random() < 0.3,
    )
    atoms, mass = list(m.atoms), [list(row) for row in m.mass]
    if rng.random() < 0.5:
        atoms.insert(0, F(0))
        for row in mass:
            row.insert(0, rng.choice(MASS_POOL))
    if atoms[-1] != 1 and rng.random() < 0.5:
        atoms.append(F(1))
        for row in mass:
            row.append(rng.choice(MASS_POOL))
    if massless:
        i = rng.randrange(len(atoms))
        for row in mass:
            row[i] = 0
        if not any(x for row in mass for x in row):
            mass[0][i - 1] = 1
    d = m.discounts
    return make_market(m.T, atoms, mass, m.inventory, d.delta, d.lambda_s, d.lambda_b, mode=mode)


def _oracle_profile(rng, market):
    """Random profile with jumps on the atoms and on points between them."""
    grid = [F(k, 24) for k in range(1, 24)]
    if market.mode == FLOAT:
        grid = [float(x) for x in grid]
    steps = []
    for _ in range(market.T):
        locs = sorted(set(market.atoms) | set(rng.sample(grid, 2)))
        steps.append(random_step(rng, locs, market.mode))
    return AllocationProfile(tuple(steps))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_batched_build_matches_probe_oracle(mode):
    rng = random.Random(31)
    key = (lambda x: x) if mode == RATIONAL else (lambda x: x.hex())
    kinds = (int, F) if mode == RATIONAL else (float,)
    # then longer horizons, unbounded supply and atoms without mass
    cases = [{}] * 40 + [dict(max_periods=5, unbounded=k % 2 == 0, massless=k % 3 != 2) for k in range(24)]
    for kw in cases:
        m = _oracle_market(rng, mode, **kw)
        prof = _oracle_profile(rng, m)
        for t in range(m.T):
            want = _probed_lp(m, *_rows(m, prof, t), t)
            lp = _build(m, prof, t)
            got = [x for tail in [(lp.base_revenue, lp.base_used), *lp.tails] for x in tail]
            expected = [x for tail in [want["base"], *want["tails"]] for x in tail]
            assert all(type(x) in kinds for x in got), t
            assert [key(x) for x in got] == [key(x) for x in expected], t
            budget = None if m.unbounded else m.inventory - want["base"][1]
            assert lp.budget == budget


def test_coordinate_tails_match_the_probes_where_they_skip_arithmetic():
    # rational: the base and every tail read off the current evaluation are
    # the probes' values, by type and repr, on markets with lambdas of
    # exactly 1 among general ones and atoms without mass, and on rows of
    # int and Fraction 0s and 1s, fractions in between included
    rng = random.Random(2602)
    seen = dict.fromkeys(("unit lambdas among others", "zero-mass atom", "int 0 and 1", "Fraction 0 and 1"), False)
    for _ in range(40):
        m = edge_market(rng, RATIONAL, shortcuts=True)
        part = Partition([*m.atoms, *(F(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 2)))])
        rows = [edge_row(rng, part.npieces, RATIONAL) for _ in range(m.T)]
        d, levels = m.discounts, {(type(x), x) for row in rows for x in row}
        for case, hit in (
            ("unit lambdas among others", d.lambda_s[0] == d.lambda_b[0] == 1 and set(d.lambda_s + d.lambda_b) != {1}),
            ("zero-mass atom", any(not any(col) for col in zip(*m.mass))),
            ("int 0 and 1", levels >= {(int, 0), (int, 1)}),
            ("Fraction 0 and 1", levels >= {(F, 0), (F, 1)}),
        ):
            seen[case] = seen[case] or hit
        cur = evaluate_rows(m, part, rows)
        for t in range(m.T):
            base_revenue, base_used, tails = coordinate_tails(cur, t)
            want = _probed_lp(m, part, rows, t)
            assert spelled([(base_revenue, base_used), *tails]) == spelled([want["base"], *want["tails"]])
    assert all(seen.values()), seen


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_tail_from_a_gap_or_an_atomless_point_never_beats_the_next_tail(mode):
    # a gap holds no mass, so raising a rule there only adds information
    # rent: its revenue coefficient is <= 0 and its usage coefficient 0,
    # and an atomless point's are both 0 (ROADMAP item 5). The grid oracle
    # builds only the candidates with every gap at the level of the point
    # below it on the strength of this. Exact in rational mode, within the
    # held-out check's tolerance in float
    rng = random.Random(3105)
    kind = F if mode == RATIONAL else float
    levels = [F(k, 8) for k in range(9)]
    seen = dict.fromkeys(("general lambda", "tied delta", "bounded", "unbounded", "gap below", "atomless point"), False)
    for k in range(150):
        m = _oracle_market(rng, mode, unbounded=k % 2 == 0)
        extra = {kind(F(rng.randint(1, 23), 24)) for _ in range(rng.randint(0, 2))}
        part = Partition([*m.atoms, *extra])
        rows = [tuple(sorted(kind(rng.choice(levels)) for _ in range(part.npieces))) for _ in range(m.T)]
        cur = evaluate_rows(m, part, rows)
        d = m.discounts
        seen["general lambda"] |= set(d.lambda_s + d.lambda_b) != {1}
        seen["tied delta"] |= len(set(d.delta)) < m.T
        seen["bounded" if k % 2 else "unbounded"] = True
        for t in range(m.T):
            tails = build_coordinate_lp(cur, t).tails
            for f, (rev, used) in enumerate(tails):
                next_rev, next_used = tails[f + 1] if f + 1 < len(tails) else (0, 0)
                tol = 0 if mode == RATIONAL else 1e-8 * max(1, abs(rev), abs(next_rev))
                if f % 2:
                    assert rev <= next_rev + tol and used == next_used, (m, t, f)
                    seen["gap below"] |= rev < next_rev - tol
                elif part.points[f // 2] not in m.atoms:
                    assert abs(rev - next_rev) <= tol and used == next_used, (m, t, f)
                    seen["atomless point"] = True
    assert all(seen.values()), seen


def test_build_calls_evaluate_once(monkeypatch):
    # a rational build's one evaluation is its held-out check: a checked
    # one-period change of the current evaluation, and no fresh one
    calls = []

    def counting(name, method):
        def counted(self, *args):
            calls.append(name)
            return method(self, *args)
        return counted

    def refuse(*args):
        raise AssertionError("the build evaluated rows from scratch")

    rng = random.Random(32)
    m = _oracle_market(rng, RATIONAL)
    prof = _oracle_profile(rng, m)
    cur = evaluate_rows(m, *_rows(m, prof, m.T - 1))
    for name in ("with_row", "checked"):
        monkeypatch.setattr(Evaluation, name, counting(name, getattr(Evaluation, name)))
    monkeypatch.setattr(importlib.import_module("dynration.evaluate"), "formula_layer", refuse)
    build_coordinate_lp(cur, m.T - 1)
    assert calls == ["with_row", "checked"]


def test_tail_probes_are_one_read_only_matrix():
    # a run's builds share one matrix of probes, so it may not be written
    probes = ascent._tail_probes(7)
    assert probes.shape == (7, 8) and probes.dtype == float
    for f in range(8):
        assert probes[:, f].tolist() == [1.0 if p >= f else 0.0 for p in range(7)]
    assert not probes[:, 7].any()
    assert not probes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        probes[0, 0] = 1
    assert ascent._tail_probes(7) is probes


def test_build_probes_in_float_mode_only(monkeypatch):
    # a float build measures its tails in one whole-array pass and hands
    # neither the formula layer nor a one-period change a batch; a rational
    # build sums exact coefficients and never calls the pass
    evaluate_mod = importlib.import_module("dynration.evaluate")
    batched, passes = [], []
    formula_layer, with_row, column_sums = evaluate_mod.formula_layer, Evaluation.with_row, ascent.column_sums

    def recording(market, partition, R):
        batched.append(any(isinstance(x, np.ndarray) for row in R for x in row))
        return formula_layer(market, partition, R)

    def recording_change(self, t, row):
        batched.append(isinstance(row, np.ndarray))
        return with_row(self, t, row)

    def recording_pass(cur, t, columns):
        passes.append(t)
        return column_sums(cur, t, columns)

    monkeypatch.setattr(evaluate_mod, "formula_layer", recording)
    monkeypatch.setattr(Evaluation, "with_row", recording_change)
    monkeypatch.setattr(ascent, "column_sums", recording_pass)
    for mode in (RATIONAL, FLOAT):
        rng = random.Random(34)
        m = _oracle_market(rng, mode)
        cur = evaluate_rows(m, *_rows(m, _oracle_profile(rng, m), m.T - 1))
        for t in range(m.T):
            batched.clear()
            passes.clear()
            build_coordinate_lp(cur, t)
            assert batched == [False] and passes == ([t] if mode == FLOAT else []), mode
        batched.clear()
        coordinate_ascent(m, starts=2, seed=0)
        assert batched and not any(batched), mode


def test_held_out_row_weighs_every_tail_and_piece_by_at_least_one(monkeypatch):
    # the check compares the model's value of h - r with the evaluator's;
    # r's values and steps lie in [0, 1], so h = (2, 4, 2, 4, ...) weighs
    # every tail (h - r's step onto its piece) and every piece (h_p - r_p)
    # by at least 1
    seen, with_row = [], Evaluation.with_row

    def recording(self, t, row):
        seen.append(row)
        return with_row(self, t, row)

    monkeypatch.setattr(Evaluation, "with_row", recording)
    for mode, kind in ((RATIONAL, F), (FLOAT, float)):
        m = make_market(T=2, atoms=["1/3", "2/3"], mass=[[1, 1], [0, "1/2"]], inventory="3/2", mode=mode)
        partition = segment_refinement((), m.atoms)
        assert partition.npieces == 7
        half, eighth = F(1, 2), F(1, 8)
        for r in ((0,) * 7, (1,) * 7, (eighth,) * 7, tuple(F(p, 7) for p in range(7)), (0, 0, half, half, 1, 1, 1)):
            r = tuple(map(kind, r))
            build_coordinate_lp(evaluate_rows(m, partition, (r, r)), 1)
            h = seen[-1]
            assert h == (2, 4, 2, 4, 2, 4, 2)
            d = [a - b for a, b in zip(h, r)]
            assert min(d) >= 1, r
            assert min(abs(b - a) for a, b in zip([0, *d], d)) >= 1, r


def test_float_self_checks_reject_nan():
    # a NaN compares False with any tolerance, so each check must fail it
    nan = float("nan")
    m = make_market(T=2, atoms=["1/2", 1], mass=[[0, 1], [1, 0]], inventory="3/2", mode=FLOAT)
    partition = segment_refinement((), m.atoms)
    cur = evaluate_rows(m, partition, ((0.0,) * partition.npieces,) * m.T)
    lp = build_coordinate_lp(cur, 1)
    for field in ("base_revenue", "base_used"):
        with pytest.raises(ascent.AffinityError, match="tail model off"):
            ascent._assert_affine(dataclasses.replace(lp, **{field: nan}), cur)
    ascent._require_prediction(1.0, 1.0, FLOAT)
    for actual, predicted in ((nan, 1.0), (1.0, nan)):
        with pytest.raises(ascent.AffinityError, match="mispredicted"):
            ascent._require_prediction(actual, predicted, FLOAT)


def _lp(boundaries, obj_atom, obj_density, inv_atom, budget):
    return lp_from_coefficients(boundaries, obj_atom, obj_density, inv_atom, (0,) * (len(boundaries) - 1), budget)


def _solved_step(boundaries, lp):
    sol = solve_coordinate(lp)
    return sol, StepFunction.from_values(Partition(boundaries), sol.row)


def _boundary_candidate(rng, pts, mode):
    """Random rule jumping on ``pts``: a nonzero base level and a closed+open pair at one point."""
    pair = rng.choice(pts[1:-1] or pts)
    others = rng.sample([p for p in pts if p != pair], min(2, len(pts) - 1))
    jumps = sorted([Jump(pair, True), Jump(pair, False)] + [Jump(p, rng.random() < 0.5) for p in others],
                   key=Jump.token)
    levels = sorted(rng.sample([F(k, 8) for k in range(1, 9)], len(jumps) + 1))
    if mode == FLOAT:
        levels = [float(x) for x in levels]
    return StepFunction(levels, jumps)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_row_value_matches_evaluate_on_boundary_candidates(mode):
    rng = random.Random(33)
    for _ in range(40):
        m = _oracle_market(rng, mode)
        prof = _oracle_profile(rng, m)
        t = rng.randrange(m.T)
        partition, rows = _rows(m, prof, t)
        lp = build_coordinate_lp(evaluate_rows(m, partition, rows), t)
        for _ in range(3):
            h = _boundary_candidate(rng, partition.points, mode)
            ev = evaluate(m, prof.with_step(t, h))
            j, g = row_value(partition.values(h), lp.tails)
            got = (lp.base_revenue + j, lp.base_used + g)
            if mode == RATIONAL:
                assert got == (ev.revenue, ev.inventory_used)
            else:
                assert got == pytest.approx((ev.revenue, ev.inventory_used), rel=1e-9, abs=1e-12)


def test_solve_all_positive_takes_everything():
    pts = [0, F(1, 2), 1]
    sol, step = _solved_step(pts, _lp(pts, [F(1, 4), F(1, 2), 1], [F(1, 8), F(1, 8)], [1, 1, 1], None))
    assert step == StepFunction.one()


def test_solve_all_negative_stays_closed():
    pts = [0, F(1, 2), 1]
    sol, step = _solved_step(pts, _lp(pts, [0, -1, -1], [F(-1, 8), F(-1, 8)], [1, 1, 1], None))
    assert step.is_zero()
    assert sol.objective == 0


def test_solve_budget_tight_scaled_step():
    pts = [0, F(2, 3), 1]
    sol, step = _solved_step(pts, _lp(pts, [0, F(2, 3), 0], [-2, -1], [0, 1, 0], F(1, 2)))
    assert step == StepFunction.step(F(2, 3), high=F(1, 2))
    assert sol.used == F(1, 2)


def test_solve_two_step_when_high_atom_worth_full_service():
    # one unit of budget headroom, two weighted atoms: serve the top atom
    # for sure and ration the cheap one with the leftovers
    pts = [0, F(1, 2), 1]
    sol, step = _solved_step(pts, _lp(pts, [0, F(1, 4), 1], [F(-1, 100), F(-1, 100)], [0, 1, 1], F(3, 2)))
    assert step.num_steps == 2
    assert step.eval(1) == 1
    assert step.eval(F(1, 2)) == F(1, 2)
    assert sol.used == F(3, 2)


def test_ascent_never_decreases_revenue():
    rng = random.Random(9)
    for _ in range(10):
        m = random_market(rng)
        report = coordinate_ascent(m, starts=3, seed=rng.randrange(1000))
        zero_rev = evaluate(m, AllocationProfile.zero(m.T)).revenue
        assert report.revenue >= zero_rev
        for rec in report.starts:
            assert rec.revenue <= report.revenue


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_trials_with_negative_payments_are_rejected(monkeypatch, mode):
    # a trial that reports a payment below zero is never accepted: with
    # every evaluation reporting one, each start keeps its first rows and
    # stops after one sweep, and every trial is counted as rejected
    m = make_market(T=2, atoms=["2/3", 1], mass=[[0, 1], [1, 0]], inventory="3/2", delta=[1, "1/2"], mode=mode)
    free = coordinate_ascent(m, starts=4, seed=1)
    trials = []
    require = ascent._require_prediction
    monkeypatch.setattr(ascent, "_require_prediction", lambda *args: trials.append(args) or require(*args))
    monkeypatch.setattr(Evaluation, "negative_payments", property(lambda self: [(0, 0, -1)]))
    report = coordinate_ascent(m, starts=4, seed=1)
    assert trials and report.rejected_negative_payments == len(trials)
    assert free.rejected_negative_payments == 0 and free.revenue > report.revenue
    assert all(rec.sweeps == 1 and rec.converged for rec in report.starts)
    assert [rec.label for rec in report.starts] == [rec.label for rec in free.starts]
    assert report.starts[0].revenue == 0  # the zero start


def test_ascent_respects_inventory():
    rng = random.Random(10)
    for _ in range(10):
        m = random_market(rng, unbounded=False)
        report = coordinate_ascent(m, starts=3, seed=rng.randrange(1000))
        assert report.inventory_used <= m.inventory


def test_ascent_deterministic():
    m = make_market(
        T=3,
        atoms=["1/4", "7/12", "11/12"],
        mass=[[1, 1, 1], ["1/2", "1/2", "1/2"], [0, 1, 0]],
        inventory="5/2",
        delta=[1, "11/12", "3/4"],
    )
    a = coordinate_ascent(m, starts=5, seed=42)
    b = coordinate_ascent(m, starts=5, seed=42)
    assert a.profile == b.profile
    assert a.revenue == b.revenue
    assert [(r.label, r.revenue) for r in a.starts] == [(r.label, r.revenue) for r in b.starts]


def test_staircase_equal_delta_everyone_eventually_served():
    m = make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [1, 1]])
    prof = AllocationProfile((StepFunction.step(F(3, 4), high=F(1, 2)), StepFunction.one()))
    norm = normalize_staircase(m, prof)
    assert norm.steps[0] == StepFunction.one()
    assert norm.steps[1] == StepFunction.one()
    before, after = evaluate(m, prof), evaluate(m, norm)
    assert before.revenue == after.revenue
    assert before.welfare == after.welfare


def test_staircase_strictly_decreasing_is_identity():
    rng = random.Random(11)
    for _ in range(10):
        m = random_market(rng, strict_delta=True, min_periods=2)
        prof = random_profile(rng, m)
        assert normalize_staircase(m, prof).steps == prof.steps


def test_staircase_invariance_random_tied_blocks():
    rng = random.Random(12)
    for _ in range(20):
        m = random_market(rng, tied_delta=True)
        prof = random_profile(rng, m)
        norm = normalize_staircase(m, prof)
        before, after = evaluate(m, prof), evaluate(m, norm)
        assert before.revenue == after.revenue
        assert before.welfare == after.welfare
        for t in range(m.T):
            for v in list(m.atoms) + [0, F(1, 24), F(11, 24), 1]:
                assert norm.steps[t].eval(v) >= prof.steps[t].eval(v)


def test_staircase_point_region_override():
    # tied deltas with the next period serving strictly above 1/2 only:
    # the region starts just past the point, forcing a same-location pair
    m = make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [0, 0]])
    r1 = StepFunction.step(F(1, 2), high=F(1, 2))
    r2 = StepFunction.step(F(1, 2), closed=False)
    prof = AllocationProfile((r1, r2))
    norm = normalize_staircase(m, prof)
    got = norm.steps[0]
    assert got.eval(F(1, 4)) == 0
    assert got.eval(F(1, 2)) == F(1, 2)
    assert got.eval(F(3, 4)) == 1
    before, after = evaluate(m, prof), evaluate(m, norm)
    assert before.revenue == after.revenue and before.welfare == after.welfare


def _reference_ascent(market, *, starts, max_sweeps=40, seed=0):
    """coordinate_ascent without its memo or its one partition of the atoms.

    The profile stays a tuple of step functions, its starts drawn as
    profiles and shrunk through their rows; every visit refines the other
    periods' partition, then builds and solves period t's model.

    Returns the report and the number of models built.
    """
    tol = ascent.DEFAULT_TOL[market.mode]
    rng = random.Random(seed)
    initials = [
        ("zero", AllocationProfile.zero(market.T)),
        ("ones", shrunk_to_feasible(market, AllocationProfile.ones(market.T))),
    ]
    for _ in range(starts):
        sub_seed = rng.randrange(2**32)
        prof = random_profile(random.Random(sub_seed), market)
        initials.append((sub_seed, shrunk_to_feasible(market, prof)))
    best, records, rejected, builds = None, [], 0, 0
    for label, profile in initials:
        rev = evaluate(market, profile).revenue
        converged, sweeps = False, 0
        for _ in range(max_sweeps):
            sweeps += 1
            improved = False
            for t in range(market.T):
                partition, rows = _rows(market, profile, t)
                sol = solve_coordinate(build_coordinate_lp(evaluate_rows(market, partition, rows), t))
                builds += 1
                if sol.predicted_revenue <= rev + tol:
                    continue
                trial = profile.with_step(t, StepFunction.from_values(partition, sol.row))
                ev = evaluate(market, trial)
                if ev.negative_payments:
                    rejected += 1
                    continue
                profile, rev, improved = trial, ev.revenue, True
            if not improved:
                converged = True
                break
        records.append(ascent.StartRecord(label, rev, sweeps, converged))
        if best is None or rev > best[0]:
            best = (rev, profile, records[-1])
    rev, profile, record = best
    final = evaluate(market, profile)
    report = ascent.SolveReport(
        profile=profile,
        revenue=final.revenue,
        inventory_used=final.inventory_used,
        sweeps=record.sweeps,
        starts=records,
        binding=(not market.unbounded)
        and abs(final.inventory_used - market.inventory) <= (0 if market.mode == RATIONAL else tol),
        converged=all(r.converged for r in records),
        seed=seed,
        tol=tol,
        rejected_negative_payments=rejected,
    )
    return report, builds


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_memoized_ascent_matches_memo_free_reference(monkeypatch, mode):
    rng = random.Random(34)
    memo_builds = reference_builds = 0
    for _ in range(20):
        m = random_market(rng, mode=mode, max_periods=4, max_atoms=3, general_lambda=rng.random() < 0.3)
        starts, seed = rng.randint(3, 5), rng.randrange(1000)
        want, builds = _reference_ascent(m, starts=starts, seed=seed)
        keys = []

        def recording(cur, t):
            keys.append((t, cur.rows[:t], cur.rows[t + 1:]))
            return build_coordinate_lp(cur, t)

        monkeypatch.setattr(ascent, "build_coordinate_lp", recording)
        got = coordinate_ascent(m, starts=starts, seed=seed)
        monkeypatch.undo()
        assert got == want
        assert len(keys) == len(set(keys)), "a period model was built twice for the same other periods"
        memo_builds += len(keys)
        reference_builds += builds
    assert memo_builds < reference_builds


def test_row_value_reproduces_the_solution_exactly():
    rng = random.Random(35)
    for _ in range(100):
        pts, obj_atom, obj_density, inv_atom, inv_density, budget = random_lp_coefficients(rng)
        exact = lambda xs: [F(x) for x in xs]
        lp = lp_from_coefficients(
            [F(p) for p in pts], exact(obj_atom), exact(obj_density), exact(inv_atom), exact(inv_density),
            None if budget is None else F(budget),
        )
        sol = solve_coordinate(lp)
        assert row_value(sol.row, lp.tails) == (sol.objective, sol.used)
    for _ in range(30):
        m = _oracle_market(rng, RATIONAL)
        prof = _oracle_profile(rng, m)
        lp = _build(m, prof, rng.randrange(m.T))
        sol = solve_coordinate(lp)
        assert row_value(sol.row, lp.tails) == (sol.objective, sol.used)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_ascent_refines_the_partition_once(monkeypatch, mode):
    calls = []

    def counting(*args):
        calls.append(segment_refinement(*args))
        return calls[-1]

    monkeypatch.setattr(ascent, "segment_refinement", counting)
    rng = random.Random(36)
    for _ in range(8):
        m = random_market(rng, mode=mode, max_periods=4, max_atoms=3)
        calls.clear()
        coordinate_ascent(m, starts=rng.randint(0, 4), seed=rng.randrange(1000))
        assert len(calls) == 1
        assert calls[0].points == tuple(sorted({0, 1, *m.atoms})), "not the partition of the market atoms"


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_shrink_falls_back_to_zero_rows(mode):
    # the ones start serves all of the mass 2, and the cap is 2**-13 of that
    m = make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [0, 0]], inventory=F(1, 2**12), mode=mode)
    partition = segment_refinement((), m.atoms)
    zero = ((0,) * partition.npieces,) * m.T
    ones = ((1,) * partition.npieces,) * m.T
    assert evaluate_rows(m, partition, ones).inventory_used * F(1, 2**12) > m.inventory
    assert ascent._shrink_to_feasible(m, partition, ones).rows == zero
    zero_record, ones_record = coordinate_ascent(m, starts=0).starts
    assert dataclasses.replace(ones_record, label="zero") == zero_record


def test_random_starts_are_monotone_unit_and_within_the_cap():
    rng = random.Random(38)
    for _ in range(60):
        mode = rng.choice((RATIONAL, FLOAT))
        m = random_market(rng, mode=mode, max_periods=4, max_atoms=4, unbounded=False, general_lambda=rng.random() < 0.3)
        partition = segment_refinement((), m.atoms)
        seed = rng.randrange(2**32)
        drawn = ascent._random_rows(m, partition, random.Random(seed))
        # the same draws as a profile of step functions give the same values, of the same types
        want = tuple(tuple(partition.values(r)) for r in random_profile(random.Random(seed), m).steps)
        assert [(x, type(x)) for row in drawn for x in row] == [(x, type(x)) for row in want for x in row]
        rows = ascent._shrink_to_feasible(m, partition, drawn).rows
        for row in rows:
            assert len(row) == partition.npieces
            assert 0 <= row[0] and row[-1] <= 1 and all(a <= b for a, b in zip(row, row[1:]))
        assert evaluate_rows(m, partition, rows).inventory_used <= m.inventory


def test_build_neither_refines_nor_expands(monkeypatch):
    evaluate_mod, stepfn_mod = (importlib.import_module(f"dynration.{m}") for m in ("evaluate", "stepfn"))

    def refuse(*args, **kwargs):
        raise AssertionError("the build re-derived the partition or a row")

    rng = random.Random(37)
    cases = []
    for mode in (RATIONAL, FLOAT):
        for _ in range(5):
            m = _oracle_market(rng, mode)
            prof = _oracle_profile(rng, m)
            t = rng.randrange(m.T)
            cases.append((evaluate_rows(m, *_rows(m, prof, t)), t))
    for module in (ascent, evaluate_mod, stepfn_mod):
        monkeypatch.setattr(module, "segment_refinement", refuse)
    monkeypatch.setattr(Partition, "values", refuse)
    for cur, t in cases:
        build_coordinate_lp(cur, t)


def _round_trips(partition, row):
    return tuple(partition.values(StepFunction.from_values(partition, row))) == row


def test_solution_rows_round_trip(monkeypatch):
    # Force every candidate shape on partitions of atoms strictly inside
    # (0, 1): single tails from every piece (jumps closed and open at 0 and
    # at 1 among them), their budget-tight scalings, and every pair, the
    # closed+open pairs at one point included. Tail fa alone is worth 3 for
    # 2 units, tail fb worth 1 for none, and one unit is available.
    rng = random.Random(38)
    for _ in range(6):
        atoms = sorted(rng.sample([F(k, 12) for k in range(1, 12)], rng.randint(1, 3)))
        partition = Partition(atoms)
        n = partition.npieces
        for f in range(n):
            for tail, budget, level in (((1, 0), None, 1), ((1, 2), F(1), F(1, 2))):
                tails = [(0, 0)] * n
                tails[f] = tail
                sol = solve_coordinate(ascent.CoordinateLP(0, tuple(tails), budget, 0, 0))
                assert sol.row == (0,) * f + (level,) * (n - f)
                assert _round_trips(partition, sol.row)
        for fa in range(n):
            for fb in range(fa + 1, n):
                tails = [(0, 0)] * n
                tails[fa], tails[fb] = (3, 2), (1, 0)
                sol = solve_coordinate(ascent.CoordinateLP(0, tuple(tails), F(1), 0, 0))
                assert sol.row == (0,) * fa + (F(1, 2),) * (fb - fa) + (1,) * (n - fb)
                assert _round_trips(partition, sol.row)

    # and every row that runs of the ascent solve for
    seen = []

    def recording(lp):
        sol = solve_coordinate(lp)
        seen.append(sol.row)
        return sol

    monkeypatch.setattr(ascent, "solve_coordinate", recording)
    for mode in (RATIONAL, FLOAT):
        for _ in range(6):
            m = random_market(rng, mode=mode, max_atoms=3)
            seen.clear()
            coordinate_ascent(m, starts=3, seed=rng.randrange(1000))
            partition = Partition(m.atoms)
            assert seen and all(_round_trips(partition, row) for row in seen)


def test_a_pair_whose_float_mix_rounds_to_one_tail_is_skipped():
    # tail 1's usage is float noise below zero; the straddling pair's
    # alpha = 6e-16 / (1e-32 + 6e-16) rounds to 1.0, a mix that would claim
    # tail 0's 5.0 at usage 0.0 while tail 0 alone uses 1e-32, over the budget
    lp = ascent.CoordinateLP(0, ((5.0, 1e-32), (1.0, -6e-16)), 0.0, 0.0, 0.0)
    sol = solve_coordinate(lp)
    assert (sol.row, sol.objective, sol.used) == ((0, 1), 1.0, -6e-16)
    assert sol.used <= lp.budget


def _enumerated_solve(lp):
    """``solve_coordinate`` as it was before it skipped the pairs that do not
    straddle the budget: every pair is divided, then kept for 0 < alpha < 1."""
    budget = lp.budget
    feasible = lambda g: budget is None or g <= budget

    # (J, steps, G, first pieces, levels from each); only the winner becomes
    # a row.
    candidates = [(0, 0, 0, (), ())]
    for f, (j, gval) in enumerate(lp.tails):
        if feasible(gval):
            candidates.append((j, 1, gval, (f,), (1,)))
        elif budget is not None and gval > 0 and budget > 0:
            alpha = budget / gval
            candidates.append((alpha * j, 1, budget, (f,), (alpha,)))
    if budget is not None:
        for fa, (j_a, g_a) in enumerate(lp.tails):
            for fb in range(fa + 1, len(lp.tails)):
                j_b, g_b = lp.tails[fb]
                if g_a == g_b:
                    continue
                # the tail from fa dominates the tail from fb
                alpha = (budget - g_b) / (g_a - g_b)
                if not 0 < alpha < 1:
                    continue
                candidates.append((alpha * j_a + (1 - alpha) * j_b, 2, budget, (fa, fb), (alpha, 1)))

    best = None
    for cand in candidates:
        j, key = cand[0], cand[1:4]
        if best is None or j > best[0] or (j == best[0] and key < best[1:4]):
            best = cand

    j, _, gval, firsts, levels = best
    return ascent.CoordinateSolution(
        row=ascent._row(len(lp.tails), firsts, (0, *levels)),
        objective=j,
        used=gval,
        predicted_revenue=lp.base_revenue + j,
        predicted_used=lp.base_used + gval,
    )


@pytest.mark.parametrize("kind", [F, float], ids=["fraction", "float"])
def test_solver_skips_only_pairs_that_cannot_be_budget_tight(kind):
    # the solver divides only for pairs whose usages straddle the budget,
    # and in exact arithmetic only for those with a tail worth more than
    # the best zero, single or scaled candidate; it must pick the
    # enumeration's row, objective and usage, by type and repr (so by
    # .hex() in float), on random models with forced ties in revenue and
    # usage, budgets on a usage, at 0 and unbounded, and models where a
    # single within the budget is worth as much as every tail or more
    rng = random.Random(2111)
    spelled = lambda sol: [(type(x).__name__, repr(x)) for x in (*sol.row, *dataclasses.astuple(sol)[1:])]
    for _ in range(1500):
        npieces = rng.randint(1, 13)
        if rng.random() < 0.5:
            draw = lambda lo, hi: kind(rng.randint(4 * lo, 4 * hi)) / 4  # a coarse grid forces ties
        else:
            draw = lambda lo, hi: kind(lo) + (kind(hi) - kind(lo)) * kind(rng.randint(0, 10**6)) / 10**6
        tails = tuple((draw(-2, 2), draw(0, 3)) for _ in range(npieces))
        budget = rng.choice([None, kind(0), rng.choice(tails)[1], draw(0, 3), draw(0, 3)])
        fits = [f for f, (_, g) in enumerate(tails) if budget is not None and g <= budget]
        if fits and rng.random() < 0.3:
            f, top = rng.choice(fits), max(j for j, _ in tails)
            tails = tails[:f] + ((rng.choice([top, top + draw(0, 1)]), tails[f][1]),) + tails[f + 1:]
        lp = ascent.CoordinateLP(0, tails, budget, draw(-1, 1), draw(0, 1))
        assert spelled(solve_coordinate(lp)) == spelled(_enumerated_solve(lp))


def test_an_exact_solve_prices_no_pair_whose_tails_a_single_matches(monkeypatch):
    # budget 0: tails 1 and 3 fit and are worth 3, tails 0 and 2 are over
    # the budget (so not scaled either) and worth less; every pair straddles
    # the budget and none has a tail worth more than 3, so no pair is priced
    # and the solve divides nothing, where the enumeration divides for each
    # of its 6 pairs
    lp = ascent.CoordinateLP(0, ((F(1), F(2)), (F(3), F(-1)), (F(2), F(1)), (F(3), F(-2))), F(0), F(0), F(0))
    divisions = []
    for name in ("__truediv__", "__rtruediv__"):
        original = getattr(F, name)

        def counting(a, b, original=original):
            divisions.append((a, b))
            return original(a, b)

        monkeypatch.setattr(F, name, counting)
    sol = solve_coordinate(lp)
    assert divisions == []
    want = _enumerated_solve(lp)
    assert len(divisions) == 6
    assert spelled([*sol.row, sol.objective, sol.used]) == spelled([*want.row, want.objective, want.used])
    assert (sol.row, sol.objective, sol.used) == ((0, 0, 0, 1), 3, -2)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_builds_and_trials_resume_from_the_current_evaluation(monkeypatch, mode):
    # every formula-layer call of the ascent is a one-period change of the
    # evaluation of its current rows, except those that evaluate a start
    # and the winner; a build makes one, its held-out check (a float build
    # measures its tails without one), a start's shrink evaluates only the
    # rows it keeps, and the self-checks run on every start, held-out check
    # and trial
    evaluate_mod = importlib.import_module("dynration.evaluate")
    phase, calls, checked, spans = ["sweep"], [], [], []
    formula_layer, with_row, check = evaluate_mod.formula_layer, Evaluation.with_row, Evaluation.checked

    def recording(market, partition, R):
        calls.append((phase[0], False))
        return formula_layer(market, partition, R)

    def resumed(self, t, row):
        calls.append((phase[0], True))
        return with_row(self, t, row)

    def counting(self):
        checked.append(phase[0])
        return check(self)

    def within(name, fn):
        def wrapped(*args):
            phase[0] = name
            made = len(calls), len(checked)
            try:
                return fn(*args)
            finally:
                phase[0] = "sweep"
                spans.append((name, len(calls) - made[0], len(checked) - made[1]))
        return wrapped

    monkeypatch.setattr(evaluate_mod, "formula_layer", recording)
    monkeypatch.setattr(Evaluation, "with_row", resumed)
    monkeypatch.setattr(Evaluation, "checked", counting)
    monkeypatch.setattr(ascent, "_shrink_to_feasible", within("start", ascent._shrink_to_feasible))
    monkeypatch.setattr(ascent, "build_coordinate_lp", within("build", ascent.build_coordinate_lp))
    monkeypatch.setattr(ascent, "evaluate", within("winner", evaluate))
    rng = random.Random(2112)
    for _ in range(4):
        m = random_market(rng, mode=mode, min_periods=3, max_periods=4, unbounded=False, general_lambda=True)
        calls.clear()
        checked.clear()
        spans.clear()
        coordinate_ascent(m, starts=3, seed=0)
        assert {changed for name, changed in calls if name in ("start", "winner")} == {False}
        assert [name for name, _ in calls].count("winner") == 1
        assert [span for span in spans if span[0] == "start"] == [("start", 1, 1)] * 5
        builds = [span for span in spans if span[0] == "build"]
        assert builds and builds == [("build", 1, 1)] * len(builds)
        sweep = [changed for name, changed in calls if name in ("sweep", "build")]
        assert sweep and all(sweep)
        trials = [name for name, _ in calls].count("sweep")
        assert trials and checked.count("sweep") == trials


def _held_out_cases(monkeypatch):
    """``(cur, t)`` of every build of short rational ascents: random markets with general lambdas or tied deltas and atoms at
    0 and 1, and a market whose ones start shrinks to 1/8 on its 7 pieces."""
    rng = random.Random(2203)
    markets = [_oracle_market(rng, RATIONAL) for _ in range(6)]
    atoms, mass = ["1/3", "2/3"], [[1, 1], [0, "1/2"]]
    unbounded = make_market(T=2, atoms=atoms, mass=mass)
    eighth = ((F(1, 8),) * 7,) * 2
    markets.append(make_market(T=2, atoms=atoms, mass=mass, inventory=inventory_used(
        unbounded, segment_refinement((), unbounded.atoms), eighth)))
    builds = []

    def recording(cur, t):
        builds.append((cur, t))
        return build_coordinate_lp(cur, t)

    monkeypatch.setattr(ascent, "build_coordinate_lp", recording)
    for m in markets:
        coordinate_ascent(m, starts=2, seed=rng.randrange(1000))
    monkeypatch.undo()
    return builds


def test_a_perturbed_tail_fails_the_held_out_check(monkeypatch):
    # rational builds read their base off the current evaluation through
    # the tails, so a wrong tail moves the base too; raising any one tail's
    # revenue or usage by an exact nonzero amount must still fail the
    # held-out check, for every t and f, and so must raising one piece's
    # coefficient, every tail f <= p by the same amount; also where the
    # current row t starts at or steps by 1, the step nearest the check's
    # own +-2
    rng = random.Random(2204)
    builds = _held_out_cases(monkeypatch)
    seen_unit_step = False
    for cur, t in builds:
        row, npieces = cur.rows[t], cur.partition.npieces
        seen_unit_step |= 1 in {row[0], *(b - a for a, b in zip(row, row[1:]))}
        perturbations = [{f} for f in range(npieces)] + [set(range(p + 1)) for p in range(1, npieces)]
        for raised in perturbations:
            for which in (0, 1):
                error = rng.choice([F(1, 10**9), F(1, 7), F(3, 2)])

                def perturbed(cur, t):
                    _, _, tails = coordinate_tails(cur, t)
                    tails = tuple(
                        tuple(x + error if k == which and f in raised else x for k, x in enumerate(tail))
                        for f, tail in enumerate(tails)
                    )
                    rev, used = row_value(cur.rows[t], tails)
                    return cur.revenue - rev, cur.inventory_used - used, tails

                monkeypatch.setattr(ascent, "coordinate_tails", perturbed)
                with pytest.raises(ascent.AffinityError, match="tail model off"):
                    build_coordinate_lp(cur, t)
                monkeypatch.undo()
    assert seen_unit_step and len(builds) > 20


def _reference_shrink(market, partition, rows):
    """``_shrink_to_feasible`` as it was before it tested halvings on usage
    alone: every halving is evaluated in full."""
    half = F(1, 2) if market.mode == RATIONAL else 0.5
    for _ in range(12):
        ev = evaluate_rows(market, partition, rows)
        if market.unbounded or ev.inventory_used <= market.inventory:
            return rows, ev
        rows = tuple(tuple(x * half for x in row) for row in rows)
    rows = ((0,) * partition.npieces,) * market.T
    return rows, evaluate_rows(market, partition, rows)


def _spelled_evaluation(ev):
    tables = (ev.u_points, ev.r_at, ev.u_at, ev.fstar, ev.payments, ev.revenue, ev.inventory_used, ev.gap_discounts)
    return spelled([*tables, ev.rows])


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_shrink_tests_usage_alone_and_matches_the_reference(mode):
    # at every halving the usage helper is the evaluator's usage by type
    # and repr, and the shrink returns the reference's rows and evaluation,
    # the zero fallback after 12 halvings and markets without atoms included
    rng = random.Random(2205)
    markets = [random_market(rng, mode=mode, max_periods=4, max_atoms=4, general_lambda=rng.random() < 0.3)
               for _ in range(30)]
    markets += [make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [0, 0]], inventory=inv, mode=mode)
                for inv in (F(1, 2**12), 0)]
    markets += [make_market(T=2, atoms=[], mass=[[], []], inventory=inv, mode=mode) for inv in (None, 1)]
    fallbacks = 0
    for m in markets:
        partition = segment_refinement((), m.atoms)
        starts = [((1,) * partition.npieces,) * m.T]
        starts += [ascent._random_rows(m, partition, random.Random(rng.randrange(2**32))) for _ in range(3)]
        for drawn in starts:
            rows = drawn
            for _ in range(13):
                used = evaluate_rows(m, partition, rows).inventory_used
                assert spelled(inventory_used(m, partition, rows)) == spelled(used)
                rows = tuple(tuple(x * (F(1, 2) if mode == RATIONAL else 0.5) for x in row) for row in rows)
            got = ascent._shrink_to_feasible(m, partition, drawn)
            want_rows, want = _reference_shrink(m, partition, drawn)
            assert spelled(got.rows) == spelled(want_rows)
            assert _spelled_evaluation(got) == _spelled_evaluation(want)
            fallbacks += not m.unbounded and got.rows == ((0,) * partition.npieces,) * m.T != drawn
    assert fallbacks >= 2
