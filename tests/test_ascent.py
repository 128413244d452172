import random
from fractions import Fraction as F

import pytest

import dynration.ascent as ascent
from dynration import (
    AllocationProfile,
    CoordinateLP,
    StepFunction,
    build_coordinate_lp,
    coordinate_ascent,
    evaluate,
    make_market,
    normalize_staircase,
    solve_coordinate,
)
from dynration.numeric import FLOAT, RATIONAL
from dynration.stepfn import segment_refinement

from gen import MASS_POOL, random_market, random_profile, random_step


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


def test_lp_single_atom_coefficients():
    m = make_market(T=1, atoms=[1], mass=[[1]])
    lp = build_coordinate_lp(m, AllocationProfile.zero(1), 0)
    assert lp.obj_atom[lp.boundaries.index(1)] == 1
    assert lp.obj_density == (-1,)
    assert lp.budget is None


def test_lp_ration_second_period(ration_market):
    prof = AllocationProfile((StepFunction.step(1), StepFunction.zero()))
    lp = build_coordinate_lp(ration_market, prof, 1)
    assert lp.obj_atom[lp.boundaries.index(F(2, 3))] == F(2, 3)
    assert lp.inv_atom[lp.boundaries.index(F(2, 3))] == 1
    assert lp.inv_density == (0, 0)
    assert lp.budget == F(1, 2)
    sol = solve_coordinate(lp)
    assert sol.step == StepFunction.step(F(2, 3), high=F(1, 2))
    assert sol.predicted_revenue == F(7, 6)
    assert sol.predicted_used == F(3, 2)


def test_lp_zero_when_no_mass_remains():
    m = make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], [0, 0]])
    prof = AllocationProfile((StepFunction.one(), StepFunction.zero()))
    lp = build_coordinate_lp(m, prof, 1)
    assert all(x == 0 for x in lp.obj_atom)
    assert all(x == 0 for x in lp.obj_density)
    assert all(x == 0 for x in lp.inv_atom)


def _probed_lp(market, profile, t):
    """Reference coordinate model from 2m + 2 separate ``evaluate`` probes.

    Probes are the zero rule and, at every boundary, the open tail
    ``1[p < x]`` (none at the point 1) and, on atoms, the closed tail
    ``1[p <= x]``; differences of neighbouring tails give the atom and
    density coefficients.
    """
    partition = segment_refinement([r for s, r in enumerate(profile.steps) if s != t], market.atoms)
    pts = partition.points

    def probe(h):
        ev = evaluate(market, profile.with_step(t, h), partition=partition)
        return ev.revenue, ev.inventory_used

    base = probe(StepFunction.zero())
    opened = [probe(StepFunction.step(p, False)) if p < 1 else base for p in pts]
    closed = [probe(StepFunction.step(p, True)) if p in market.atoms else opened[k] for k, p in enumerate(pts)]
    widths = [b - a for a, b in zip(pts, pts[1:])]
    return {
        "boundaries": pts,
        "base": base,
        "obj_atom": [c[0] - o[0] for c, o in zip(closed, opened)],
        "inv_atom": [c[1] - o[1] for c, o in zip(closed, opened)],
        "obj_density": [(opened[s][0] - closed[s + 1][0]) / w for s, w in enumerate(widths)],
        "inv_density": [(opened[s][1] - closed[s + 1][1]) / w for s, w in enumerate(widths)],
    }


def _oracle_market(rng, mode):
    """Random market with general lambdas or tied deltas, and atoms at 0 and 1."""
    m = random_market(
        rng, max_atoms=4, general_lambda=rng.random() < 0.5, tied_delta=rng.random() < 0.3
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
    for _ in range(40):
        m = _oracle_market(rng, mode)
        prof = _oracle_profile(rng, m)
        for t in range(m.T):
            want = _probed_lp(m, prof, t)
            lp = build_coordinate_lp(m, prof, t)
            assert lp.boundaries == want["boundaries"]
            got = {
                "base": (lp.base_revenue, lp.base_used),
                "obj_atom": lp.obj_atom,
                "inv_atom": lp.inv_atom,
                "obj_density": lp.obj_density,
                "inv_density": lp.inv_density,
            }
            for name, values in got.items():
                assert all(type(x) in kinds for x in values), name
                assert [key(x) for x in values] == [key(x) for x in want[name]], (name, t)
            budget = None if m.unbounded else m.inventory - want["base"][1]
            assert lp.budget == budget


def test_build_calls_evaluate_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ascent, "evaluate", counting)
    rng = random.Random(32)
    m = _oracle_market(rng, RATIONAL)
    prof = _oracle_profile(rng, m)
    build_coordinate_lp(m, prof, m.T - 1)
    assert len(calls) == 1


def test_float_held_out_candidate_has_float_levels():
    pts_cases = [(0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.25, 0.75, 1.0)]
    for pts in pts_cases:
        cand = ascent._held_out_candidate(pts, FLOAT)
        assert not any(isinstance(x, F) for x in cand.levels)
        assert 0.5 in cand.levels and all(type(x) is float for x in cand.levels if x not in (0, 1))
    assert F(1, 2) in ascent._held_out_candidate((F(0), F(1, 2), F(1)), RATIONAL).levels


def _lp(boundaries, obj_atom, obj_density, inv_atom, budget):
    n = len(boundaries)
    return CoordinateLP(
        period=0,
        boundaries=tuple(boundaries),
        is_atom=(True,) * n,
        obj_atom=tuple(obj_atom),
        obj_density=tuple(obj_density),
        inv_atom=tuple(inv_atom),
        inv_density=(0,) * (n - 1),
        budget=budget,
        base_revenue=0,
        base_used=0,
    )


def test_solve_all_positive_takes_everything():
    lp = _lp([0, F(1, 2), 1], [F(1, 4), F(1, 2), 1], [F(1, 8), F(1, 8)], [1, 1, 1], None)
    sol = solve_coordinate(lp)
    assert sol.step == StepFunction.one()


def test_solve_all_negative_stays_closed():
    lp = _lp([0, F(1, 2), 1], [0, -1, -1], [F(-1, 8), F(-1, 8)], [1, 1, 1], None)
    sol = solve_coordinate(lp)
    assert sol.step.is_zero()
    assert sol.objective == 0


def test_solve_budget_tight_scaled_step():
    lp = _lp([0, F(2, 3), 1], [0, F(2, 3), 0], [-2, -1], [0, 1, 0], F(1, 2))
    sol = solve_coordinate(lp)
    assert sol.step == StepFunction.step(F(2, 3), high=F(1, 2))
    assert sol.used == F(1, 2)


def test_solve_two_step_when_high_atom_worth_full_service():
    # one unit of budget headroom, two weighted atoms: serve the top atom
    # for sure and ration the cheap one with the leftovers
    lp = _lp(
        [0, F(1, 2), 1],
        [0, F(1, 4), 1],
        [F(-1, 100), F(-1, 100)],
        [0, 1, 1],
        F(3, 2),
    )
    sol = solve_coordinate(lp)
    assert sol.step.num_steps == 2
    assert sol.step.eval(1) == 1
    assert sol.step.eval(F(1, 2)) == F(1, 2)
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
        part = norm.partition if hasattr(norm, "partition") else None
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
