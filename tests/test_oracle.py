import random
from fractions import Fraction as F

import pytest

from dynration import (
    BoundedInventoryUnsupported,
    InstanceTooLarge,
    OracleGrid,
    brute_force_optimal,
    coordinate_ascent,
    evaluate,
    make_market,
    non_anonymous_benchmark,
    static_monopoly,
)
from dynration.numeric import FLOAT

from gen import random_market


def test_ration_grid_contains_the_construction(ration_market):
    res = brute_force_optimal(ration_market)  # default grid includes 1/2 and 1
    assert res.revenue == F(7, 6)
    ev = evaluate(ration_market, res.profile)
    assert ev.revenue == F(7, 6)
    assert ev.inventory_used <= F(3, 2)


def test_twogen_oracle(twogen_market):
    assert brute_force_optimal(twogen_market).revenue == 1


def test_level_grid_rejects_levels_outside_unit_interval():
    for levels in (("0", "1/2", "1", "2"), ("-1/4", "0", "1")):
        with pytest.raises(ValueError, match=r"grid levels must lie in \[0, 1\]"):
            OracleGrid(levels=levels).level_values("rational")
    with pytest.raises(ValueError, match="must contain 0 and 1"):
        OracleGrid(levels=("0", "1/2")).level_values("rational")


def test_trivial_single_atom():
    m = make_market(T=1, atoms=[1], mass=[[1]], inventory=2)
    assert brute_force_optimal(m).revenue == 1
    no_buyers = make_market(T=1, atoms=[], mass=[[]], inventory=2)
    assert brute_force_optimal(no_buyers).revenue == 0


def test_posted_only_grid_on_ration(ration_market):
    res = brute_force_optimal(ration_market, OracleGrid(levels=("0", "1")))
    assert res.revenue == 1  # prices alone cannot beat one


def test_oracle_at_least_ascent_on_fixtures(ration_market, twogen_market):
    for m in (ration_market, twogen_market):
        oracle = brute_force_optimal(m)
        solver = coordinate_ascent(m, starts=4, seed=0)
        assert oracle.revenue >= solver.revenue


def test_posted_only_never_beats_anonymous_optimum():
    rng = random.Random(41)
    for _ in range(10):
        m = random_market(rng, max_atoms=2)
        posted = brute_force_optimal(m, OracleGrid(levels=("0", "1")))
        solver = coordinate_ascent(m, starts=8, seed=rng.randrange(10**6))
        assert posted.revenue <= solver.revenue


def test_static_monopoly_examples():
    assert static_monopoly([(1, 1)]) == (1, 1)
    pairs = [(F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (1, F(1, 3))]
    assert static_monopoly(pairs) == (F(2, 3), F(4, 9))
    assert static_monopoly([(F(1, 2), 1), (1, 1)]) == (F(1, 2), 1)


def test_static_monopoly_price_is_an_atom():
    rng = random.Random(42)
    for _ in range(20):
        pairs = [(F(rng.randint(1, 12), 12), F(rng.randint(0, 4), 4)) for _ in range(3)]
        price, _ = static_monopoly(pairs)
        assert price in {v for v, _ in pairs}


def test_non_anonymous_benchmark(twogen_market, ration_market):
    assert non_anonymous_benchmark(twogen_market) == F(3, 2)
    single = make_market(T=1, atoms=["1/2", 1], mass=[[1, 1]])
    assert non_anonymous_benchmark(single) == static_monopoly([(F(1, 2), 1), (1, 1)])[1]
    with pytest.raises(BoundedInventoryUnsupported):
        non_anonymous_benchmark(ration_market)


def test_benchmark_dominates_anonymous_optimum_unbounded():
    # full discrimination can only help; money discounts stay flat here
    rng = random.Random(43)
    for _ in range(12):
        m = random_market(rng, unbounded=True)
        bench = non_anonymous_benchmark(m)
        solver = coordinate_ascent(m, starts=6, seed=rng.randrange(10**6))
        assert bench >= solver.revenue


def test_instance_caps():
    m = make_market(T=2, atoms=["1/4", "1/2", "3/4", 1], mass=[[1, 1, 1, 1]] * 2)
    with pytest.raises(InstanceTooLarge):
        brute_force_optimal(m)
    small_cap = OracleGrid(max_candidates=10)
    with pytest.raises(InstanceTooLarge):
        brute_force_optimal(make_market(T=1, atoms=[1], mass=[[1]]), small_cap)


def test_oracle_deterministic(ration_market):
    a = brute_force_optimal(ration_market)
    b = brute_force_optimal(ration_market)
    assert a.profile == b.profile
    assert a.revenue == b.revenue


def test_float_mode_matches_rational(ration_market):
    from dynration import ex_ration

    got = brute_force_optimal(ex_ration(mode=FLOAT))
    assert abs(got.revenue - 7 / 6) < 1e-9
