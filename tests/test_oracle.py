import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from dynration import (
    AllocationProfile,
    OracleGrid,
    Partition,
    StepFunction,
    brute_force_optimal,
    cli,
    coordinate_ascent,
    evaluate,
    make_market,
    non_anonymous_benchmark,
    oracle,
    serialize_market,
)
from dynration.evaluate import evaluate_rows, formula_layer
from dynration.market import MarketError
from dynration.numeric import FLOAT, RATIONAL
from dynration.oracle import BoundedInventoryUnsupported, InstanceTooLarge, grid_candidates, static_monopoly

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
    with pytest.raises(ValueError, match="need at least one atom"):
        static_monopoly([])


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
    # a buyer who pays p gives up lambdaB * p of value: the price is (1/2) / (1/2)
    assert non_anonymous_benchmark(make_market(T=1, atoms=["1/2"], mass=[[1]], lambda_b=["1/2"])) == 1
    with pytest.raises(BoundedInventoryUnsupported):
        non_anonymous_benchmark(ration_market)
    # an inventory of the total arrival mass never binds; one just below it may
    covered = make_market(T=1, atoms=["1/2", 1], mass=[[1, 1]], inventory=2)
    assert non_anonymous_benchmark(covered) == non_anonymous_benchmark(single)
    with pytest.raises(BoundedInventoryUnsupported):
        non_anonymous_benchmark(make_market(T=1, atoms=["1/2", 1], mass=[[1, 1]], inventory=2 - F(1, 10**12)))


def test_single_period_unbounded_solver_equals_benchmark():
    # one period with unbounded supply is one monopoly problem
    rng = random.Random(45)
    for _ in range(30):
        m = random_market(rng, max_periods=1, unbounded=True, general_lambda=True)
        assert coordinate_ascent(m, starts=2, seed=0).revenue == non_anonymous_benchmark(m), m


def test_benchmark_dominates_anonymous_optimum_unbounded():
    # per-cohort monopoly pricing on arrival bounds the anonymous optimum
    # while the seller's weight kappa = lambdaS / lambdaB never rises over
    # time: a cohort's later payments then count no more than on arrival
    for general_lambda, seed in ((False, 43), (True, 46)):
        rng = random.Random(seed)
        checked = 0
        while checked < 12:
            m = random_market(rng, unbounded=True, general_lambda=general_lambda)
            d = m.discounts
            kappa = [d.lambda_s[t] / d.lambda_b[t] for t in range(m.T)]
            if any(b > a for a, b in zip(kappa, kappa[1:])):
                continue
            checked += 1
            bench = non_anonymous_benchmark(m)
            solver = coordinate_ascent(m, starts=6, seed=rng.randrange(10**6))
            assert bench >= solver.revenue, m


@pytest.mark.xfail(strict=True, reason="the benchmark sells each cohort on arrival, not when a sale pays most")
def test_benchmark_dominates_when_later_sales_pay_more():
    # a lambdaB of 1/2 doubles the price the cohort accepts at t = 2: an
    # anonymous menu that sells there earns 2, selling on arrival earns 1
    m = make_market(T=2, atoms=[1], mass=[[1], [0]], lambda_b=[1, "1/2"])
    assert non_anonymous_benchmark(m) >= brute_force_optimal(m).revenue


@pytest.mark.parametrize("inventory", [None, 1e308], ids=["unbounded", "bounded"])
def test_oracle_searches_huge_masses_scaled(inventory):
    # a rational market beyond the float range by its masses alone is
    # searched on a copy whose masses and inventory are divided by the
    # smallest power of two 2^k that brings it in range; its oracle is then
    # exactly 2^k times the oracle of the market so divided, with the same
    # profile, and a market in range is copied as it is (k = 0)
    atoms, mass = ["1/2", 1], [[1e308, 1e308], [1e308, 1e308]]

    def divided(k, mode=RATIONAL):
        return make_market(T=2, atoms=atoms, mass=[[F(x) / 2**k for x in row] for row in mass],
                           inventory=None if inventory is None else F(inventory) / 2**k, delta=[1, 1], mode=mode)

    def in_range(k):
        try:
            divided(k, FLOAT)
        except MarketError:
            return False
        return True

    k = next(k for k in range(2000) if in_range(k))
    assert k > 0
    got, want = brute_force_optimal(divided(0)), brute_force_optimal(divided(k))
    assert type(got.revenue) is F and got.revenue > 0
    assert got.revenue == 2**k * want.revenue
    assert got.profile == want.profile
    assert oracle._search_market(divided(0)) == divided(k, FLOAT) == oracle._search_market(divided(k))


def test_instance_caps(monkeypatch):
    m = make_market(T=2, atoms=["1/4", "1/2", "3/4", 1], mass=[[1, 1, 1, 1]] * 2)
    with pytest.raises(InstanceTooLarge, match="^4 atoms beyond oracle cap 3$"):
        brute_force_optimal(m)
    with pytest.raises(InstanceTooLarge, match="^T=4 beyond oracle cap 3$"):
        brute_force_optimal(make_market(T=4, atoms=[1], mass=[[1]] * 4))
    monkeypatch.setattr(oracle, "_MAX_CANDIDATES", 10)
    with pytest.raises(InstanceTooLarge, match="^15 profiles beyond oracle cap 10$"):
        brute_force_optimal(make_market(T=1, atoms=[1], mass=[[1]]))


def test_oversized_grid_is_refused_before_it_is_built(monkeypatch, tmp_path, capsys):
    # 41 levels on three atoms give C(47, 7) candidates, gigabytes if built
    def refuse(*args):
        raise AssertionError("candidates built before the size check")

    monkeypatch.setattr(oracle, "_period_candidates", refuse)
    m = make_market(T=1, atoms=["1/4", "1/2", "3/4"], mass=[[1, 1, 1]])
    levels = [f"{k}/40" for k in range(41)]
    with pytest.raises(InstanceTooLarge, match="^62891499 profiles beyond oracle cap 4000000$"):
        grid_candidates(m, OracleGrid(levels=tuple(levels)))
    path = tmp_path / "m.json"
    path.write_text(serialize_market(m))
    assert cli.main(["oracle", str(path), "--out", str(tmp_path), "--levels", ",".join(levels)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 62891499 profiles beyond oracle cap 4000000\n"
    assert not captured.out


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
def test_counted_grid_size_is_the_built_one(monkeypatch, mode):
    # the cap reads K from its closed form; it must be the full grid's
    for m in [*_kernel_markets(mode), *_edge_markets(mode)]:
        for L in (2, 3, 4, 5):
            grid = OracleGrid(levels=tuple(f"{k}/{L - 1}" for k in range(L)))
            total = len(_full_grid(m, grid)) ** m.T
            monkeypatch.setattr(oracle, "_MAX_CANDIDATES", total - 1)
            with pytest.raises(InstanceTooLarge, match=f"^{total} profiles beyond oracle cap {total - 1}$"):
                grid_candidates(m, grid)
            monkeypatch.setattr(oracle, "_MAX_CANDIDATES", total)
            assert grid_candidates(m, grid)[1] == total


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
def test_built_candidates_are_the_first_of_each_class(monkeypatch, mode):
    # a class is the full grid's candidates with the same values at the
    # atom points; only its first member, the one with every gap at the
    # level of the point below it, is built, in order, next to the full
    # grid's K^T
    monkeypatch.setattr(oracle, "_MAX_CANDIDATES", float("inf"))
    for m in [*_kernel_markets(mode), *_edge_markets(mode)]:
        pieces = [Partition(m.atoms).piece_of_point(a) for a in m.atoms]
        for L in (2, 3, 4, 5):
            grid = OracleGrid(levels=tuple(f"{k}/{L - 1}" for k in range(L)))
            levels = grid.level_values(m.mode)
            full = _full_grid(m, grid)
            lowered = [row for row in full if _gaps_at_the_level_below(m, levels, row)]
            first = {}
            for row in full:
                first.setdefault(tuple(row[k] for k in pieces), row)
            assert list(first.values()) == lowered
            assert len(lowered) == math.comb(L + m.num_atoms - 1, m.num_atoms)
            assert grid_candidates(m, grid) == (lowered, len(full) ** m.T), (m, L)


def test_caps_admit_at_most_53361_scored_profiles():
    # the caps bound the full grid; the one batch the search scores holds
    # the lowered candidates' profiles, at most 231^2 (T = 2, atoms at 0
    # and 1, 21 levels). The scored count grows with L, so the largest L
    # the caps admit is found by bisection on each market's shape
    def admitted(m, L):
        try:
            candidates, _ = grid_candidates(m, OracleGrid(levels=tuple(f"{k}/{L - 1}" for k in range(L))))
        except InstanceTooLarge:
            return None
        return len(candidates) ** m.T

    worst = {}
    for T in range(1, oracle._MAX_PERIODS + 1):
        for n in range(1, oracle._MAX_ATOMS + 1):
            inner = [F(k, 8) for k in range(1, n + 1)]
            for ends in ((), (0,), (1,), (0, 1)):
                if len(ends) > n:
                    continue
                atoms = sorted({*ends, *inner[: n - len(ends)]})
                m = make_market(T=T, atoms=atoms, mass=[[1] * n] * T)
                lo, hi = 2, 4
                while admitted(m, hi) is not None:
                    lo, hi = hi, 2 * hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if admitted(m, mid) is not None else (lo, mid)
                worst[T, n, tuple(ends)] = (admitted(m, lo), lo)
        # a market without atoms builds the zero row alone, at any L
        assert admitted(make_market(T=T, atoms=[], mass=[[]] * T), 40) == 1
    assert max(worst.values()) == (53361, 21) == worst[2, 2, (0, 1)], worst


def test_oracle_deterministic(ration_market):
    a = brute_force_optimal(ration_market)
    b = brute_force_optimal(ration_market)
    assert a.profile == b.profile
    assert a.revenue == b.revenue


def test_float_mode_matches_rational(ration_market):
    from dynration import ex_ration

    got = brute_force_optimal(ex_ration(mode=FLOAT))
    assert abs(got.revenue - 7 / 6) < 1e-9


def _flat_search(market, candidates, gather=1 << 15):
    """Reference search: every profile's float revenue and usage, flat.

    The flat ids are taken ``gather`` at a time, and each batch gathers
    period t's column of every profile, ``columns[:, (ids // K**(T-1-t)) % K]``,
    so the recursion runs once per profile and period, with no sharing
    between profiles.
    """
    K, T = len(candidates), market.T
    total = K**T
    columns = np.array([[float(x) for x in row] for row in candidates]).T
    strides = [K ** (T - 1 - t) for t in range(T)]
    revenue, used = [], []
    for lo in range(0, total, gather):
        ids = np.arange(lo, min(lo + gather, total))
        R = [columns[:, (ids // s) % K] for s in strides]
        batch = formula_layer(market, Partition(market.atoms), R)
        revenue.append(np.broadcast_to(batch.revenue, ids.shape))
        used.append(np.broadcast_to(batch.inventory_used, ids.shape))
    return np.concatenate(revenue), np.concatenate(used)


def _rows(market, candidates, flat):
    K = len(candidates)
    return [candidates[(flat // K ** (market.T - 1 - t)) % K] for t in range(market.T)]


def _profile(market, candidates, flat):
    part = Partition(market.atoms)
    return AllocationProfile(tuple(StepFunction.from_values(part, row) for row in _rows(market, candidates, flat)))


def _kernel_markets(mode=FLOAT):
    """Small markets: T = 1..3, n = 0..3, both supplies, zero-mass periods."""
    rng = random.Random(77)
    for T in (1, 2, 3):
        yield make_market(T=T, atoms=[], mass=[[]] * T, inventory=1, mode=mode)
        for n in (1, 2, 3):
            for opts in ({}, {"general_lambda": True}, {"tied_delta": True}, {"unbounded": True}):
                m = random_market(rng, mode=mode, min_periods=T, max_periods=T, max_atoms=n, **opts)
                yield m
            # period T // 2 brings no buyers
            mass = [list(row) for row in m.mass]
            mass[T // 2] = [0] * m.num_atoms
            d = m.discounts
            yield make_market(T, m.atoms, mass, m.inventory, d.delta, d.lambda_s, d.lambda_b, mode=mode)


def _float_copy(market):
    d = market.discounts
    return make_market(
        market.T, market.atoms, market.mass, market.inventory, d.delta, d.lambda_s, d.lambda_b, mode=FLOAT
    )


def _full_candidates(market, levels):
    """Reference: all per-period piece-value vectors of the full grid, canonically ordered.

    A candidate assigns a non-decreasing level to every open gap and, at
    each atom boundary, any grid level between the neighboring gap levels
    (that freedom is the closed/open flag choice, including the distinct
    point value realized by a closed+open pair). Non-atom boundaries carry
    no mass, so their value is pinned to a neighbor.
    """
    pts = Partition(market.atoms).points
    atoms = set(market.atoms)
    ngaps = len(pts) - 1
    out = []
    for gaps in itertools.combinations_with_replacement(levels, ngaps):
        choice_sets = []
        for k, p in enumerate(pts):
            lo = gaps[k - 1] if k > 0 else None
            hi = gaps[k] if k < ngaps else None
            if p in atoms:
                lo = lo if lo is not None else levels[0]
                hi = hi if hi is not None else levels[-1]
                choice_sets.append([x for x in levels if lo <= x <= hi])
            else:
                choice_sets.append([hi if hi is not None else lo])
        for point_vals in itertools.product(*choice_sets):
            pieces = []
            for k in range(len(pts)):
                pieces.append(point_vals[k])
                if k < ngaps:
                    pieces.append(gaps[k])
            out.append(pieces)
    return out


def _full_grid(market, grid):
    return _full_candidates(market, grid.level_values(market.mode))


def _gaps_at_the_level_below(market, levels, row):
    """Whether every gap of ``row`` is at the level of the point below it,
    and every piece below the first atom at the lowest level."""
    first = Partition(market.atoms).piece_of_point(market.atoms[0]) if market.atoms else len(row)
    return set(row[:first]) <= {levels[0]} and all(row[k] == row[k - 1] for k in range(1, len(row), 2))


def _lowered(market, levels, row):
    """``row`` with every gap and atomless point at the level of the atom
    point below it, or at the lowest level below the first atom."""
    atoms, level, out = set(market.atoms), levels[0], list(row)
    for k, p in enumerate(Partition(market.atoms).points):
        level = row[2 * k] if p in atoms else level
        out[2 * k : 2 * k + 2] = [level] * len(out[2 * k : 2 * k + 2])
    return out


def _small_grid(market):
    levels = ("0", "1/2", "1") if market.T * market.num_atoms > 4 else ("0", "1/3", "2/3", "1")
    return OracleGrid(levels=levels)


@pytest.mark.parametrize("gather", [1 << 15, 3, 7, 200])
def test_broadcast_kernel_matches_flat_gather(gather):
    # the one batch, each period on its own axis, scores every profile as
    # a gather of its own rows does, with any number of profiles per
    # gather: a profile's floats do not depend on what shares its batch
    seen = set()
    for m in _kernel_markets():
        candidates = _full_grid(m, _small_grid(m))
        if gather < 1 << 15 and len(candidates) ** m.T > 1300:
            continue
        seen.add((m.T, m.num_atoms))
        want = _flat_search(m, candidates, gather)
        got = oracle._grid_scores(m, candidates)
        assert not np.shares_memory(*got)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.dtype == np.float64 or not m.num_atoms
            assert g.flags.writeable and g.flags.c_contiguous
            assert np.array_equal(g, w), (m, gather)
    assert {(T, n) for T in (1, 2, 3) for n in (0, 1)} <= seen


@pytest.mark.parametrize("gather", [1 << 15, 5, 64])
def test_ties_return_the_first_profile_in_canonical_order(gather):
    # the point value at a massless atom changes nothing, so ties are many;
    # the first maximizer is the same however many profiles the reference
    # gathers at once, and it is the oracle's result
    for inventory in (None, 1):
        m = make_market(
            T=2, atoms=["1/3", "2/3", 1], mass=[[1, 0, 1], [0, 0, 1]], inventory=inventory, mode=FLOAT
        )
        grid = OracleGrid(levels=("0", "1/2", "1"))
        candidates = _full_grid(m, grid)
        revenue, used = _flat_search(m, candidates, gather)
        if inventory is not None:
            revenue = np.where(used <= inventory + 1e-9, revenue, -np.inf)
        first = int(np.argmax(revenue))
        assert np.count_nonzero(revenue == revenue[first]) > 1
        res = brute_force_optimal(m, grid)
        assert res.profile == _profile(m, candidates, first)
        assert res.revenue == revenue[first]


def _edge_markets(mode):
    """Top atom 1, an atom at 0, and no atoms."""
    yield make_market(T=2, atoms=["1/3", 1], mass=[[1, "1/2"], ["1/4", 1]], inventory="3/4", mode=mode)
    yield make_market(T=3, atoms=["1/2", 1], mass=[["1/2", "1/4"]] * 3, delta=[1, "5/6", "2/3"], mode=mode)
    yield make_market(T=2, atoms=[0, "1/2", 1], mass=[[1, "1/2", "1/4"], ["1/4", 1, 0]], inventory=1, mode=mode)
    yield make_market(T=2, atoms=[0, "2/3"], mass=[[1, "1/2"], [0, 1]], delta=[1, "3/4"], mode=mode)
    yield make_market(T=1, atoms=[0], mass=[[1]], inventory="1/2", mode=mode)
    yield make_market(T=2, atoms=[], mass=[[], []], mode=mode)


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
def test_oracle_matches_the_full_grid(mode):
    # scoring the lowered candidates returns the full grid's first feasible
    # maximizer: every profile of the full grid scores no more than its
    # lowered version and uses the same inventory, exactly in rational mode
    for m in [*_kernel_markets(mode), *_edge_markets(mode)]:
        grid = _small_grid(m)
        levels = grid.level_values(m.mode)
        candidates = _full_grid(m, grid)
        K, T = len(candidates), m.T
        total = K**T
        if mode == RATIONAL and total > 1300:
            continue
        built, _ = grid_candidates(m, grid)
        low_of = np.array([built.index(_lowered(m, levels, row)) for row in candidates])
        ids = np.arange(total)
        low_ids = sum(low_of[(ids // K ** (T - 1 - t)) % K] * len(built) ** (T - 1 - t) for t in range(T))
        if mode == FLOAT:
            revenue, used = _flat_search(m, candidates)
            low_revenue, low_used = _flat_search(m, built)
            assert np.all(revenue <= low_revenue[low_ids] + 1e-12 * np.maximum(1, np.abs(revenue))), m
            assert np.array_equal(used, low_used[low_ids]), m
            if m.inventory is not None:
                revenue = np.where(used <= m.inventory + 1e-9, revenue, -np.inf)
            want = _profile(m, candidates, int(np.argmax(revenue)))
            want_revenue = evaluate(m, want).revenue
        else:
            # the exact maximum over every profile of the full grid
            part, best = Partition(m.atoms), None
            low = [formula_layer(m, part, _rows(m, built, flat)) for flat in range(len(built) ** T)]
            for flat in range(total):
                ev = formula_layer(m, part, _rows(m, candidates, flat))
                ev_low = low[low_ids[flat]]
                assert ev.revenue <= ev_low.revenue and ev.inventory_used == ev_low.inventory_used, m
                if (m.unbounded or ev.inventory_used <= m.inventory) and (best is None or ev.revenue > best[0]):
                    best = (ev.revenue, flat)
            want_revenue, want = best[0], _profile(m, candidates, best[1])
        res = brute_force_optimal(m, grid)
        assert (res.revenue, res.profile, res.candidates) == (want_revenue, want, total), m


def _exact_pool(monkeypatch, market, grid=None):
    """The rows of the profiles that a rational search re-evaluates exactly, and its result."""
    pool = []

    def recording(m, part, rows):
        assert m is market and part.points == Partition(market.atoms).points
        pool.append([list(row) for row in rows])
        return evaluate_rows(m, part, rows)

    monkeypatch.setattr(oracle, "evaluate_rows", recording)
    monkeypatch.setattr(oracle, "evaluate", lambda *args: pytest.fail("the exact pass evaluates rows only"))
    return pool, brute_force_optimal(market, grid)


def _scored(monkeypatch):
    """The candidate lists that searches score, one per scoring of a grid."""
    scored, grid_scores = [], oracle._grid_scores
    monkeypatch.setattr(oracle, "_grid_scores", lambda m, c: scored.append(c) or grid_scores(m, c))
    return scored


def _near_ties(market, candidates, size=512):
    """Flat ids of the first ``size`` feasible profiles within 1e-9 of the
    float best, with every feasible profile's float revenue."""
    search = _float_copy(market)
    revenue, used = _flat_search(search, candidates)
    if not market.unbounded:
        revenue = np.where(used <= search.inventory + 1e-9, revenue, -np.inf)
    return np.flatnonzero(revenue >= revenue.max() - 1e-9)[:size], revenue


def test_near_tie_pool_is_every_candidate_near_the_final_best(monkeypatch):
    # a later profile's float score beats earlier ones by less than 1e-9;
    # the earlier near-ties stay in the pool, and the first exact optimum wins
    m = make_market(
        T=3,
        atoms=["7/12", "2/3"],
        mass=[["3/4", 1], ["3/4", 0], [1, "1/4"]],
        delta=["11/12", "11/12", "2/3"],
    )
    # the pool holds the first 512 lowered profiles near the best
    built, _ = grid_candidates(m, OracleGrid())
    ids, revenue = _near_ties(m, built)
    assert revenue[ids[0]] < revenue.max()
    scored = _scored(monkeypatch)
    pool, res = _exact_pool(monkeypatch, m)
    assert pool == [_rows(m, built, int(i)) for i in ids] and len(scored) == 1
    assert res.revenue == F(175, 96)
    sell = StepFunction.step(F(7, 12))
    assert res.profile == AllocationProfile((StepFunction.zero(), sell, sell))


def test_a_full_pool_keeps_the_first_near_ties(monkeypatch):
    # with a pool of 2 or 3, the search keeps the first _POOL lowered
    # profiles within 1e-9 of the float best and returns the first exact
    # maximizer among them. Period 0 brings no buyers, so its rule is
    # irrelevant and every profile ties with K - 1 others exactly; period
    # 1's masses lie far below 1e-9, so its rules make distinct float
    # near-ties, more than _POOL of them, and a later one outscores some
    # pooled ones: the pool keeps order, not the highest scores
    rng = random.Random(2302)
    grid = OracleGrid(levels=("0", "1/2", "1"))
    later_higher = 0
    for _ in range(10):
        size = rng.choice((2, 3))
        monkeypatch.setattr(oracle, "_POOL", size)
        eps = F(1, 10 ** rng.randint(10, 12))
        atoms = sorted(rng.sample([F(k, 4) for k in range(1, 5)], 2))
        mass = [[0, 0], [eps * rng.randint(1, 3) for _ in atoms], [F(rng.randint(1, 4), 4) for _ in atoms]]
        m = make_market(T=3, atoms=atoms, mass=mass, inventory=rng.choice([None, sum(map(sum, mass)) / 2]))
        built, _ = grid_candidates(m, grid)
        all_ids, revenue = _near_ties(m, built, size=None)
        want_ids = all_ids[:size]
        assert len(all_ids) > size
        later_higher += revenue[all_ids[size:]].max() > revenue[want_ids].min()
        want_pool = [_rows(m, built, int(i)) for i in want_ids]
        want = None
        for i in want_ids:
            profile = _profile(m, built, int(i))
            ev = evaluate(m, profile)
            if (m.unbounded or ev.inventory_used <= m.inventory) and (want is None or ev.revenue > want[0]):
                want = (ev.revenue, profile)
        pool, res = _exact_pool(monkeypatch, m, grid)
        assert pool == want_pool and (res.revenue, res.profile) == want
    assert later_higher >= 3


@pytest.mark.parametrize("atoms, mass, retried", [
    (["1/2", 1], [[1, "1/2"], [0, "1/4"]], True),
    (["1/2", 1], [["1/2", 1], [0, F(1, 10**11)]], False),
    # the massless atom at 3/4 makes exact ties, so a pool beyond the
    # inventory can hold more than one profile
    (["1/2", "3/4", 1], [[1, 0, "1/2"], [0, 0, "1/4"]], True),
], ids=["every-near-tie-beyond", "a-near-tie-within", "tied-near-ties-beyond"])
def test_a_pooled_profile_beyond_the_exact_inventory_is_skipped(monkeypatch, atoms, mass, retried):
    # the inventory lies 1e-12 below the exact usage of the unbounded
    # optimum, so the float search, within its 1e-9, keeps that profile as
    # its best; the exact pass skips it. A near-tie that serves a mass of
    # 1e-11 less is within the inventory; with none such, the search masks
    # the pooled profiles in its one scored grid and pools again. Either
    # way the result is the exact first maximizer of the grid within the
    # inventory
    grid = OracleGrid(levels=("0", "1/2", "1"))
    unbounded = make_market(T=2, atoms=atoms, mass=mass)
    free = brute_force_optimal(unbounded, grid)
    m = make_market(T=2, atoms=atoms, mass=mass, inventory=evaluate(unbounded, free.profile).inventory_used - F(1, 10**12))
    evaluated = []
    scored = _scored(monkeypatch)
    monkeypatch.setattr(oracle, "evaluate_rows", lambda *args: evaluated.append(args[2]) or evaluate_rows(*args))
    res = brute_force_optimal(m, grid)
    built, _ = grid_candidates(m, grid)
    ids, _ = _near_ties(m, built)
    pool = [_rows(m, built, int(i)) for i in ids]
    assert evaluated[: len(pool)] == pool and (len(evaluated) > len(pool)) == retried
    # the retry masks the pooled profiles in the one scored grid
    assert len(scored) == 1 and len({repr(rows) for rows in evaluated}) == len(evaluated)
    part = Partition(m.atoms)
    within = [evaluate_rows(m, part, rows).inventory_used <= m.inventory for rows in pool]
    free_rows = [part.values(f) for f in free.profile]
    assert free_rows in pool and not within[pool.index(free_rows)]
    assert any(within) != retried
    want = None
    for flat in range(len(built) ** m.T):
        ev = evaluate(m, _profile(m, built, flat))
        if ev.inventory_used <= m.inventory and (want is None or ev.revenue > want[0]):
            want = (ev.revenue, _profile(m, built, flat))
    assert (res.revenue, res.profile) == want and want[0] < free.revenue


def test_a_search_that_finds_no_feasible_profile_fails_its_cross_check(monkeypatch, ration_market):
    # the zero profile uses nothing, so a search whose scores put every
    # profile beyond the inventory has a fault of its own and says so
    grid_scores = oracle._grid_scores

    def beyond(market, candidates):
        revenue, used = grid_scores(market, candidates)
        return revenue, used + market.inventory + 1

    monkeypatch.setattr(oracle, "_grid_scores", beyond)
    with pytest.raises(AssertionError, match="no feasible profile; the zero profile is always feasible"):
        brute_force_optimal(ration_market)


def test_a_rational_search_builds_step_functions_for_its_result_only(monkeypatch):
    # every pooled profile is evaluated as rows; only the result becomes
    # step functions, T of them, also when the search pools again without
    # its exactly infeasible near-ties. The grid is scored once either way
    built = []
    from_values = StepFunction.from_values
    monkeypatch.setattr(
        StepFunction, "from_values", classmethod(lambda cls, part, values: built.append(values) or from_values(part, values))
    )
    scored = _scored(monkeypatch)
    three = OracleGrid(levels=("0", "1/2", "1"))
    cases = [
        (make_market(T=3, atoms=["7/12", "2/3"], mass=[["3/4", 1], ["3/4", 0], [1, "1/4"]],
                     delta=["11/12", "11/12", "2/3"]), None, False),
        (make_market(T=2, atoms=["1/2", 1], mass=[[1, "1/2"], [0, "1/4"]], inventory=F(7, 4) - F(1, 10**12)),
         three, True),
        *((m, three, False) for m in _edge_markets(RATIONAL)),
    ]
    for m, grid, retried in cases:
        del built[:], scored[:]
        pool, res = _exact_pool(monkeypatch, m, grid)
        first, _ = _near_ties(m, grid_candidates(m, grid or OracleGrid())[0])
        assert len(pool) >= len(first) and (len(pool) > len(first)) == retried and len(scored) == 1, m
        part = Partition(m.atoms)
        assert built == [part.values(f) for f in res.profile] and len(built) == m.T, m


def test_float_all_ties_stay_small():
    m = make_market(T=3, atoms=["1/4", "1/2"], mass=[[0, 0]] * 3, inventory=1, mode=FLOAT)
    tracemalloc.start()
    try:
        res = brute_force_optimal(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.candidates == 126**3
    assert res.revenue == 0
    assert res.profile == AllocationProfile.zero(3)
    assert peak < 32 * 2**20


def test_rational_all_ties_keep_a_bounded_pool(monkeypatch):
    # every candidate ties; the near-tie pool holds only the first 512
    m = make_market(T=3, atoms=["1/4", "1/2"], mass=[[0, 0]] * 3, inventory=1)
    tracemalloc.start()
    try:
        pool, res = _exact_pool(monkeypatch, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.candidates == 126**3
    assert res.revenue == 0
    assert res.profile == AllocationProfile.zero(3)
    assert peak < 32 * 2**20
    built, _ = grid_candidates(m, OracleGrid())
    ids, _ = _near_ties(m, built)
    assert len(ids) == 512
    assert pool == [_rows(m, built, int(i)) for i in ids]


@pytest.mark.parametrize("inventory", [None, 2])
def test_scores_repeat_across_searches(inventory):
    # the search writes into the arrays that the scoring hands it, and the
    # sums add in place; neither may reach a later search or the result
    m = make_market(
        T=3, atoms=["1/3", "2/3"], mass=[[1, 1], [1, "1/2"], ["1/2", 1]], inventory=inventory,
        delta=[1, "5/6", "2/3"], mode=FLOAT,
    )
    grid = OracleGrid(levels=("0", "1/3", "2/3", "1"))
    candidates, _ = grid_candidates(m, grid)
    want = None
    for _ in range(3):
        got = [x.tobytes() for x in oracle._grid_scores(m, candidates)]
        res = brute_force_optimal(m, grid)
        got += [res.revenue.hex(), res.profile]
        want = want or got
        assert got == want


@pytest.mark.parametrize("T, atoms, L", [(2, [0, 1], 21), (3, [0, "1/2", 1], 5)], ids=["T2-L21", "T3-L5"])
def test_the_float_search_peaks_within_3_mb_on_the_largest_admitted_grids(T, atoms, L):
    # the caps' two largest batches (test_caps_admit_at_most_53361_scored_profiles):
    # one batch of every scored profile peaks at 2.2 and 2.5 MB traced
    m = make_market(T=T, atoms=atoms, mass=[[1, "1/2", "1/4"][: len(atoms)]] * T, inventory=1, mode=FLOAT)
    grid = OracleGrid(levels=tuple(f"{k}/{L - 1}" for k in range(L)))
    brute_force_optimal(m, grid)  # first-call caches are not the search's
    tracemalloc.start()
    try:
        res = brute_force_optimal(m, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.candidates > oracle._MAX_CANDIDATES // 2
    assert peak <= 3 * 2**20, peak / 2**20
