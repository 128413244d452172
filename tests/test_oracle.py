import heapq
import itertools
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
    # only representatives are built: each class's first member of the
    # full grid, in order, next to the full grid's K^T
    monkeypatch.setattr(oracle, "_MAX_CANDIDATES", float("inf"))
    for m in [*_kernel_markets(mode), *_edge_markets(mode)]:
        for L in (2, 3, 4, 5):
            grid = OracleGrid(levels=tuple(f"{k}/{L - 1}" for k in range(L)))
            full = _full_grid(m, grid)
            reps, _ = _representatives(m, full)
            assert grid_candidates(m, grid) == (reps, len(full) ** m.T), (m, L)


def test_caps_keep_later_periods_within_one_chunk():
    # _scored_chunks slices period 0 only, so periods 1..T-1 of the largest
    # grid the caps admit must fit in one chunk
    for T in range(1, oracle._MAX_PERIODS + 1):
        K = round(oracle._MAX_CANDIDATES ** (1 / T))
        while K**T > oracle._MAX_CANDIDATES:
            K -= 1
        while (K + 1) ** T <= oracle._MAX_CANDIDATES:
            K += 1
        assert K ** (T - 1) <= oracle._CHUNK, (T, K)


def test_oracle_deterministic(ration_market):
    a = brute_force_optimal(ration_market)
    b = brute_force_optimal(ration_market)
    assert a.profile == b.profile
    assert a.revenue == b.revenue


def test_float_mode_matches_rational(ration_market):
    from dynration import ex_ration

    got = brute_force_optimal(ex_ration(mode=FLOAT))
    assert abs(got.revenue - 7 / 6) < 1e-9


def _flat_search(market, candidates):
    """Reference search: every profile's float revenue and usage, flat.

    Each chunk of flat ids gathers period t's column of every profile,
    ``columns[:, (ids // K**(T-1-t)) % K]``, so the recursion runs once per
    profile and period, with no sharing between profiles.
    """
    K, T = len(candidates), market.T
    total = K**T
    columns = np.array([[float(x) for x in row] for row in candidates]).T
    strides = [K ** (T - 1 - t) for t in range(T)]
    revenue, used = [], []
    for lo in range(0, total, 1 << 15):
        ids = np.arange(lo, min(lo + (1 << 15), total))
        R = [columns[:, (ids // s) % K] for s in strides]
        batch = formula_layer(market, Partition(market.atoms), R)
        revenue.append(np.broadcast_to(batch.revenue, ids.shape))
        used.append(np.broadcast_to(batch.inventory_used, ids.shape))
    return np.concatenate(revenue), np.concatenate(used)


def _kernel_search(market, candidates):
    revenue, used, nxt = [], [], 0
    for first, rev, use in oracle._scored_chunks(market, candidates):
        assert first == nxt and rev.shape == use.shape
        nxt += len(rev)
        revenue.append(rev)
        used.append(use)
    assert nxt == len(candidates) ** market.T
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


def _representatives(market, candidates):
    """``(reps, rep_of)``: each class's first candidate, and each candidate's class.

    A class is the candidates that agree on every piece up to and including
    the top atom's point; ``rep_of[k]`` indexes candidate k's class in ``reps``.
    """
    cut = 0
    if market.atoms:
        cut = 2 * sum(p <= max(market.atoms) for p in Partition(market.atoms).points) - 1
    index, reps = {}, []
    for row in candidates:
        key = tuple(row[:cut])
        if key not in index:
            index[key] = len(reps)
            reps.append(row)
    return reps, [index[tuple(row[:cut])] for row in candidates]


def _small_grid(market):
    levels = ("0", "1/2", "1") if market.T * market.num_atoms > 4 else ("0", "1/3", "2/3", "1")
    return OracleGrid(levels=levels)


@pytest.mark.parametrize("chunk", [1 << 15, 3, 7, 200])
def test_broadcast_kernel_matches_flat_gather(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    seen = set()
    for m in _kernel_markets():
        candidates = _full_grid(m, _small_grid(m))
        if chunk < 1 << 15 and len(candidates) ** m.T > 1300:
            continue
        seen.add((m.T, m.num_atoms))
        want = _flat_search(m, candidates)
        got = _kernel_search(m, candidates)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.dtype == np.float64 or not m.num_atoms
            assert np.array_equal(g, w), (m, chunk)
    assert {(T, n) for T in (1, 2, 3) for n in (0, 1)} <= seen


@pytest.mark.parametrize("chunk", [1 << 15, 5, 64])
def test_ties_return_the_first_profile_in_canonical_order(monkeypatch, chunk):
    # the point value at a massless atom changes nothing, so ties are many
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for inventory in (None, 1):
        m = make_market(
            T=2, atoms=["1/3", "2/3", 1], mass=[[1, 0, 1], [0, 0, 1]], inventory=inventory, mode=FLOAT
        )
        grid = OracleGrid(levels=("0", "1/2", "1"))
        candidates = _full_grid(m, grid)
        revenue, used = _flat_search(m, candidates)
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
def test_oracle_matches_the_full_grid(monkeypatch, mode):
    # scoring one candidate per class returns the full grid's first
    # feasible maximizer, and every profile scores as its representatives do
    for m in [*_kernel_markets(mode), *_edge_markets(mode)]:
        grid = _small_grid(m)
        candidates = _full_grid(m, grid)
        K, T = len(candidates), m.T
        total = K**T
        if mode == RATIONAL and total > 1300:
            continue
        search = _float_copy(m)
        revenue, used = _flat_search(search, candidates)

        reps, rep_of = _representatives(m, candidates)
        rep_revenue, rep_used = _flat_search(search, reps)
        ids = np.arange(total)
        rep_ids = sum(np.array(rep_of)[(ids // K ** (T - 1 - t)) % K] * len(reps) ** (T - 1 - t) for t in range(T))
        assert np.array_equal(revenue, rep_revenue[rep_ids]), m
        assert np.array_equal(used, rep_used[rep_ids]), m

        if mode == FLOAT:
            if m.inventory is not None:
                revenue = np.where(used <= m.inventory + 1e-9, revenue, -np.inf)
            want = _profile(m, candidates, int(np.argmax(revenue)))
            want_revenue = evaluate(m, want).revenue
        else:
            # the exact maximum over every profile of the full grid
            part, best = Partition(m.atoms), None
            for flat in range(total):
                ev = formula_layer(m, part, [candidates[(flat // K ** (T - 1 - t)) % K] for t in range(T)])
                if (m.unbounded or ev.inventory_used <= m.inventory) and (best is None or ev.revenue > best[0]):
                    best = (ev.revenue, flat)
            want_revenue, want = best[0], _profile(m, candidates, best[1])
        for chunk in (1 << 15, 7, 200):
            if chunk < 1 << 15 and total > 1300:
                continue
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            res = brute_force_optimal(m, grid)
            assert (res.revenue, res.profile, res.candidates) == (want_revenue, want, total), (m, chunk)


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


def test_near_tie_pool_does_not_depend_on_chunk_boundaries(monkeypatch):
    rng = random.Random(5)
    markets = [
        # float near-ties of one exact optimum, spread over many chunks
        make_market(T=2, atoms=["1/12", "5/12"], mass=[["1/2", "1/4"], ["1/2", "3/4"]]),
        make_market(T=3, atoms=["5/6"], mass=[["3/4"]] * 3, delta=["5/6"] * 3),
        make_market(
            T=2, atoms=["7/12", "2/3"], mass=[["1/2", "1/2"], ["1/4", 1]], inventory="9/16", delta=["11/12"] * 2
        ),
    ]
    markets += [random_market(rng, max_periods=3, max_atoms=2, general_lambda=k % 2 == 1) for k in range(4)]
    grid = OracleGrid(levels=("0", "1/3", "2/3", "1"))
    for m in markets:
        K = len(_full_grid(m, grid))
        runs = []
        for chunk in (1 << 15, K ** (m.T - 1), K - 1, 3 * K + 1):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            runs.append(_exact_pool(monkeypatch, m, grid))
        pool, res = runs[0]
        assert pool
        for other_pool, other in runs[1:]:
            assert other_pool == pool
            assert (other.revenue, other.profile, other.candidates) == (
                res.revenue, res.profile, res.candidates
            )


def test_near_tie_pool_is_every_candidate_near_the_final_best(monkeypatch):
    # a later chunk's best beats an earlier one by less than 1e-9; the
    # earlier near-ties stay in the pool, and the first exact optimum wins
    m = make_market(
        T=3,
        atoms=["7/12", "2/3"],
        mass=[["3/4", 1], ["3/4", 0], [1, "1/4"]],
        delta=["11/12", "11/12", "2/3"],
    )
    # the pool holds the first 512 representative profiles near the best
    reps, _ = _representatives(m, _full_grid(m, OracleGrid()))
    revenue, _ = _flat_search(_float_copy(m), reps)
    ids = np.flatnonzero(revenue >= revenue.max() - 1e-9)[:512]
    pool, res = _exact_pool(monkeypatch, m)
    assert pool == [_rows(m, reps, int(i)) for i in ids]
    assert res.revenue == F(175, 96)
    sell = StepFunction.step(F(7, 12))
    assert res.profile == AllocationProfile((StepFunction.zero(), sell, sell))


def test_a_full_pool_keeps_the_first_near_ties(monkeypatch):
    # with a pool of 2 or 3, the search keeps the first _POOL representative
    # profiles within 1e-9 of the float best and returns the first exact
    # maximizer among them. Period 0 brings no buyers, so its rule is
    # irrelevant and every profile ties with K - 1 others exactly; period
    # 1's masses lie far below 1e-9, so its rules make distinct float
    # near-ties, and a later, higher one replaces the lowest kept one
    rng = random.Random(2302)
    replaced = []
    heapreplace = heapq.heapreplace
    monkeypatch.setattr(heapq, "heapreplace", lambda heap, x: (replaced.append(x), heapreplace(heap, x))[1])
    monkeypatch.setattr(oracle, "_CHUNK", 8)
    grid = OracleGrid(levels=("0", "1/2", "1"))
    markets_replacing = 0
    for _ in range(10):
        size = rng.choice((2, 3))
        monkeypatch.setattr(oracle, "_POOL", size)
        eps = F(1, 10 ** rng.randint(10, 12))
        atoms = sorted(rng.sample([F(k, 4) for k in range(1, 5)], 2))
        mass = [[0, 0], [eps * rng.randint(1, 3) for _ in atoms], [F(rng.randint(1, 4), 4) for _ in atoms]]
        m = make_market(T=3, atoms=atoms, mass=mass, inventory=rng.choice([None, sum(map(sum, mass)) / 2]))
        reps, _ = _representatives(m, _full_grid(m, grid))
        search = _float_copy(m)
        revenue, used = _flat_search(search, reps)
        if not m.unbounded:
            revenue = np.where(used <= search.inventory + 1e-9, revenue, -np.inf)
        want_ids = np.flatnonzero(revenue >= revenue.max() - 1e-9)[:size]
        want_pool = [_rows(m, reps, int(i)) for i in want_ids]
        want = None
        for i in want_ids:
            profile = _profile(m, reps, int(i))
            ev = evaluate(m, profile)
            if (m.unbounded or ev.inventory_used <= m.inventory) and (want is None or ev.revenue > want[0]):
                want = (ev.revenue, profile)
        before = len(replaced)
        pool, res = _exact_pool(monkeypatch, m, grid)
        assert pool == want_pool and (res.revenue, res.profile) == want
        markets_replacing += len(replaced) > before
    assert markets_replacing >= 3


@pytest.mark.parametrize("mass, retried", [
    ([[1, "1/2"], [0, "1/4"]], True),
    ([["1/2", 1], [0, F(1, 10**11)]], False),
], ids=["every-near-tie-beyond", "a-near-tie-within"])
def test_a_pooled_profile_beyond_the_exact_inventory_is_skipped(monkeypatch, mass, retried):
    # the inventory lies 1e-12 below the exact usage of the unbounded
    # optimum, so the float search, within its 1e-9, keeps that profile as
    # its best; the exact pass skips it. A near-tie that serves a mass of
    # 1e-11 less is within the inventory; with none such, the search runs
    # again without the pooled profiles. Either way the result is the exact
    # first maximizer of the grid within the inventory
    atoms, grid = ["1/2", 1], OracleGrid(levels=("0", "1/2", "1"))
    unbounded = make_market(T=2, atoms=atoms, mass=mass)
    free = brute_force_optimal(unbounded, grid)
    m = make_market(T=2, atoms=atoms, mass=mass, inventory=evaluate(unbounded, free.profile).inventory_used - F(1, 10**12))
    evaluated, searches = [], []  # searches[k]: rows evaluated before search k
    scored_chunks = oracle._scored_chunks
    monkeypatch.setattr(oracle, "_scored_chunks", lambda *args: searches.append(len(evaluated)) or scored_chunks(*args))
    monkeypatch.setattr(oracle, "evaluate_rows", lambda *args: evaluated.append(args[2]) or evaluate_rows(*args))
    res = brute_force_optimal(m, grid)
    pool = evaluated[:searches[1]] if retried else evaluated
    part = Partition(m.atoms)
    within = [evaluate_rows(m, part, rows).inventory_used <= m.inventory for rows in pool]
    free_rows = [part.values(f) for f in free.profile]
    assert free_rows in pool and not within[pool.index(free_rows)]
    assert any(within) != retried and (len(searches) > 1) == retried
    reps, _ = _representatives(m, _full_grid(m, grid))
    want = None
    for flat in range(len(reps) ** m.T):
        ev = evaluate(m, _profile(m, reps, flat))
        if ev.inventory_used <= m.inventory and (want is None or ev.revenue > want[0]):
            want = (ev.revenue, _profile(m, reps, flat))
    assert (res.revenue, res.profile) == want and want[0] < free.revenue


def test_a_search_that_finds_no_feasible_profile_fails_its_cross_check(monkeypatch, ration_market):
    # the zero profile uses nothing, so a search whose chunks report every
    # profile beyond the inventory has a fault of its own and says so
    scored_chunks = oracle._scored_chunks

    def beyond(market, candidates):
        for first, revenue, used in scored_chunks(market, candidates):
            yield first, revenue, used + market.inventory + 1

    monkeypatch.setattr(oracle, "_scored_chunks", beyond)
    with pytest.raises(AssertionError, match="no feasible profile; the zero profile is always feasible"):
        brute_force_optimal(ration_market)


def test_a_rational_search_builds_step_functions_for_its_result_only(monkeypatch):
    # every pooled profile is evaluated as rows; only the result becomes
    # step functions, T of them, also when the search runs again without
    # its exactly infeasible near-ties
    built, searches = [], []
    from_values = StepFunction.from_values
    monkeypatch.setattr(
        StepFunction, "from_values", classmethod(lambda cls, part, values: built.append(values) or from_values(part, values))
    )
    scored_chunks = oracle._scored_chunks
    monkeypatch.setattr(oracle, "_scored_chunks", lambda *args: searches.append(1) or scored_chunks(*args))
    three = OracleGrid(levels=("0", "1/2", "1"))
    cases = [
        (make_market(T=3, atoms=["7/12", "2/3"], mass=[["3/4", 1], ["3/4", 0], [1, "1/4"]],
                     delta=["11/12", "11/12", "2/3"]), None, 35, 1),
        (make_market(T=2, atoms=["1/2", 1], mass=[[1, "1/2"], [0, "1/4"]], inventory=F(7, 4) - F(1, 10**12)),
         three, 2, 3),
        *((m, three, 1, 1) for m in _edge_markets(RATIONAL)),
    ]
    for m, grid, min_pool, runs in cases:
        del built[:], searches[:]
        pool, res = _exact_pool(monkeypatch, m, grid)
        assert len(pool) >= min_pool and len(searches) == runs, m
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
    reps, _ = _representatives(m, _full_grid(m, OracleGrid()))
    revenue, used = _flat_search(_float_copy(m), reps)
    ids = np.flatnonzero((revenue >= revenue.max() - 1e-9) & (used <= 1 + 1e-9))[:512]
    assert pool == [_rows(m, reps, int(i)) for i in ids]
