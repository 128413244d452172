"""Coordinate ascent over monotone allocation profiles.

Revenue and inventory usage are affine in each period's allocation rule
when the other periods are held fixed, so every per-period subproblem is a
small exact program: maximize an affine functional of a monotone function
``h: [0, 1] -> [0, 1]`` under one affine inventory constraint. Its optimum
is a step function with at most two jumps, and with exactly two it reaches
one at the top; the solver searches that candidate family, skipping only
candidates that cannot win (:func:`solve_coordinate`).

A run holds every rule as a row of piece values on one partition:
:func:`coordinate_ascent` refines it once, from the market atoms alone.
Its starts are drawn and shrunk as rows on it, and the solver's rules jump
only on its points. Step functions come back only in the returned report.

A monotone row is a nonnegative combination of tails, the rows that are one
on the pieces ``>= f``, so the affine model of a period is the values of
its tails, indexed by ``f``. How a build finds them depends on the market's
mode:

* float: all tails are measured in a single batched
  :func:`dynration.evaluate.formula_layer` call, the period's rule carried
  as one matrix with a row per piece and a column per tail, so every value
  is the evaluator's own float, to the last bit;
* rational: one pass of :func:`dynration.evaluate.coordinate_tails` over
  the tables of the current rows' evaluation gives every tail's exact
  revenue and usage, the sum of the per-piece coefficients from its piece
  up, and the base is that evaluation less the model's value of the
  current row t. Exact arithmetic makes this equal to the probes' values,
  in any order of the operations.

Only the float probe batch, :func:`_probed_tails` and :func:`_tail_probes`,
uses numpy, and each imports it when called: importing this module and
running a rational ascent leave numpy unloaded.

The solver's candidates are single tails and mixtures of two. Each build
re-verifies affinity on a held-out row through the full evaluator, so a
disagreement surfaces as an error instead of a silent drift.

Period t's model reads only the other periods' rows, so
:func:`coordinate_ascent` memoizes its solution keyed by ``t`` and those
rows. Revisits are common: every period of a converging sweep, and starts
that meet at the same profile. Each distinct model is still checked for
affinity, and every trial update still runs the full evaluator and the
prediction check.

The ascent's state is one evaluation, ``cur``, of its current rows; the
memo key, the improvement test and every build read it, and nothing is
passed beside it. Every evaluation of a sweep is a one-period change of
it, ``cur.with_row(t, row)`` (:class:`dynration.evaluate.Evaluation`), bit
for bit a fresh evaluation: a float build's probe batch, a build's
held-out check, and a trial. The check and the trial run the evaluator's
self-checks (``checked()``), and an accepted trial becomes ``cur``. A
rational build evaluates nothing but its held-out check. A start's shrink
tests each halving on its usage alone and evaluates only the rows it
keeps; that evaluation and the winner's are fresh. No run's state is
kept beyond its call. One small module cache (16 entries) outlives it:
:func:`_tail_probes`, the read-only float probe matrix of a piece count.
It is a pure function of its argument, so a cached value is the one a
fresh call would return, whichever run asked first.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .evaluate import (
    AllocationProfile,
    Evaluation,
    coordinate_tails,
    effective_discounts,
    evaluate,
    evaluate_rows,
    inventory_used,
    row_value,
)
from .market import Market
from .numeric import RATIONAL, default_tol
from .stepfn import Partition, StepFunction, segment_refinement


class AffinityError(AssertionError):
    """The evaluator disagreed with the affine model; an implementation bug."""


@dataclass
class CoordinateLP:
    """Affine model of revenue and inventory in one period's allocation.

    ``tails[f]`` is the (revenue, inventory) change, over the zeroed
    coordinate, of the rule that is one on the pieces ``>= f``: the closed
    tail ``1[p_k <= x]`` at point k is ``tails[2k]``, the open tail
    ``1[p_k < x]`` is ``tails[2k + 1]`` (at the point 1 it is the zero rule
    and has no entry). Float builds take the tails from probes of the
    formula layer, rational builds from exact per-piece coefficients; both
    give the same values. A row is its first value times ``tails[0]`` plus
    each step up times the tail starting there. ``budget`` is the inventory
    headroom ``I - base_used`` (None when supply is unbounded); it already
    contains the coordinate's own current usage.
    """

    period: int
    tails: tuple
    budget: object
    base_revenue: object
    base_used: object


@dataclass
class CoordinateSolution:
    row: tuple                 # piece values of the maximizer
    objective: object          # revenue delta over the zeroed coordinate
    used: object               # inventory delta over the zeroed coordinate
    predicted_revenue: object
    predicted_used: object


@dataclass
class StartRecord:
    label: object
    revenue: object
    sweeps: int
    converged: bool


@dataclass
class SolveReport:
    profile: AllocationProfile
    revenue: object
    inventory_used: object
    sweeps: int
    starts: list
    binding: bool
    converged: bool
    seed: int
    tol: object
    rejected_negative_payments: int = 0


def build_coordinate_lp(cur: Evaluation, t: int) -> CoordinateLP:
    """Measure the tails of period ``t``: probed in float mode, summed in rational mode.

    ``cur`` is the scalar evaluation of the current rows; the model reads
    its rows outside period ``t``, and every evaluation of the build is a
    one-period change of it. A rational build reads its whole model from
    ``cur``'s tables. Jumps of optimal candidates may sit on the partition
    points only (the functionals are affine in a jump's position between
    points), so ``cur``'s partition must hold the market atoms.
    """
    market = cur.market
    if market.mode == RATIONAL:
        base_rev, base_used, tails = coordinate_tails(cur, t)
    else:
        base_rev, base_used, tails = _probed_tails(cur, t)
    lp = CoordinateLP(
        period=t,
        tails=tails,
        budget=None if market.unbounded else market.inventory - base_used,
        base_revenue=base_rev,
        base_used=base_used,
    )
    _assert_affine(lp, cur)
    return lp


def _probed_tails(cur: Evaluation, t: int):
    """Base and tails from one batched change of ``cur``'s period ``t`` to the tail probes."""
    import numpy as np

    npieces = cur.partition.npieces
    batch = cur.with_row(t, _tail_probes(npieces))
    # tolist() hands back Python scalars, so no numpy scalar reaches the
    # model; without atoms the sums stay scalars and are repeated.
    revenue, used = (
        x.tolist() if isinstance(x, np.ndarray) else [x] * (npieces + 1) for x in (batch.revenue, batch.inventory_used)
    )
    base_rev, base_used = revenue[npieces], used[npieces]
    return base_rev, base_used, tuple((revenue[f] - base_rev, used[f] - base_used) for f in range(npieces))


@functools.lru_cache(maxsize=16)
def _tail_probes(npieces: int):
    """The tail probes on ``npieces`` pieces, as one read-only float matrix.

    Pieces are on axis 0: column f is one on the pieces >= f, and column
    ``npieces`` is the zero rule. A run's builds share one matrix.
    """
    import numpy as np

    probes = np.array([[1 if p >= f else 0 for f in range(npieces + 1)] for p in range(npieces)], dtype=float)
    probes.flags.writeable = False
    return probes


def _assert_affine(lp: CoordinateLP, cur: Evaluation):
    """Check the model against the full evaluator on a held-out row.

    The held-out row h is (2, 4, 2, 4, ...), no monotone row, and the
    model's value there is :func:`dynration.evaluate.row_value`'s. A
    rational model is anchored on ``cur``: its base is ``cur``'s value less
    the model's value of ``cur``'s row t, r. So the check compares the
    model's value of h - r with the evaluator's difference between h and r.
    The values and steps of r lie in [0, 1], so h - r weighs every tail by
    |+-2 - step| >= 1 and every piece's coefficient by h_p - r_p >= 1: the
    check sees an error in any one tail or any one piece, whatever r is.
    """
    t, mode = lp.period, cur.market.mode
    check = tuple(4 if p % 2 else 2 for p in range(cur.partition.npieces))
    ev = cur.with_row(t, check).checked()
    want_rev, want_used = ev.revenue, ev.inventory_used
    j, g = row_value(check, lp.tails)
    got_rev, got_used = lp.base_revenue + j, lp.base_used + g
    scale = max(1, abs(want_rev), abs(want_used))
    tol = 0 if mode == RATIONAL else 1e-8 * scale
    if not (abs(got_rev - want_rev) <= tol and abs(got_used - want_used) <= tol):
        raise AffinityError(f"period {t}: tail model off by {got_rev - want_rev} / {got_used - want_used}")


def solve_coordinate(lp: CoordinateLP) -> CoordinateSolution:
    """Exact maximizer of the affine model over monotone rows.

    Candidates: the zero row; level-one single tails; budget-tight scalings
    of those; and budget-tight convex pairs of two single tails (the
    two-jump family, including the closed/open pair at one shared point).
    Ties break toward fewer steps, then less inventory, then tails starting
    on lower pieces: lower points first, closed before open.

    A budget-tight pair mixes a tail over the budget with one under it, so
    the pairs priced are those whose usages straddle the budget. A pair is
    worth ``alpha j_a + (1 - alpha) j_b`` with 0 < alpha < 1, at most its
    better tail, and on a tie it loses to the zero row or a single by its
    key. So with a ``Fraction`` budget, a pair whose two tails are each
    worth no more than the best zero, single or scaled candidate cannot win
    and is skipped, and the straddling pairs need no test of alpha. Float
    prices every straddling pair and tests alpha: a rounded mix can exceed
    both its tails by an ulp, and a rounded alpha can reach 0 or 1.
    """
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
        # With a Fraction budget, worth[f] says whether tail f beats the best
        # candidate so far; a pair of two tails that do not is skipped, and a
        # zero usage or revenue of a tail takes no arithmetic.
        exact = isinstance(budget, Fraction)
        bar = max(c[0] for c in candidates) if exact else None
        worth = [not exact or j > bar for j, _ in lp.tails]
        over, under = [], []
        for f, (_, g) in enumerate(lp.tails):
            if g > budget:
                over.append(f)
            elif g < budget:
                under.append(f)
        for side, others in ((over, under), (under, over)):
            worthy = [f for f in others if worth[f]]
            for fa in side:
                pool = others if worth[fa] else worthy
                j_a, g_a = lp.tails[fa]
                for fb in pool[bisect_right(pool, fa):]:
                    j_b, g_b = lp.tails[fb]
                    # the tail from fa dominates the tail from fb
                    alpha = budget / g_a if exact and not g_b else (budget - g_b) / (g_a - g_b)
                    if not exact and not 0 < alpha < 1:
                        continue
                    if exact and not j_b:
                        j = alpha * j_a
                    elif exact and not j_a:
                        j = (1 - alpha) * j_b
                    else:
                        j = alpha * j_a + (1 - alpha) * j_b
                    candidates.append((j, 2, budget, (fa, fb), (alpha, 1)))

    best = None
    for cand in candidates:
        j, key = cand[0], cand[1:4]
        if best is None or j > best[0] or (j == best[0] and key < best[1:4]):
            best = cand

    j, _, gval, firsts, levels = best
    return CoordinateSolution(
        row=_row(len(lp.tails), firsts, (0, *levels)),
        objective=j,
        used=gval,
        predicted_revenue=lp.base_revenue + j,
        predicted_used=lp.base_used + gval,
    )


def _random_rows(market: Market, partition: Partition, rng: random.Random) -> tuple:
    """Monotone step rows with jumps on the atoms: a jump at atom ``a``
    starts on its point piece if closed and on the gap above it if open."""
    grid = [Fraction(k, 4) for k in range(5)] if market.mode == RATIONAL else [k / 4 for k in range(5)]
    rows = []
    for _ in range(market.T):
        njumps = min(rng.choice((0, 1, 1, 2)), len(market.atoms))
        locs = sorted(rng.sample(list(market.atoms), njumps))
        levels = sorted(rng.choice(grid) for _ in range(njumps + 1))
        firsts = [partition.piece_of_point(at) + (rng.random() >= 0.5) for at in locs]
        rows.append(_row(partition.npieces, firsts, levels))
    return tuple(rows)


def _row(npieces: int, firsts, levels) -> tuple:
    """The row that is ``levels[0]`` below piece ``firsts[0]`` and ``levels[i]``
    from piece ``firsts[i - 1]`` up to ``firsts[i]``; ``firsts`` increases."""
    return tuple(levels[bisect_right(firsts, p)] for p in range(npieces))


def _shrink_to_feasible(market: Market, partition: Partition, rows: tuple) -> Evaluation:
    """Halve every value until the inventory cap is met; zero rows after 12 halvings.

    Each halving is tested on its usage alone, which
    :func:`dynration.evaluate.inventory_used` gives bit for bit as the
    evaluator does; only the rows kept are evaluated, with every
    self-check, and their evaluation is returned.
    """
    half = Fraction(1, 2) if market.mode == RATIONAL else 0.5
    for _ in range(12):
        if market.unbounded or inventory_used(market, partition, rows) <= market.inventory:
            break
        rows = tuple(tuple(x * half for x in row) for row in rows)
    else:
        rows = ((0,) * partition.npieces,) * market.T
    return evaluate_rows(market, partition, rows)


def coordinate_ascent(
    market: Market,
    *,
    starts: int = 16,
    max_sweeps: int = 40,
    tol=None,
    seed: int = 0,
) -> SolveReport:
    """Best profile over multistart coordinate ascent.

    Each restart sweeps the periods in order, replacing a coordinate only
    when the exact subproblem improves revenue by more than ``tol``; a full
    sweep with no accepted update is a fixed point. Restarts are the
    all-zero and all-one profiles plus ``starts`` random monotone
    initializations; everything is deterministic given ``seed``.
    """
    if tol is None:
        tol = default_tol(market.mode)
    rng = random.Random(seed)
    partition = segment_refinement((), market.atoms)
    npieces = partition.npieces
    initials = [("zero", ((0,) * npieces,) * market.T), ("ones", ((1,) * npieces,) * market.T)]
    for _ in range(starts):
        sub_seed = rng.randrange(2**32)
        initials.append((sub_seed, _random_rows(market, partition, random.Random(sub_seed))))

    best = None  # (evaluation, record)
    records = []
    rejected_negative = 0
    # (t, rows before t, rows after t) -> solution of period t's model
    solved = {}
    for label, drawn in initials:
        # cur, the evaluation of the current rows, is the start's whole state
        cur = _shrink_to_feasible(market, partition, drawn)
        converged = False
        sweeps = 0
        for _ in range(max_sweeps):
            sweeps += 1
            improved = False
            for t in range(market.T):
                key = (t, cur.rows[:t], cur.rows[t + 1:])
                sol = solved.get(key)
                if sol is None:
                    sol = solved[key] = solve_coordinate(build_coordinate_lp(cur, t))
                if sol.predicted_revenue <= cur.revenue + tol:
                    continue
                ev = cur.with_row(t, sol.row).checked()
                _require_prediction(ev.revenue, sol.predicted_revenue, market.mode)
                if ev.negative_payments:
                    rejected_negative += 1
                    continue
                cur = ev
                improved = True
            if not improved:
                converged = True
                break
        records.append(StartRecord(label, cur.revenue, sweeps, converged))
        if best is None or cur.revenue > best[0].revenue:
            best = (cur, records[-1])

    cur, best_record = best
    rows = cur.rows
    if market.mode != RATIONAL:
        # the solver keeps whole levels as ints; a float profile holds floats
        rows = tuple(tuple(float(x) for x in row) for row in rows)
    profile = AllocationProfile(tuple(StepFunction.from_values(partition, row) for row in rows))
    final = evaluate(market, profile)
    # tol guards float rounding only: a rational run binds when it exhausts the inventory exactly
    slack = 0 if market.mode == RATIONAL else tol
    binding = (not market.unbounded) and abs(final.inventory_used - market.inventory) <= slack
    return SolveReport(
        profile=profile,
        revenue=final.revenue,
        inventory_used=final.inventory_used,
        sweeps=best_record.sweeps,
        starts=records,
        binding=binding,
        converged=all(r.converged for r in records),
        seed=seed,
        tol=tol,
        rejected_negative_payments=rejected_negative,
    )


def _require_prediction(actual, predicted, mode):
    tol = 0 if mode == RATIONAL else 1e-8 * max(1.0, abs(actual))
    if not abs(actual - predicted) <= tol:
        raise AffinityError(f"accepted update mispredicted revenue: {predicted} vs {actual}")


def normalize_staircase(market: Market, profile: AllocationProfile, *, tol=None) -> AllocationProfile:
    """Raise allocations to one on the tied-discount indifference region.

    Within a maximal run of periods sharing one delta value, the region
    where the utility slope equals delta marks buyers who are served for
    sure inside the run; assigning them immediately keeps every buyer's
    surplus, the welfare, and the revenue unchanged while making the rules
    pointwise larger. The slope is taken from the pointwise recursion
    ``g_t = delta_t r_t + (1 - r_t) g_{t+1}``, which agrees with the
    derivative of U_t almost everywhere and is well defined on the atoms
    (:func:`dynration.evaluate.effective_discounts`).

    Later runs are processed first since their modifications feed the
    earlier periods' slopes.
    """
    if tol is None:
        tol = 0 if market.mode == RATIONAL else 1e-9
    delta = market.discounts.delta
    steps = list(profile.steps)

    blocks = []
    start = 0
    for t in range(1, market.T + 1):
        if t == market.T or delta[t] != delta[start]:
            blocks.append(range(start, t))
            start = t
    for block in reversed(blocks):
        if len(block) == 1:
            continue  # a single tied period is already served at the corner
        partition = segment_refinement(steps)
        npieces = partition.npieces
        values = [partition.values(r) for r in steps]
        tails = {}
        for t, g in effective_discounts(delta, values):
            if t in block:
                cut = npieces
                while cut > 0 and abs(g[cut - 1] - delta[t]) <= tol:
                    cut -= 1
                tails[t] = cut
            if t == block.start:
                break
        for t, cut in tails.items():
            if cut == npieces:
                continue
            new_vals = [values[t][p] if p < cut else 1 for p in range(npieces)]
            steps[t] = StepFunction.from_values(partition, new_vals)
    return AllocationProfile(tuple(steps))
