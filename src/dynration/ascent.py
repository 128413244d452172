"""Coordinate ascent over monotone allocation profiles.

Revenue and inventory usage are affine in each period's allocation rule
when the other periods are held fixed, so every per-period subproblem is a
small exact program: maximize an affine functional of a monotone function
``h: [0, 1] -> [0, 1]`` under one affine inventory constraint. Its optimum
is a step function with at most two jumps, and with exactly two it reaches
one at the top; the solver enumerates that candidate family exhaustively.

A run holds every rule as a row of piece values on one partition:
:func:`coordinate_ascent` refines it once, from the start rules and the
market atoms, and the solver's rules jump only on its points. Step
functions come back only in the returned report.

A monotone row is a nonnegative combination of tails, the rows that are one
on the pieces ``>= f``, so the affine model of a period is the values of
its tails, indexed by ``f``. All tails of one build are measured in a
single batched :func:`dynration.evaluate.formula_layer` call, the period's
rule carried as one numpy column per piece. The solver's candidates are
single tails and mixtures of two. Each build re-verifies affinity on a
held-out row through the full evaluator, so a disagreement surfaces as an
error instead of a silent drift.

Period t's model reads only the other periods' rows, so
:func:`coordinate_ascent` memoizes its solution keyed by ``t`` and those
rows. Revisits are common: every period of a converging sweep, and starts
that meet at the same profile. Each distinct model is still checked for
affinity, and every trial update still runs the full evaluator and the
prediction check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evaluate import AllocationProfile, effective_discounts, evaluate, evaluate_rows, formula_layer
from .market import Market
from .numeric import RATIONAL, default_tol
from .stepfn import Jump, Partition, StepFunction, segment_refinement


class AffinityError(AssertionError):
    """A probe disagreed with the affine reconstruction; evaluator bug."""


@dataclass
class CoordinateLP:
    """Affine model of revenue and inventory in one period's allocation.

    ``tails[f]`` is the (revenue, inventory) change, over the zeroed
    coordinate, of the rule that is one on the pieces ``>= f``: the closed
    tail ``1[p_k <= x]`` at point k is ``tails[2k]``, the open tail
    ``1[p_k < x]`` is ``tails[2k + 1]`` (at the point 1 it is the zero rule
    and has no entry). A row is its first value times ``tails[0]`` plus each
    step up times the tail starting there. ``budget`` is the inventory
    headroom ``I - base_used`` (None when supply is unbounded); it already
    contains the coordinate's own current usage.
    """

    period: int
    tails: tuple
    budget: object
    base_revenue: object
    base_used: object

    def value_of(self, row):
        """(revenue delta, inventory delta) of a row of piece values."""
        j, g = (row[0] * x for x in self.tails[0])
        for f in range(1, len(row)):
            if row[f] != row[f - 1]:
                tj, tg = self.tails[f]
                j += (row[f] - row[f - 1]) * tj
                g += (row[f] - row[f - 1]) * tg
        return j, g


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


def build_coordinate_lp(market: Market, partition: Partition, rows, t: int) -> CoordinateLP:
    """Measure the tails of period ``t`` in the formula layer.

    ``rows[s]`` is period s's rule on ``partition``; row ``t`` is ignored.
    Jumps of optimal candidates may sit on the partition points only (the
    functionals are affine in a jump's position between points), so the
    partition must hold the market atoms.
    """
    npieces = partition.npieces
    atoms = set(market.atoms)
    is_atom = [p in atoms for p in partition.points]

    # Probe j is one on the pieces >= first[j]: the zero rule, then every
    # tail except a closed one off the atoms. That point piece has no mass,
    # so its tail equals the open tail that follows it.
    first = [npieces] + [f for f in range(npieces) if f % 2 or is_atom[f // 2]]

    dtype = object if market.mode == RATIONAL else float
    R = list(rows)
    R[t] = [np.array([1 if p >= f else 0 for f in first], dtype=dtype) for p in range(npieces)]
    batch = formula_layer(market, partition, R)
    # tolist() hands back Python scalars, so no numpy scalar reaches the
    # model; without atoms the sums stay scalars and are broadcast.
    revenue, used = (np.broadcast_to(x, (len(first),)).tolist() for x in (batch.revenue, batch.inventory_used))
    probed = dict(zip(first, zip(revenue, used)))
    base_rev, base_used = probed[npieces]

    def change(f):
        rev, used = probed[f] if f in probed else probed[f + 1]
        return rev - base_rev, used - base_used

    lp = CoordinateLP(
        period=t,
        tails=tuple(change(f) for f in range(npieces)),
        budget=None if market.unbounded else market.inventory - base_used,
        base_revenue=base_rev,
        base_used=base_used,
    )
    _assert_affine(lp, market, partition, rows)
    return lp


def _held_out_row(npieces: int, mode) -> tuple:
    """A row that no tail probe equals: zero, then a half, then one."""
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    lo, hi = (1, 2) if npieces == 3 else (2, npieces - 2)
    return tuple(0 if p < lo else half if p < hi else 1 for p in range(npieces))


def _assert_affine(lp: CoordinateLP, market: Market, partition: Partition, rows):
    """Check the model against the full evaluator on a held-out row."""
    check = _held_out_row(partition.npieces, market.mode)
    R = list(rows)
    R[lp.period] = check
    ev = evaluate_rows(market, partition, R)
    want_rev, want_used = ev.revenue, ev.inventory_used
    got_j, got_g = lp.value_of(check)
    scale = max(1, abs(want_rev), abs(want_used))
    tol = 0 if market.mode == RATIONAL else 1e-8 * scale
    if abs(lp.base_revenue + got_j - want_rev) > tol or abs(lp.base_used + got_g - want_used) > tol:
        raise AffinityError(
            f"period {lp.period}: tail model off by "
            f"{lp.base_revenue + got_j - want_rev} / {lp.base_used + got_g - want_used}"
        )


def solve_coordinate(lp: CoordinateLP) -> CoordinateSolution:
    """Exact maximizer of the affine model over monotone rows.

    Candidates: the zero row; level-one single tails; budget-tight scalings
    of those; and budget-tight convex pairs of two single tails (the
    two-jump family, including the closed/open pair at one shared point).
    Ties break toward fewer steps, then less inventory, then tails starting
    on lower pieces: lower points first, closed before open.
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
    row = [0] * len(lp.tails)
    for f, level in zip(firsts, levels):
        row[f:] = [level] * (len(row) - f)
    return CoordinateSolution(
        row=tuple(row),
        objective=j,
        used=gval,
        predicted_revenue=lp.base_revenue + j,
        predicted_used=lp.base_used + gval,
    )


def _random_profile(market: Market, rng: random.Random) -> AllocationProfile:
    """Monotone step initialization with jumps on the atoms."""
    grid = [Fraction(k, 4) for k in range(5)] if market.mode == "rational" else [k / 4 for k in range(5)]
    steps = []
    for _ in range(market.T):
        njumps = rng.choice((0, 1, 1, 2))
        njumps = min(njumps, len(market.atoms))
        locs = sorted(rng.sample(list(market.atoms), njumps))
        levels = sorted(rng.choice(grid) for _ in range(njumps + 1))
        jumps = [Jump(at, rng.random() < 0.5) for at in locs]
        steps.append(StepFunction(levels, jumps))
    return AllocationProfile(tuple(steps))


def _shrink_to_feasible(market: Market, profile: AllocationProfile) -> AllocationProfile:
    """Halve every level until the inventory cap is met (zero always is)."""
    if market.unbounded:
        return profile
    half = Fraction(1, 2) if market.mode == "rational" else 0.5
    for _ in range(12):
        if evaluate(market, profile).inventory_used <= market.inventory:
            return profile
        profile = AllocationProfile(
            tuple(
                StepFunction([lvl * half for lvl in r.levels], r.jumps)
                for r in profile.steps
            )
        )
    return AllocationProfile.zero(market.T)


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
    initials: list[tuple[object, AllocationProfile]] = [
        ("zero", AllocationProfile.zero(market.T)),
        ("ones", _shrink_to_feasible(market, AllocationProfile.ones(market.T))),
    ]
    for _ in range(starts):
        sub_seed = rng.randrange(2**32)
        prof = _random_profile(market, random.Random(sub_seed))
        initials.append((sub_seed, _shrink_to_feasible(market, prof)))

    partition = segment_refinement([r for _, prof in initials for r in prof.steps], market.atoms)
    best = None  # (revenue, rows, record)
    records = []
    rejected_negative = 0
    # (t, rows before t, rows after t) -> solution of period t's model
    solved = {}
    for label, profile in initials:
        rows = tuple(tuple(partition.values(r)) for r in profile.steps)
        rev = evaluate_rows(market, partition, rows).revenue
        converged = False
        sweeps = 0
        for _ in range(max_sweeps):
            sweeps += 1
            improved = False
            for t in range(market.T):
                key = (t, rows[:t], rows[t + 1:])
                sol = solved.get(key)
                if sol is None:
                    sol = solved[key] = solve_coordinate(build_coordinate_lp(market, partition, rows, t))
                if sol.predicted_revenue <= rev + tol:
                    continue
                trial = rows[:t] + (sol.row,) + rows[t + 1:]
                ev = evaluate_rows(market, partition, trial)
                _require_prediction(ev.revenue, sol.predicted_revenue, market.mode)
                if ev.negative_payments:
                    rejected_negative += 1
                    continue
                rows, rev = trial, ev.revenue
                improved = True
            if not improved:
                converged = True
                break
        records.append(StartRecord(label, rev, sweeps, converged))
        if best is None or rev > best[0]:
            best = (rev, rows, records[-1])

    rev, rows, best_record = best
    if market.mode != RATIONAL:
        # the solver keeps whole levels as ints; a float profile holds floats
        rows = tuple(tuple(float(x) for x in row) for row in rows)
    profile = AllocationProfile(tuple(StepFunction.from_values(partition, row) for row in rows))
    final = evaluate(market, profile)
    binding = (not market.unbounded) and abs(final.inventory_used - market.inventory) <= tol
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
    tol = 0 if mode == "rational" else 1e-8 * max(1.0, abs(actual))
    if abs(actual - predicted) > tol:
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
        tol = 0 if market.mode == "rational" else 1e-9
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
