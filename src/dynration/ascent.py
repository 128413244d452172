"""Coordinate ascent over monotone allocation profiles.

Revenue and inventory usage are affine in each period's allocation rule
when the other periods are held fixed, so every per-period subproblem is a
small exact program: maximize an affine functional of a monotone function
``h: [0, 1] -> [0, 1]`` under one affine inventory constraint. Its optimum
is a step function with at most two jumps, and with exactly two it reaches
one at the top; the solver enumerates that candidate family exhaustively.

The affine coefficients are not expanded symbolically; they are probed out
of the formula layer with single-step tail indicators whose closed/open
flag pairs isolate the atom terms. All probes of one build run as a single
batched :func:`dynration.evaluate.formula_layer` call, the period's rule
carried as one numpy column per piece with one entry per probe. Each build
re-verifies affinity on a held-out candidate through the full evaluator,
so a disagreement surfaces as an error instead of a silent drift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evaluate import AllocationProfile, effective_discounts, evaluate, formula_layer
from .market import Market
from .numeric import RATIONAL, default_tol
from .stepfn import Jump, StepFunction, segment_refinement


class AffinityError(AssertionError):
    """A probe disagreed with the affine reconstruction; evaluator bug."""


@dataclass
class CoordinateLP:
    """Affine model of revenue and inventory in one period's allocation.

    For any step function ``h`` with jumps on ``boundaries``::

        revenue(h)   = base_revenue + sum_s obj_density[s] * int_s h
                                    + sum_k obj_atom[k] * h(boundaries[k])
        inventory(h) = base_used    + (same with inv_*)

    ``budget`` is the inventory headroom ``I - base_used`` (None when
    supply is unbounded); it is the slack left once this coordinate is
    zeroed, so it already contains the coordinate's own current usage.
    """

    period: int
    boundaries: tuple
    is_atom: tuple
    obj_atom: tuple
    obj_density: tuple
    inv_atom: tuple
    inv_density: tuple
    budget: object
    base_revenue: object
    base_used: object

    def value_of(self, h: StepFunction):
        """(revenue delta, inventory delta) of an arbitrary candidate."""
        pts = self.boundaries
        j = sum(self.obj_atom[k] * h.eval(p) for k, p in enumerate(pts) if self.is_atom[k])
        gcons = sum(self.inv_atom[k] * h.eval(p) for k, p in enumerate(pts) if self.is_atom[k])
        for s in range(len(pts) - 1):
            seg = h.integral(pts[s], pts[s + 1])
            j += self.obj_density[s] * seg
            gcons += self.inv_density[s] * seg
        return j, gcons


@dataclass
class CoordinateSolution:
    step: StepFunction
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


def build_coordinate_lp(market: Market, profile: AllocationProfile, t: int) -> CoordinateLP:
    """Probe the formula layer into the affine model for period ``t``.

    Jumps of optimal candidates may sit at segment boundaries only (the
    functionals are affine in a jump's position between boundaries), so the
    boundary set is the other coordinates' jump locations merged with the
    market atoms and the endpoints.
    """
    others = [r for s, r in enumerate(profile.steps) if s != t]
    partition = segment_refinement(others, market.atoms)
    pts = partition.points
    atoms = set(market.atoms)
    is_atom = tuple(p in atoms for p in pts)

    # Probe j is one on the pieces >= first[j]: the zero rule, then at each
    # boundary k the open tail 1[p_k < x] (pieces >= 2k+1) and, on atoms
    # only, the closed tail 1[p_k <= x] (pieces >= 2k). The open tail at the
    # point 1 is the zero rule; off the atoms the two flags cannot differ.
    first = [partition.npieces]
    for k in range(len(pts)):
        if k + 1 < len(pts):
            first.append(2 * k + 1)
        if is_atom[k]:
            first.append(2 * k)

    dtype = object if market.mode == RATIONAL else float
    R = [partition.values(r) for r in others]
    R.insert(t, [np.array([1 if p >= f else 0 for f in first], dtype=dtype) for p in range(partition.npieces)])
    batch = formula_layer(market, partition, R)
    # tolist() hands back Python scalars, so no numpy scalar reaches the
    # model; without atoms the sums stay scalars and are broadcast.
    revenue, used = (np.broadcast_to(x, (len(first),)).tolist() for x in (batch.revenue, batch.used))
    tail = dict(zip(first, zip(revenue, used)))
    base_rev, base_used = tail[partition.npieces]
    open_vals = [tail[2 * k + 1] for k in range(len(pts))]
    closed_vals = [tail[2 * k] if is_atom[k] else tail[2 * k + 1] for k in range(len(pts))]

    obj_atom, inv_atom = [], []
    for k in range(len(pts)):
        obj_atom.append(closed_vals[k][0] - open_vals[k][0])
        inv_atom.append(closed_vals[k][1] - open_vals[k][1])
    obj_density, inv_density = [], []
    for s in range(len(pts) - 1):
        width = pts[s + 1] - pts[s]
        obj_density.append((open_vals[s][0] - closed_vals[s + 1][0]) / width)
        inv_density.append((open_vals[s][1] - closed_vals[s + 1][1]) / width)

    lp = CoordinateLP(
        period=t,
        boundaries=pts,
        is_atom=is_atom,
        obj_atom=tuple(obj_atom),
        obj_density=tuple(obj_density),
        inv_atom=tuple(inv_atom),
        inv_density=tuple(inv_density),
        budget=None if market.unbounded else market.inventory - base_used,
        base_revenue=base_rev,
        base_used=base_used,
    )
    _assert_affine(lp, market, profile, partition)
    return lp


def _held_out_candidate(pts, mode) -> StepFunction:
    """A rule on ``pts`` that none of the build's tail probes equals."""
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    if len(pts) < 3:
        return StepFunction.constant(half)
    if pts[1] == pts[-2]:
        return StepFunction.step(pts[1], True, high=half)
    return StepFunction([0, half, 1], [Jump(pts[1], True), Jump(pts[-2], False)])


def _assert_affine(lp: CoordinateLP, market: Market, profile: AllocationProfile, partition):
    """Check the model against the full evaluator on a held-out candidate."""
    check = _held_out_candidate(lp.boundaries, market.mode)
    ev = evaluate(market, profile.with_step(lp.period, check), partition=partition)
    want_rev, want_used = ev.revenue, ev.inventory_used
    got_j, got_g = lp.value_of(check)
    scale = max(1, abs(want_rev), abs(want_used))
    tol = 0 if market.mode == RATIONAL else 1e-8 * scale
    if abs(lp.base_revenue + got_j - want_rev) > tol or abs(lp.base_used + got_g - want_used) > tol:
        raise AffinityError(
            f"period {lp.period}: probe reconstruction off by "
            f"{lp.base_revenue + got_j - want_rev} / {lp.base_used + got_g - want_used}"
        )


def solve_coordinate(lp: CoordinateLP) -> CoordinateSolution:
    """Exact maximizer of the affine model over monotone step functions.

    Candidates: the zero function; level-one single steps at every boundary
    and flag; budget-tight scalings of those; and budget-tight convex pairs
    of two single steps (the two-jump family, including the closed/open
    pair at one shared location). Ties break toward fewer steps, then less
    inventory, then lower jumps with closed before open.
    """
    pts = lp.boundaries
    m = len(pts)

    # Tail values of J and G for 1[p_k <= x] (closed) and 1[p_k < x] (open).
    atom_j = list(lp.obj_atom)
    atom_g = list(lp.inv_atom)
    dens_j = list(lp.obj_density)
    dens_g = list(lp.inv_density)
    widths = [pts[s + 1] - pts[s] for s in range(m - 1)]
    jc = [0] * m
    gc = [0] * m
    jo = [0] * m
    go = [0] * m
    run_j, run_g = 0, 0
    for k in range(m - 1, -1, -1):
        jo[k] = run_j
        go[k] = run_g
        jc[k] = run_j + atom_j[k]
        gc[k] = run_g + atom_g[k]
        if k > 0:
            run_j = jc[k] + dens_j[k - 1] * widths[k - 1]
            run_g = gc[k] + dens_g[k - 1] * widths[k - 1]

    singles = []  # (at, closed, J, G)
    for k in range(m):
        singles.append((pts[k], True, jc[k], gc[k]))
        if k < m - 1 or pts[k] < 1:
            singles.append((pts[k], False, jo[k], go[k]))

    budget = lp.budget
    feasible = lambda g: budget is None or g <= budget

    candidates = []  # (J, steps, G, jump token tuple, StepFunction)

    candidates.append((0, 0, 0, (), StepFunction.zero()))
    for at, closed, j, gval in singles:
        if feasible(gval):
            candidates.append((j, 1, gval, ((at, 0 if closed else 1),), StepFunction.step(at, closed)))
        elif budget is not None and gval > 0 and budget > 0:
            alpha = budget / gval
            candidates.append(
                (
                    alpha * j,
                    1,
                    budget,
                    ((at, 0 if closed else 1),),
                    StepFunction.step(at, closed, high=alpha),
                )
            )
    if budget is not None:
        for ia in range(len(singles)):
            at_a, cl_a, j_a, g_a = singles[ia]
            for ib in range(ia + 1, len(singles)):
                at_b, cl_b, j_b, g_b = singles[ib]
                if g_a == g_b:
                    continue
                # singles are token-ordered, so 1[a..] dominates 1[b..]
                alpha = (budget - g_b) / (g_a - g_b)
                if not 0 < alpha < 1:
                    continue
                jumps = (Jump(at_a, cl_a), Jump(at_b, cl_b))
                try:
                    two = StepFunction([0, alpha, 1], jumps)
                except ValueError:
                    continue
                tok = tuple((j.at, 0 if j.closed else 1) for j in jumps)
                candidates.append((alpha * j_a + (1 - alpha) * j_b, 2, budget, tok, two))

    best = None
    for j, steps, gval, tok, fn in candidates:
        key = (steps, gval, tok)
        if best is None or j > best[0] or (j == best[0] and key < best[1]):
            best = (j, key, gval, fn)

    j, _, gval, fn = best
    return CoordinateSolution(
        step=fn,
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
        try:
            steps.append(StepFunction(levels, jumps))
        except ValueError:
            steps.append(StepFunction.zero())
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

    best = None  # (revenue, profile, record)
    records = []
    rejected_negative = 0
    for label, profile in initials:
        current = evaluate(market, profile)
        rev = current.revenue
        converged = False
        sweeps = 0
        for _ in range(max_sweeps):
            sweeps += 1
            improved = False
            for t in range(market.T):
                lp = build_coordinate_lp(market, profile, t)
                sol = solve_coordinate(lp)
                if sol.predicted_revenue <= rev + tol:
                    continue
                trial = profile.with_step(t, sol.step)
                ev = evaluate(market, trial)
                _require_prediction(ev.revenue, sol.predicted_revenue, market.mode)
                if ev.negative_payments:
                    rejected_negative += 1
                    continue
                profile, rev = trial, ev.revenue
                improved = True
            if not improved:
                converged = True
                break
        records.append(StartRecord(label, rev, sweeps, converged))
        if best is None or rev > best[0]:
            best = (rev, profile, records[-1])

    rev, profile, best_record = best
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
