"""Brute-force ground truth and classical baselines at desk scale.

The grid oracle searches the monotone step profiles whose jumps sit on the
atom boundaries (both inclusion flags, realized as free point values
between the neighboring segment levels) and whose levels come from a fixed
grid, and maximizes exact revenue subject to the inventory cap. A rule of
the full grid takes a non-decreasing level on every gap and every atom's
point; an atomless point takes a neighboring gap's level. The grid's K
per-period candidates give K^T profiles, and all of them are accounted
for, but only the lowered ones are built and scored: those with every gap
and atomless point at the level of the atom point below it, and the lowest
level below the first atom. That leaves one candidate per non-decreasing
choice of levels on the atom points. K is counted once, in closed form,
before anything is built: that count is the cap's and the result's, so an
oversized grid is refused at once.

Why a lowered profile does as well. Hold the other periods' rules fixed:
revenue and usage are affine in period t's piece values, and
:func:`dynration.evaluate.coordinate_tails` computes the coefficients.
Write Delta_j = delta_t - g_{t+1}[j] >= 0 and w_j for gap j's width. A unit
of the rule on gap j changes revenue by one term per period s <= t and
atom i above the gap:

* s < t: lambdaS_s / lambdaB_s * f*_{s,i} * w_j * Delta_j * P_{s+1}[j] * (r_s(gap j) - r_{s,i});
* s = t: -lambdaS_t / lambdaB_t * f*_{t,i} * w_j * Delta_j.

Each term is <= 0, since a monotone rule is no higher on a gap than at an
atom above it: a rule raised on a gap only adds information rent. Usage
reads a rule only at the atoms, so it does not change, and an atomless
point carries no mass, so both its coefficients are 0. Lowering period t's
gaps and atomless points keeps the rule monotone and on the grid, does not
lower revenue and keeps usage. The terms are <= 0 whatever the other
periods' monotone rules are, so lowering one period after another lowers a
whole profile: every profile of the full grid scores no more than its
lowered version, at the same usage, and lowering a maximizer gives a
maximizer.

Why the result is the full grid's. The canonical order is lexicographic
over per-period descriptors, earliest period most significant; a period's
descriptor is its gap levels, then its point values. Lowering moves no
level up and leaves the atom points alone, so the first entry that it
changes is a gap moved down: lowering never moves a profile later in
that order. A first maximizer that was not lowered would have an earlier
maximizer, its lowered version, so the first maximizer of the full grid is
lowered, and it is the first maximizer of the lowered profiles. That is
exact. The float search compares float scores, which may put an exact tie
an ulp apart, and in rational mode the exact pass below settles near-ties.

The search scores the lowered profiles in floating point with the
evaluator's own recursion (:func:`dynration.evaluate.formula_layer`), fed
numpy arrays in which each period's candidates lie on that period's own
axis. Broadcasting then runs period t's backward recursion once per
combination of periods t..T-1, not once per profile, and only the
quantities that depend on every period (period-0 utilities, late
presence, revenue and usage) reach the full profile count. The whole grid
is one batch (:func:`_grid_scores`): for n atoms and L levels there are
C(L + n - 1, n)^T lowered profiles, and the caps (T <= 3, n <= 3, and the
full grid's K^T <= 4,000,000) admit at most 53,361 of them, 231^2 at T = 2
with atoms at 0 and 1 and 21 levels. Its traced peak is 2.2 MB there and
2.5 MB at T = 3 with atoms at 0, 1/2 and 1 and 5 levels, the two largest
batches the caps admit. The search writes its feasibility mask into the
batch's own revenue array.

On rational markets every lowered profile within 1e-9 of the float
optimum (the first 512 in canonical order) is re-evaluated exactly, as its
rows on the atom partition with the evaluator's self-checks, so the
reported optimum is exact. When the float tolerance let every one of them
past the inventory, they are masked in the same scores and the pool is
drawn again: the grid is scored once. Step functions come back only in the
result: only the winner's rows become a profile. The float search runs on
a float copy of the market. When only its masses or an inventory that
covers every arrival put that copy beyond the float range, the copy drops
such an inventory and divides the masses and the inventory by the
smallest power of two that brings it in range (:func:`_search_market`); a
rational market that no such power brings in range, as with a lambdaB
below the floats, is refused with ``BeyondFloatRange``. Ties keep the
first profile in canonical order, so oracle runs are reproducible.

The grid search, :func:`brute_force_optimal` and :func:`_grid_scores`, is
the only numpy code here, and each imports numpy when called, so
importing this module leaves it unloaded.

Baselines: the static monopoly price over one atom list, and the
non-anonymous benchmark that treats each generation as its own market and
sells at its monopoly price on arrival (defined only for supply that
never binds, :attr:`~dynration.market.Market.inventory_never_binds`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .evaluate import AllocationProfile, evaluate, evaluate_rows, formula_layer
from .market import Market, MarketError, ParseError, make_market, read_number
from .numeric import FLOAT, RATIONAL, ordered_sum
from .stepfn import Partition, StepFunction


# Instance caps: periods, atoms, and candidate profiles K^T.
_MAX_PERIODS = 3
_MAX_ATOMS = 3
_MAX_CANDIDATES = 4_000_000

# Rational mode re-evaluates at most this many float near-ties exactly.
_POOL = 512


class InstanceTooLarge(ValueError):
    """The instance exceeds the oracle's enumeration caps."""


class BoundedInventoryUnsupported(ValueError):
    """The non-anonymous benchmark needs supply that never binds."""


@dataclass(frozen=True)
class OracleGrid:
    """Search space: level grid, jumps pinned to atom boundaries."""

    levels: tuple = ("0", "1/4", "1/2", "3/4", "1")

    def level_values(self, mode: str) -> list:
        vals = sorted({read_number(x, f"levels[{i}]", mode) for i, x in enumerate(self.levels)})
        if vals[0] < 0 or vals[-1] > 1:
            raise ValueError("grid levels must lie in [0, 1]")
        if vals[0] != 0 or vals[-1] != 1:
            raise ValueError("the level grid must contain 0 and 1")
        return vals


@dataclass
class OracleResult:
    """The grid's best feasible profile and its exact revenue.

    ``candidates`` counts the full grid's K^T profiles, all of them
    accounted for; only the lowered ones are scored (module docstring).
    """

    revenue: object
    profile: AllocationProfile
    candidates: int


def _period_candidates(market: Market, levels: list) -> list[list]:
    """The lowered candidates of one period: a piece-value vector per choice of levels on the atom points.

    The choices are the non-decreasing tuples of levels, one per atom, in
    canonical order. Every gap and every atomless point takes the level of
    the atom point below it, and the pieces below the first atom the lowest
    level. These are the full grid's candidates with every gap at the level
    of the point below it, in the full grid's order (module docstring);
    without atoms there is one candidate, the zero row.
    """
    points, atoms = Partition(market.atoms).points, set(market.atoms)
    out = []
    for chosen in itertools.combinations_with_replacement(levels, len(atoms)):
        pieces, level, at_atoms = [], levels[0], iter(chosen)
        for p in points:
            if p in atoms:
                level = next(at_atoms)
            pieces += (level, level)
        out.append(pieces[:-1])
    return out


def grid_candidates(market: Market, grid: OracleGrid) -> tuple[list[list], int]:
    """The grid's lowered candidates on ``market`` and its full K^T profiles, after the size caps.

    Raises :class:`InstanceTooLarge` when the market has too many periods or
    atoms, or the full grid's K^T candidate profiles exceed the cap; callers
    that would do other work before the search check here first. A
    candidate of the full grid is a non-decreasing choice of levels on its
    f free pieces (every gap and every atom's point; other points are
    pinned), so L levels give K = C(L + f - 1, f), counted before anything
    is built. Only the lowered candidates are built
    (:func:`_period_candidates`), C(L + n - 1, n) of them for n atoms; the
    full grid's K never are.
    """
    if market.T > _MAX_PERIODS:
        raise InstanceTooLarge(f"T={market.T} beyond oracle cap {_MAX_PERIODS}")
    if market.num_atoms > _MAX_ATOMS:
        raise InstanceTooLarge(f"{market.num_atoms} atoms beyond oracle cap {_MAX_ATOMS}")
    levels = grid.level_values(market.mode)
    free = len(Partition(market.atoms).points) - 1 + market.num_atoms
    total = math.comb(len(levels) + free - 1, free) ** market.T
    if total > _MAX_CANDIDATES:
        raise InstanceTooLarge(f"{total} profiles beyond oracle cap {_MAX_CANDIDATES}")
    return _period_candidates(market, levels), total


def _grid_scores(market: Market, candidates: list[list]) -> tuple:
    """Flat float revenue and usage of every profile of ``candidates``, in arrays of their own.

    Profile ``id`` takes period t's rule from
    ``candidates[(id // K**(T-1-t)) % K]``, so the ids run in canonical
    order. Each period's candidates lie on that period's own numpy axis,
    and the whole grid is one :func:`~dynration.evaluate.formula_layer`
    batch. A sum of the full shape is the batch's own array, flattened as a
    view; one of a smaller shape (a market without atoms sums to scalars)
    is broadcast and copied. Either way the caller may write into them.
    """
    import numpy as np

    K, T = len(candidates), market.T
    columns = np.array([[float(x) for x in row] for row in candidates]).T  # (pieces, K)
    R = [columns.reshape((-1,) + tuple(K if a == t else 1 for a in range(T))) for t in range(T)]
    batch = formula_layer(market, Partition(market.atoms), R)
    return tuple(
        x.reshape(-1) if np.shape(x) == (K,) * T else np.broadcast_to(x, (K,) * T).flatten()
        for x in (batch.revenue, batch.inventory_used)
    )


def _search_market(market: Market) -> Market:
    """The float copy of a rational market that the grid search scores.

    A market in the float range is copied as it is (k = 0), so its bits do
    not change. Otherwise an inventory that never binds
    (:attr:`~dynration.market.Market.inventory_never_binds`) is dropped, and
    the copy divides every mass and the inventory by the smallest power of
    two 2^k that brings it in range; the range bound falls with the total
    mass until that total is 1. Revenue and usage are jointly linear in the
    masses and the inventory, so the scaled copy ranks every profile as the
    market does and keeps the same ones feasible, and dividing by 2^k is
    exact in floats above the subnormals.
    The caller re-evaluates its pool on the market itself, at its own
    inventory. If no k brings the copy in range, as when a lambdaB lies
    below the floats, the unscaled copy's error is raised.
    """
    d = market.discounts
    unbounded = market.unbounded

    def copy(scale):
        mass = [[x / scale for x in row] for row in market.mass]
        inventory = None if unbounded else market.inventory / scale
        return make_market(market.T, market.atoms, mass, inventory, d.delta, d.lambda_s, d.lambda_b, mode=FLOAT)

    try:
        return copy(1)
    except (MarketError, ParseError) as err:
        refused = err
    unbounded = market.inventory_never_binds
    # 2^k >= total mass is the last k that shrinks max(1, total mass)
    for k in range((math.ceil(max(market.total_mass, 1)) - 1).bit_length() + 1):
        try:
            return copy(2**k)
        except (MarketError, ParseError):
            pass
    raise refused


def brute_force_optimal(market: Market, grid: OracleGrid | None = None) -> OracleResult:
    """Exact maximum of revenue over the grid, subject to the inventory cap.

    ``candidates`` in the result counts the grid's K^T profiles; only the
    lowered profiles are scored, all in one batch (:func:`_grid_scores`),
    which returns the same first maximizer (module docstring). In rational
    mode the exact re-evaluation pool is the first ``_POOL`` of them within
    1e-9 of the float best, each evaluated as rows
    (:func:`~dynration.evaluate.evaluate_rows`); when none of them is
    within the exact inventory, they are masked in the scores and the pool
    is drawn again. Only the winner becomes step functions.
    A rational market is searched on a float copy (:func:`_search_market`),
    so one that the copy cannot bring in the float range raises
    :class:`~dynration.market.MarketError` (``BeyondFloatRange``).
    """
    import numpy as np

    grid = grid or OracleGrid()
    candidates, total = grid_candidates(market, grid)
    K, T = len(candidates), market.T

    # the search runs in float: Fraction times an ndarray makes slow object arrays
    search = market if market.mode == FLOAT else _search_market(market)
    revenue, used = _grid_scores(search, candidates)
    if search.inventory is not None:
        revenue[~(used <= search.inventory + 1e-9)] = -np.inf
    del used

    # the market's own partition: the search's may hold float copies of its atoms
    part = Partition(market.atoms)
    strides = [K ** (T - 1 - t) for t in range(T)]

    def rows(flat: int) -> list:
        return [candidates[(flat // s) % K] for s in strides]

    def rebuild(flat: int) -> AllocationProfile:
        return AllocationProfile(tuple(StepFunction.from_values(part, row) for row in rows(flat)))

    while True:
        top = int(np.argmax(revenue))
        if revenue[top] == -np.inf:
            raise AssertionError("no feasible profile; the zero profile is always feasible")
        if market.mode == FLOAT:
            profile = rebuild(top)
            return OracleResult(evaluate(market, profile).revenue, profile, total)

        # exact re-evaluation of the float near-ties keeps the result exact:
        # the first _POOL, in canonical order, within 1e-9 of the best
        pool = np.flatnonzero(revenue >= revenue[top] - 1e-9)[:_POOL]
        best = None
        for flat in pool.tolist():
            ev = evaluate_rows(market, part, rows(flat))
            if (market.unbounded or ev.inventory_used <= market.inventory) and (best is None or ev.revenue > best[0]):
                best = (ev.revenue, flat)
        if best is not None:
            return OracleResult(best[0], rebuild(best[1]), total)
        # every near-tie is feasible within the float tolerance only
        revenue[pool] = -np.inf


def static_monopoly(pairs):
    """Best take-it-or-leave-it price over one atom list.

    ``pairs`` is a sequence of (value, mass). The optimal price is always
    one of the atom values; ties go to the lowest such price.
    """
    pairs = sorted(pairs)
    if not pairs:
        raise ValueError("need at least one atom")
    best = None
    for k, (price, _) in enumerate(pairs):
        rev = price * ordered_sum((mass for _, mass in pairs[k:]), 0)
        if best is None or rev > best[1]:
            best = (price, rev)
    return best


def non_anonymous_benchmark(market: Market):
    """Per-generation monopoly pricing with full arrival-time discrimination.

    Only defined for supply that never binds (unbounded, or at least the
    total arrival mass), where generations decouple and the seller simply
    charges each cohort its monopoly price on arrival. A buyer of value v
    who pays p at t keeps delta_t * v - lambdaB_t * p, so the price that
    sells to values q and up is delta_t * q / lambdaB_t; the seller counts
    lambdaS_t times its cash.

    It bounds the anonymous optimum when kappa_t = lambdaS_t / lambdaB_t
    never rises over t. Revenue is linear in the masses, so the optimum is
    at most the sum over cohorts of each cohort's optimum alone. A cohort
    that arrives at t pays nonnegative amounts at s >= t, which the seller
    weighs by kappa_s <= kappa_t, and with delta non-increasing a lone
    cohort does best at its static monopoly price on arrival (Stokey 1979).
    Where kappa rises, a lone cohort can earn more by screening over time,
    and this sum can fall below the anonymous optimum.
    """
    if not market.inventory_never_binds:
        raise BoundedInventoryUnsupported("finite inventory couples the generations")
    d = market.discounts
    total = d.delta[0] * 0
    for t in range(market.T):
        pairs = [(v, m) for v, m in zip(market.atoms, market.mass[t]) if m > 0]
        if not pairs:
            continue
        _, rev = static_monopoly(pairs)
        total += d.lambda_s[t] * d.delta[t] * rev / d.lambda_b[t]
    return total
