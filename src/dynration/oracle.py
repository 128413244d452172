"""Brute-force ground truth and classical baselines at desk scale.

The grid oracle enumerates every monotone step profile whose jumps sit on
the atom boundaries (both inclusion flags, realized as free point values
between the neighboring segment levels) and whose levels come from a fixed
grid, then maximizes exact revenue subject to the inventory cap. The
grid's K per-period candidates give K^T profiles, and all of them are
accounted for, but not all are built. No buyer values a unit above the
top atom, so a rule's values past that atom's point reach neither revenue
nor usage. Candidates that agree up to and including that point form a
class, and only the class's first member in canonical order, its
representative, is built and scored; the full grid never is. The first
maximizer in canonical order is always a profile of representatives, so
the result is the full grid's. K is counted once, in closed form, before
anything is built: that count is the cap's and the result's, so an
oversized grid is refused at once.

The search scores the representatives in floating point with the
evaluator's own recursion (:func:`dynration.evaluate.formula_layer`), fed
numpy arrays in which each period's candidates lie on that period's own
axis. Broadcasting then runs period t's backward recursion once per
combination of periods t..T-1, not once per profile, and only the
quantities that depend on every period (period-0 utilities, late
presence, revenue and usage) reach the full profile count. Each chunk is
a slice of period 0's candidates against every candidate of periods
1..T-1, at most ``_CHUNK`` profiles, which bounds peak memory: the caps
keep K^(T-1) within ``_CHUNK``, so a slice of one period-0 candidate
always fits. On rational markets every representative profile within
1e-9 of the float optimum (the first 512 in canonical order) is
re-evaluated exactly, as its rows on the atom partition with the
evaluator's self-checks, so the reported optimum is exact; when the float
tolerance let every one of them past the inventory, the search runs again
without them. Step functions come back only in the result: only the
winner's rows become a profile. The float search runs on a float copy of
the market. When only its masses or an inventory that covers every
arrival put that copy beyond the float range, the copy drops such an
inventory and divides the masses and the inventory by the smallest power
of two that brings it in range (:func:`_search_market`); a rational
market that no such power brings in range, as with a lambdaB below the
floats, is refused with ``BeyondFloatRange``. Enumeration order is
canonical (lexicographic over per-period descriptors, earliest period
most significant) and ties keep the first candidate, so oracle runs are
reproducible and do not depend on the chunking.

The grid search, :func:`brute_force_optimal` and :func:`_scored_chunks`, is
the only numpy code here, and each imports numpy when called, so importing
this module leaves it unloaded.

Baselines: the static monopoly price over one atom list, and the
non-anonymous benchmark that treats each generation as its own market and
sells at its monopoly price on arrival (defined only for supply that
never binds, :attr:`~dynration.market.Market.inventory_never_binds`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .evaluate import AllocationProfile, evaluate, evaluate_rows, formula_layer
from .market import Market, MarketError, ParseError, make_market
from .numeric import FLOAT, RATIONAL, ordered_sum, parse_number
from .stepfn import Partition, StepFunction


# Profiles per chunk of the search: the recursion keeps every period's
# utility, presence and payment columns for a whole chunk, so the chunk
# size bounds peak memory.
_CHUNK = 1 << 15

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
        vals = sorted({parse_number(x, mode) for x in self.levels})
        if vals[0] < 0 or vals[-1] > 1:
            raise ValueError("grid levels must lie in [0, 1]")
        if vals[0] != 0 or vals[-1] != 1:
            raise ValueError("the level grid must contain 0 and 1")
        return vals


@dataclass
class OracleResult:
    revenue: object
    profile: AllocationProfile
    candidates: int  # the grid's K^T profiles, accounted for; one per class is scored


def _period_candidates(market: Market, levels: list) -> list[list]:
    """One piece-value vector per class of candidates, canonically ordered.

    A candidate assigns a non-decreasing level to every open gap and, at
    each atom boundary, any grid level between the neighboring gap levels
    (that freedom is the closed/open flag choice, including the distinct
    point value realized by a closed+open pair). Non-atom boundaries carry
    no mass, so their value is pinned to a neighbor.

    Candidates that agree up to and including the top atom's point form a
    class: the formula layer reads a rule only at the atom points and
    through the gaps below them, so a class's members score alike, exactly
    and bit for bit in floats. Only each class's first candidate in
    canonical order is built. It has the smallest gaps that its prefix
    allows, so the top atom's point value also fills the gap above it and
    every later piece: only the gaps up to that one are free, and the top
    atom's point is pinned to the gap above like a massless point, unless
    the point is 1. Without atoms there is one candidate.
    """
    pts = Partition(market.atoms).points
    atoms = set(market.atoms)
    ngaps = len(pts) - 1
    top = pts.index(max(market.atoms)) if market.atoms else -1
    out = []
    for free in itertools.combinations_with_replacement(levels, min(ngaps, top + 1)):
        gaps = free + (free[-1] if free else levels[0],) * (ngaps - len(free))
        choice_sets = []
        for k, p in enumerate(pts):
            lo = gaps[k - 1] if k > 0 else None
            hi = gaps[k] if k < ngaps else None
            if p in atoms and (k < top or hi is None):
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


def grid_candidates(market: Market, grid: OracleGrid) -> tuple[list[list], int]:
    """The grid's class representatives on ``market`` and its K^T profiles, after the size caps.

    Raises :class:`InstanceTooLarge` when the market has too many periods or
    atoms, or the K^T candidate profiles exceed the cap; callers that would
    do other work before the search check here first. A candidate is a
    non-decreasing choice of levels on its f free pieces (every gap and
    every atom's point; other points are pinned), so L levels give
    K = C(L + f - 1, f), counted before anything is built. Only one
    candidate per class is built (:func:`_period_candidates`); the full
    grid's K candidates never are.
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


def _scored_chunks(market: Market, candidates: list[list]):
    """Yield ``(first, revenue, used)`` over every candidate profile of a float market.

    ``first`` is the flat id of the chunk's first profile; ``revenue`` and
    ``used`` hold one value per profile, in canonical order. Period t of
    profile ``id`` is ``candidates[(id // K**(T-1-t)) % K]``.

    Every period gets one numpy axis, so the recursion of period t runs
    once per combination of periods t..T-1 that the chunk needs, not once
    per profile. Periods 1..T-1 hold all K candidates, and each chunk takes
    a slice of ``_CHUNK // K**(T-1)`` of period 0's, at least one, so no
    column exceeds ``_CHUNK`` values while the caps keep K**(T-1) within
    ``_CHUNK``.
    """
    import numpy as np

    K = len(candidates)
    T = market.T
    partition = Partition(market.atoms)
    columns = np.array([[float(x) for x in row] for row in candidates]).T  # (pieces, K)
    inner = K ** (T - 1)
    step = max(1, _CHUNK // inner)
    # candidate axes after the piece axis: period 0's slice, then periods 1..T-1
    tail = [columns.reshape((-1,) + tuple(K if a == t else 1 for a in range(T))) for t in range(1, T)]
    for lo in range(0, K, step):
        head = columns[:, lo : lo + step]
        shape = head.shape[1:] + (K,) * (T - 1)
        batch = formula_layer(market, partition, [head.reshape(head.shape + (1,) * (T - 1))] + tail)
        # a market without atoms sums to scalars
        revenue, used = (np.broadcast_to(x, shape).reshape(-1) for x in (batch.revenue, batch.inventory_used))
        yield lo * inner, revenue, used


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
    profiles of class representatives are scored, which returns the same
    first maximizer. In rational mode the exact re-evaluation pool is the
    first ``_POOL`` representative profiles within 1e-9 of the float best,
    each evaluated as rows (:func:`~dynration.evaluate.evaluate_rows`);
    when none of them is within the exact inventory, the search runs again
    without them. Only the winner becomes step functions.
    A rational market is searched on a float copy (:func:`_search_market`),
    so one that the copy cannot bring in the float range raises
    :class:`~dynration.market.MarketError` (``BeyondFloatRange``).
    """
    import numpy as np

    grid = grid or OracleGrid()
    candidates, total = grid_candidates(market, grid)
    K = len(candidates)
    T = market.T

    # the search runs in float: Fraction times an ndarray makes slow object arrays
    search = market if market.mode == FLOAT else _search_market(market)
    inv = search.inventory
    exact = market.mode == RATIONAL
    ftol = 1e-9

    # the market's own partition: the search's may hold float copies of its atoms
    part = Partition(market.atoms)
    strides = [K ** (T - 1 - t) for t in range(T)]

    def rebuild(flat: int) -> AllocationProfile:
        return AllocationProfile(tuple(StepFunction.from_values(part, candidates[(flat // s) % K]) for s in strides))

    skipped = np.zeros(0, dtype=np.int64)  # pooled ids beyond the exact inventory
    while True:
        # rational mode: per chunk, the ids and revenues within 1e-9 of the
        # running best, a superset of those within 1e-9 of the final best.
        # An entry with _POOL earlier kept entries of no lower revenue is
        # never among the first _POOL of those, so it is dropped; ``heap``
        # is a min-heap of the _POOL largest kept revenues.
        best_rev, best_id, near, heap = -np.inf, None, [], []
        for first, revenue, used in _scored_chunks(search, candidates):
            if inv is not None:
                feasible = used <= inv + ftol
                feasible[skipped[(skipped >= first) & (skipped < first + len(used))] - first] = False
                if not feasible.any():
                    continue
                revenue = np.where(feasible, revenue, -np.inf)
            top = int(np.argmax(revenue))
            if revenue[top] > best_rev:
                best_rev = revenue[top]
                best_id = first + top
            if exact:
                keep = np.flatnonzero(revenue >= best_rev - 1e-9)
                if len(heap) == _POOL:
                    keep = keep[revenue[keep] > heap[0]]
                kept = []
                for k, r in zip(keep.tolist(), revenue[keep].tolist()):
                    if len(heap) < _POOL:
                        heapq.heappush(heap, r)
                    elif r > heap[0]:
                        heapq.heapreplace(heap, r)
                    else:
                        continue
                    kept.append(k)
                kept = np.array(kept, dtype=np.int64)
                near.append((first + kept, revenue[kept]))
        if best_id is None:
            raise AssertionError("no feasible profile; the zero profile is always feasible")
        if not exact:
            profile = rebuild(best_id)
            return OracleResult(evaluate(market, profile).revenue, profile, total)

        # exact re-evaluation of the float near-ties keeps the result exact:
        # the first _POOL, in canonical order, within 1e-9 of the final best
        ids = np.concatenate([i for i, _ in near])
        revs = np.concatenate([r for _, r in near])
        pool = ids[revs >= best_rev - 1e-9][:_POOL]
        best_exact = None
        for flat in pool.tolist():
            ev = evaluate_rows(market, part, [candidates[(flat // s) % K] for s in strides])
            if not market.unbounded and ev.inventory_used > market.inventory:
                continue
            if best_exact is None or ev.revenue > best_exact[0]:
                best_exact = (ev.revenue, flat)
        if best_exact is not None:
            return OracleResult(best_exact[0], rebuild(best_exact[1]), total)
        # every near-tie is feasible within the float tolerance only
        skipped = np.concatenate([skipped, pool])


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
