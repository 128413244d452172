"""Closed-form evaluation of an allocation profile on a market.

Given per-period monotone allocation rules ``r_t`` this computes, exactly:

* the presence table ``fstar[t][i]`` (arrivals plus unserved carryover),
  by recursion and cross-checked against its closed-form product;
* the utility curves ``U_t`` as integrals of the effective-discount
  integrand ``g_t(u) = delta_t r_t(u) + (1 - r_t(u)) g_{t+1}(u)`` over the
  value axis, on the open gaps between partition points only: the points
  have no length (utilities integrate over types, never over atom masses);
* truthful expected payments from the incentive identity
  ``lambdaB_t p_t(v) = delta_t v r_t(v) + (1 - r_t(v)) U_{t+1}(v) - U_t(v)``;
* revenue (seller-discounted), inventory usage (two equivalent forms,
  asserted equal), and social welfare (summed when it is read).

Payments are defined only through the incentive identity; nonnegativity is
checked and flagged rather than assumed. On valid input it holds: with
partition points ``x_0 < x_1 < ...``, the identity sums to
``lambdaB_t p_t(v) = sum_j (r_t(v) - r_t(gap j)) (delta_t - g_{t+1}(gap j))
(x_{j+1} - x_j)`` over the gaps j = (x_j, x_{j+1}) below v, and every term
is >= 0 because r_t is monotone and ``g_{t+1} <= delta_t`` (it averages
later, no larger deltas and 0). The flag stays as a guard: an input or a
rounding that breaks those premises shows there.

:func:`formula_layer` returns the :class:`Evaluation` itself, which keeps
the formula layer's tables as it computes them: ``r_at[t][i]`` (period t's
allocation at atom i), ``fstar``, ``payments``, and U_t (t = 0..T, U_T = 0)
at atom i, ``u_at[t][i]``, and at partition point k, ``u_points[t][k]``;
U_t is linear between the points, so ``u_points[t]`` is the whole curve.
These tables are the one route to those facts: ``verify`` compares the
simulated plan and utilities with ``r_at`` and ``u_at``, ``extract`` sizes
lotteries from ``r_at`` and ``fstar`` and prices a threshold q from
``u_points`` at q's point, and the evaluation CSV prints the tables as
they stand. ``welfare`` and ``negative_payments`` are computed when read,
and mean something for scalar rows only.

The recursion itself (:func:`formula_layer`) is written once, over per-piece
rule values ``R[t][p]`` that may be Python scalars (exact ``Fraction`` or
``float``) or numpy arrays that broadcast against each other, with one
entry per candidate profile. The grid oracle calls it with each period's
candidates on their own axis to score a whole batch at once.

A change in one period t resumes from the evaluation of the rows before
it. Row t enters ``g_s`` and ``U_s`` only for s <= t, since the recursion
runs down from T; the presence ``f*_s`` only for s > t; and the payment
``p_s`` only for s <= t, since it reads ``r_s``, ``U_s`` and ``U_{s+1}``.
So ``formula_layer(market, partition, R, like, t)`` takes g, U, ``u_at``
and the payments of s > t, and ``f*_s`` of s <= t, from ``like``: the
scalar evaluation of rows that are ``R``'s own row objects outside period
t, which it checks. It recomputes the rest, and both sums over every
period, with the same expressions in the same order. A value taken over is
the one a fresh evaluation would compute from the same operands, and a
value recomputed reads the same operands, so the result is bit for bit a
fresh evaluation's. The resumed recursions start as a fresh one reaches
period t, with ``whole`` set, since ``like`` holds Python scalars only. A
scalar evaluation keeps its rows and its g tables (``gap_discounts``) for
this; a batch keeps no g tables.

Optimal rules are mostly exact 0s and 1s, so where a rule value is a Python
scalar equal to 0 or 1 the layer takes the value its expression would give
without doing the arithmetic: ``g_t`` is ``g_{t+1}`` at r = 0 and
``delta_t`` at r = 1, ``f*_t`` is ``f_t + f*_{t-1}`` at r = 0 and ``f_t``
at r = 1, and the payment's ``delta_t v r + (1 - r) U_{t+1}`` is
``U_{t+1}`` at r = 0 and ``delta_t v`` at r = 1. Each is bit for bit the
full expression: it drops a product with an exact 0 (``0 * x`` is 0 and
``y + 0`` is ``y``) and a product with an exact 1 (``1 * x`` is ``x``),
exactly in ``Fraction`` arithmetic and in IEEE floats, since every value
involved is finite and never -0.0 (none is negative). ``g_T`` is the
deltas' zero, not an int 0, so a value handed on is of the kind the
expression makes. The layer does not take a shortcut that would lose an
array's shape (r = 1 against a carried array in ``g`` or ``f*``), numpy
rule values always take the full expression, and the sums take every
term, because a sum of no terms would be int 0, not 0.0.

:func:`evaluate` takes any profile, jumps anywhere in [0, 1], and refines
its partition and rows; a caller that holds rows on one partition already,
as the coordinate ascent does, calls :func:`evaluate_rows` directly.

:func:`coordinate_tails` gives, for exact arithmetic, the affine model of
revenue and usage in one period's rule h = r_t with the other rows fixed:
the evaluation at h = 0 and each tail's value, a suffix sum of the piece
coefficients below. It reads the tables of that base evaluation, which
resumes from the evaluation of the current rows when the caller holds one,
as the coordinate ascent does. Write w_j
for the width of gap j and ``P_s[j] = prod_{s <= q < t} (1 - r_q(gap j))``.

* Gap j. A unit of h there raises ``g_t[j]`` by ``delta_t - g_{t+1}[j]``,
  and ``g_s[j]`` for s < t by ``P_s[j]`` times that; ``U_s`` rises by that
  times w_j at every point above the gap. So revenue changes by
  ``sum_{s <= t} lambdaS_s / lambdaB_s sum_{atoms i above j}
  f*_s,i ((1 - r_s,i) dU_{s+1}(a_i) - dU_s(a_i))`` with ``dU_{t+1} = 0``;
  suffix sums of f*_s and of f*_s (1 - r_s) over the atoms make this one
  pass per period. Usage does not change: f* never reads a gap.
* Atom i. Its own payment gives ``lambdaS_t f*_t,i (delta_t a_i -
  U_{t+1}(a_i)) / lambdaB_t`` and its own usage ``f*_t,i``; the mass it
  leaves changes later presence by ``df*_{t+1,i} = -f*_t,i`` and
  ``df*_{s+1,i} = (1 - r_s,i) df*_s,i``, which adds ``lambdaS_s p_s,i
  df*_s,i`` to revenue and ``r_s,i df*_s,i`` to usage for every s > t.
* A point without an atom has no mass, so its coefficient is 0.

The model is exactly affine: no product in the formula layer multiplies
two quantities that both depend on row t (``f*_s`` depends on h only for
s > t, where ``p_s`` and ``r_s`` do not; ``h`` multiplies ``U_{t+1}``, not
``U_t``). In ``Fraction`` arithmetic every operation is exact, so the model
at any row equals the formula layer's value there, whatever the order of
the operations; in floats the two would differ in the last bits, which is
why float builds probe the formula layer instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from .market import Market
from .numeric import RATIONAL
from .stepfn import Partition, StepFunction, segment_refinement


# Rule values of these types are Python scalars, whose exact 0 and 1 skip
# their arithmetic in the formula layer.
_SCALARS = frozenset((int, float, Fraction))


class EvaluatorInternalError(AssertionError):
    """Two routes to the same quantity disagreed; an implementation bug."""


@dataclass(frozen=True)
class AllocationProfile:
    """One monotone allocation rule per period; the decision variable."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for r in self.steps:
            if not isinstance(r, StepFunction):
                raise TypeError("profile entries must be StepFunction values")

    @classmethod
    def zero(cls, T: int) -> "AllocationProfile":
        return cls(tuple(StepFunction.zero() for _ in range(T)))

    @classmethod
    def ones(cls, T: int) -> "AllocationProfile":
        return cls(tuple(StepFunction.one() for _ in range(T)))

    @property
    def T(self) -> int:
        return len(self.steps)

    def with_step(self, t: int, f: StepFunction) -> "AllocationProfile":
        steps = list(self.steps)
        steps[t] = f
        return AllocationProfile(tuple(steps))

    def __iter__(self):
        return iter(self.steps)


@dataclass
class Evaluation:
    """Everything the formulas say about one (market, profile) pair.

    In a batch from :func:`formula_layer` every table entry and both sums
    are columns shaped like ``R``'s.
    """

    market: Market
    partition: Partition
    u_points: list         # [t][k] U_t at partition point k, t = 0..T
    r_at: list             # [t][i] allocation at atom i
    u_at: list             # [t][i] U_t at atom i, t = 0..T
    fstar: list            # [t][i] mass of value atoms[i] present at t
    payments: list         # [t][i] expected payment as charged (lambdaB applied)
    revenue: object
    inventory_used: object
    rows: object           # R as evaluated
    gap_discounts: object  # [t][j] g_t on gap j, t = 0..T; None in a batch

    @property
    def welfare(self):
        """Discounted value of the served units, from ``r_at`` and ``fstar``."""
        m = self.market
        delta = m.discounts.delta
        served = (
            delta[t] * m.atoms[i] * self.r_at[t][i] * self.fstar[t][i] for t in range(m.T) for i in range(m.num_atoms)
        )
        return sum(served, delta[0] * 0)

    @property
    def negative_payments(self) -> list:
        """``(t, i, p)`` triples with p below zero beyond noise, t-major."""
        noise = 0 if self.market.mode == RATIONAL else 1e-12
        return [
            (t, i, p)
            for t, row in enumerate(self.payments)
            for i, p in enumerate(row)
            if p < -noise
        ]


def _plain(row) -> bool:
    """Whether ``row``, all Python scalars or all numpy values, holds scalars."""
    return not len(row) or type(row[0]) in _SCALARS


def effective_discounts(delta, R, top=None, g=None):
    """Yield ``(t, g_t)`` for t = ``top`` down to 0, one value per entry of ``R[t]``.

    ``g_t = delta_t r_t + (1 - r_t) g_{t+1}`` with ``g_T = 0`` is the
    expected discount of the eventual purchase of a buyer present at t,
    and the slope of ``U_t``. ``g_T`` is the deltas' own zero, which the
    recursion would make of an int 0 at its first step anyway, so that a
    rule of 0 can hand ``g_{t+1}`` on as it is. By default the recursion
    starts at ``top = T - 1``; given ``top`` and ``g = g_{top+1}``, which
    must hold Python scalars, it resumes there.
    """
    if top is None:
        top, g = len(R) - 1, [delta[0] * 0] * len(R[0])
    whole = True  # g holds Python scalars
    for t in range(top, -1, -1):
        row, d = R[t], delta[t]
        if _plain(row):
            g = [x if r == 0 else d if r == 1 and whole else d * r + (1 - r) * x for r, x in zip(row, g)]
        else:
            whole = False
            g = [d * r + (1 - r) * x for r, x in zip(row, g)]
        yield t, g


def formula_layer(market: Market, partition: Partition, R, like: Evaluation | None = None, t=None) -> Evaluation:
    """Presence, utilities, payments, revenue and usage of per-piece rules.

    ``R[t][p]`` is period t's rule on piece p of ``partition``; the market's
    numbers must be of the same kind as the entries (float with numpy
    arrays). ``R[t]`` may be an ndarray with the pieces on axis 0, and the
    periods' arrays may have different shapes that broadcast against each
    other. Each ``R[t]`` holds Python scalars only or numpy values only.
    The operation order is fixed, so every array entry is bit for bit the
    value that its own float scalars give.

    ``like``, with ``t``, is the scalar evaluation of rows that are ``R``'s
    own row objects in every period but ``t``: the tables that period t
    cannot reach are taken from it, and every value is still bit for bit
    a fresh evaluation's (module docstring).
    """
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    atoms = market.atoms
    T = market.T
    if like is not None and (
        like.gap_discounts is None or like.market is not market or like.partition is not partition
        or len(R) != T or any(s != t and a is not b for s, (a, b) in enumerate(zip(R, like.rows)))
    ):
        raise ValueError(f"like is no scalar evaluation of these rows outside period {t}")
    atom_pc = [partition.piece_of_point(a) for a in atoms]
    atom_k = [pc // 2 for pc in atom_pc]
    ngaps = len(partition.points) - 1
    if like is None:
        # every period is recomputed, from the top down and from 0 up
        t = T - 1
        r_at = [[row[pc] for pc in atom_pc] for row in R]
        u_points = [None] * T + [partition.prefix_integrals([0] * ngaps)]
        gaps = [None] * T + [[delta[0] * 0] * ngaps]
        u_at_later, payments_later = [[u_points[T][k] for k in atom_k]], []
        fstar, first = [list(market.mass[0])], 0
    else:
        r_at = list(like.r_at)
        r_at[t] = [R[t][pc] for pc in atom_pc]
        u_points, gaps = list(like.u_points), list(like.gap_discounts)
        u_at_later, payments_later = like.u_at[t + 1:], like.payments[t + 1:]
        fstar, first = like.fstar[:t + 1], t
    plain = [_plain(row) for row in r_at]
    scalar = all(_plain(row) for row in R)  # a batch keeps no g tables

    # g_s and U_s for s <= t, resumed from g_{t+1}
    for s, g in effective_discounts(delta, [r[1::2] for r in R[:t + 1]], t, gaps[t + 1]):
        if scalar:
            gaps[s] = g
        u_points[s] = partition.prefix_integrals(g)
    u_at = [[u[k] for k in atom_k] for u in u_points[:t + 1]] + u_at_later

    # f*_{s+1} for s >= first: f*_0..f*_first do not read row t
    whole = True  # f* so far holds Python scalars
    for m_row, r_row, plain_r in zip(market.mass[first + 1:], r_at[first:], plain[first:]):
        carry = zip(m_row, fstar[-1], r_row)
        if plain_r:
            fstar.append([m + f if r == 0 else m if r == 1 and whole else m + f * (1 - r) for m, f, r in carry])
        else:
            whole = False
            fstar.append([m + f * (1 - r) for m, f, r in carry])

    # payments of s <= t; later ones read neither row t nor U_t
    payments = []
    for d, lb, r_row, plain_r, u_next, u_now in zip(delta[:t + 1], lam_b, r_at, plain, u_at[1:], u_at):
        terms = zip(atoms, r_row, u_next, u_now)
        if plain_r:
            payments.append(
                [((d * a if r == 1 else x if r == 0 else d * a * r + (1 - r) * x) - u) / lb for a, r, x, u in terms]
            )
        else:
            payments.append([(d * a * r + (1 - r) * x - u) / lb for a, r, x, u in terms])
    payments += payments_later
    revenue = sum(ls * sum(map(mul, p_row, f_row)) for ls, p_row, f_row in zip(lam_s, payments, fstar))
    used = sum(map(mul, chain.from_iterable(r_at), chain.from_iterable(fstar)), delta[0] * 0)
    gaps = gaps if scalar else None
    return Evaluation(market, partition, u_points, r_at, u_at, fstar, payments, revenue, used, R, gaps)


def coordinate_tails(market: Market, partition: Partition, R, t: int, like: Evaluation | None = None):
    """``(base, tails)`` of period ``t``'s exact affine model.

    ``base`` is the :class:`Evaluation` of ``R`` with row ``t`` zero (the
    given row ``t`` is ignored), resumed from ``like`` when given, as in
    :func:`formula_layer`; ``tails[f]`` is the (revenue, usage) change
    when row ``t`` is one on the pieces ``>= f``: the sum from piece f up of
    the coefficients derived in the module docstring. O(T (n + P))
    operations for n atoms and P pieces; exact in rational mode only.
    """
    T, atoms = market.T, market.atoms
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    zero = delta[0] * 0
    R = list(R)
    R[t] = [0] * partition.npieces
    base = formula_layer(market, partition, R, like, t)
    fstar, r_at = base.fstar, base.r_at
    atom_k = [partition.piece_of_point(a) // 2 for a in atoms]
    points = partition.points
    ngaps = len(points) - 1

    def above_gaps(values):
        # [j] the sum of values[i] over the atoms above gap j
        sums, run, i = [zero] * ngaps, zero, len(atoms) - 1
        for j in range(ngaps - 1, -1, -1):
            while i >= 0 and atom_k[i] > j:
                run += values[i]
                i -= 1
            sums[j] = run
        return sums

    # Gap j: a unit of h there moves U_s(x) above it by reach[j] times D_j,
    # the integral of delta_t - g_{t+1} over the gap, where reach[j] is
    # P_s[j]; total[j] gathers the revenue change per unit of D_j.
    total = [-lam_s[t] / lam_b[t] * x for x in above_gaps(fstar[t])]
    reach = [1] * ngaps
    for s in range(t - 1, -1, -1):
        if not any(reach):
            break
        kappa = lam_s[s] / lam_b[s]
        above = above_gaps(fstar[s])
        stay = above_gaps([f * (1 - r) for f, r in zip(fstar[s], r_at[s])])
        for j, (later, r) in enumerate(zip(reach, R[s][1::2])):
            if later != 0:
                reach[j] = now = (1 - r) * later
                total[j] += kappa * (later * stay[j] - now * above[j])
    u_next = base.u_points[t + 1]
    gaps = [
        (x * (delta[t] * (b - a) - (ub - ua)), zero)
        for x, a, b, ua, ub in zip(total, points, points[1:], u_next, u_next[1:])
    ]

    # Atom i: its own payment and usage at t, then the f* it leaves to later
    # periods, d f*_{t+1} = -f*_t and d f*_{s+1} = (1 - r_s) d f*_s.
    at_point = [(zero, zero)] * len(points)
    for i, (a, k, f) in enumerate(zip(atoms, atom_k, fstar[t])):
        rev = lam_s[t] * f * (delta[t] * a - base.u_at[t + 1][i]) / lam_b[t]
        used = f
        moved = -f
        for s in range(t + 1, T):
            if moved == 0:
                break
            r = r_at[s][i]
            rev += lam_s[s] * base.payments[s][i] * moved
            used += r * moved
            moved *= 1 - r
        at_point[k] = (rev, used)

    coefficients = [at_point[0]]
    for gap, point in zip(gaps, at_point[1:]):
        coefficients += (gap, point)
    rev = used = zero
    tails = []
    for j, g in reversed(coefficients):
        rev += j
        used += g
        tails.append((rev, used))
    return base, tuple(reversed(tails))


def evaluate(market: Market, profile: AllocationProfile) -> Evaluation:
    """Run the full formula layer on any profile; pure and deterministic."""
    if profile.T != market.T:
        raise ValueError(f"profile has {profile.T} periods, market has {market.T}")
    partition = segment_refinement(profile.steps, market.atoms)
    return evaluate_rows(market, partition, [partition.values(r) for r in profile.steps])


def evaluate_rows(market: Market, partition: Partition, R, like: Evaluation | None = None, t=None) -> Evaluation:
    """:func:`evaluate` of the rules whose piece values on ``partition`` are ``R[t]``.

    ``like`` and ``t`` go to :func:`formula_layer`; the self-checks always
    read the full tables.
    """
    ev = formula_layer(market, partition, R, like, t)
    # keep[i][t] = 1 - r_t at atom i, and mass[i][t] its arrivals
    keep = list(zip(*([1 - r for r in row] for row in ev.r_at)))
    mass = list(zip(*market.mass))
    _check_fstar_closed_form(market, keep, mass, ev.fstar)

    # Each cohort is served unless it survives every period from its arrival
    # on; the survival products are suffix products over t.
    used_by_cohort = 0
    for keep_i, mass_i in zip(keep, mass):
        survive = 1
        for k, m in zip(reversed(keep_i), reversed(mass_i)):
            survive *= k
            used_by_cohort += (1 - survive) * m
    _require_equal(ev.inventory_used, used_by_cohort, market.mode, "inventory accounting")
    return ev


def _check_fstar_closed_form(market: Market, keep, mass, fstar):
    # f*_t(v) must equal sum_j f_j(v) prod_{j <= k < t} (1 - r_k(v)); walking
    # j down from t extends the product by one factor per term. Once the
    # product is an exact 0 it stays 0, and adding m * 0 to the nonnegative
    # total leaves it as it is, so the walk stops there.
    rational = market.mode == RATIONAL
    for t, row in enumerate(fstar):
        earlier = range(t - 1, -1, -1)
        for f, keep_i, mass_i in zip(row, keep, mass):
            total, survive = mass_i[t], 1
            for j in earlier:
                survive *= keep_i[j]
                if survive == 0:
                    break
                total += mass_i[j] * survive
            if f != total and (rational or not abs(f - total) <= 1e-9 * max(1.0, abs(f), abs(total))):
                _require_equal(f, total, market.mode, f"fstar closed form at t={t}")


def _require_equal(a, b, mode, what):
    tol = 0 if mode == RATIONAL else 1e-9 * max(1.0, abs(a), abs(b))
    if not abs(a - b) <= tol:
        raise EvaluatorInternalError(f"{what}: {a} != {b}")

