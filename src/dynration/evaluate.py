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

    @property
    def welfare(self):
        """Discounted value of the served units, from ``r_at`` and ``fstar``."""
        m = self.market
        delta = m.discounts.delta
        return sum(
            delta[t] * m.atoms[i] * self.r_at[t][i] * self.fstar[t][i]
            for t in range(m.T)
            for i in range(m.num_atoms)
        )

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


def effective_discounts(delta, R):
    """Yield ``(t, g_t)`` for t = T-1 down to 0, one value per entry of ``R[t]``.

    ``g_t = delta_t r_t + (1 - r_t) g_{t+1}`` with ``g_T = 0`` is the
    expected discount of the eventual purchase of a buyer present at t,
    and the slope of ``U_t``. ``g_T`` is the deltas' own zero, which the
    recursion would make of an int 0 at its first step anyway, so that a
    rule of 0 can hand ``g_{t+1}`` on as it is.
    """
    g = [delta[0] * 0] * len(R[0])
    whole = True  # g holds Python scalars
    for t in range(len(R) - 1, -1, -1):
        row, d = R[t], delta[t]
        if _plain(row):
            g = [x if r == 0 else d if r == 1 and whole else d * r + (1 - r) * x for r, x in zip(row, g)]
        else:
            whole = False
            g = [d * r + (1 - r) * x for r, x in zip(row, g)]
        yield t, g


def formula_layer(market: Market, partition: Partition, R) -> Evaluation:
    """Presence, utilities, payments, revenue and usage of per-piece rules.

    ``R[t][p]`` is period t's rule on piece p of ``partition``; the market's
    numbers must be of the same kind as the entries (float with numpy
    arrays). ``R[t]`` may be an ndarray with the pieces on axis 0, and the
    periods' arrays may have different shapes that broadcast against each
    other. Each ``R[t]`` holds Python scalars only or numpy values only.
    The operation order is fixed, so every array entry is bit for bit the
    value that its own float scalars give.
    """
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    atoms = market.atoms
    atom_pc = [partition.piece_of_point(a) for a in atoms]
    r_at = [[row[pc] for pc in atom_pc] for row in R]
    plain = [_plain(row) for row in r_at]

    u_points = [None] * market.T + [partition.prefix_integrals([0] * (len(partition.points) - 1))]
    for t, g in effective_discounts(delta, [r[1::2] for r in R]):
        u_points[t] = partition.prefix_integrals(g)
    atom_k = [pc // 2 for pc in atom_pc]
    u_at = [[u[k] for k in atom_k] for u in u_points]

    fstar = [list(market.mass[0])]
    whole = True  # f* so far holds Python scalars
    for m_row, r_row, plain_r in zip(market.mass[1:], r_at, plain):
        carry = zip(m_row, fstar[-1], r_row)
        if plain_r:
            fstar.append([m + f if r == 0 else m if r == 1 and whole else m + f * (1 - r) for m, f, r in carry])
        else:
            whole = False
            fstar.append([m + f * (1 - r) for m, f, r in carry])

    payments = []
    for d, lb, r_row, plain_r, u_next, u_now in zip(delta, lam_b, r_at, plain, u_at[1:], u_at):
        terms = zip(atoms, r_row, u_next, u_now)
        if plain_r:
            payments.append(
                [((d * a if r == 1 else x if r == 0 else d * a * r + (1 - r) * x) - u) / lb for a, r, x, u in terms]
            )
        else:
            payments.append([(d * a * r + (1 - r) * x - u) / lb for a, r, x, u in terms])
    revenue = sum(ls * sum(map(mul, p_row, f_row)) for ls, p_row, f_row in zip(lam_s, payments, fstar))
    used = sum(map(mul, chain.from_iterable(r_at), chain.from_iterable(fstar)))
    return Evaluation(market, partition, u_points, r_at, u_at, fstar, payments, revenue, used)


def evaluate(market: Market, profile: AllocationProfile) -> Evaluation:
    """Run the full formula layer on any profile; pure and deterministic."""
    if profile.T != market.T:
        raise ValueError(f"profile has {profile.T} periods, market has {market.T}")
    partition = segment_refinement(profile.steps, market.atoms)
    return evaluate_rows(market, partition, [partition.values(r) for r in profile.steps])


def evaluate_rows(market: Market, partition: Partition, R) -> Evaluation:
    """:func:`evaluate` of the rules whose piece values on ``partition`` are ``R[t]``."""
    ev = formula_layer(market, partition, R)
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
            if f != total and (rational or abs(f - total) > 1e-9 * max(1.0, abs(f), abs(total))):
                _require_equal(f, total, market.mode, f"fstar closed form at t={t}")


def _require_equal(a, b, mode, what):
    tol = 0 if mode == RATIONAL else 1e-9 * max(1.0, abs(a), abs(b))
    if abs(a - b) > tol:
        raise EvaluatorInternalError(f"{what}: {a} != {b}")

