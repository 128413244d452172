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

A change in one period t is asked of the evaluation of the rows before
it: ``cur.with_row(t, row)`` evaluates ``cur``'s own rows with row t
replaced, on ``cur``'s market and partition. Row t enters ``g_s`` and
``U_s`` only for s <= t, since the recursion runs down from T; the
presence ``f*_s`` only for s > t; and the payment ``p_s`` only for s <= t,
since it reads ``r_s``, ``U_s`` and ``U_{s+1}``. So the change takes g, U,
``u_at`` and the payments of s > t, and ``f*_s`` of s <= t, from ``cur``,
and recomputes the rest, and both sums over every period, with the same
expressions in the same order. A value taken over is the one a fresh
evaluation would compute from the same operands, and a value recomputed
reads the same operands, so the result is bit for bit a fresh
evaluation's. The resumed recursions start as a fresh one reaches period
t, with ``whole`` set, since ``cur`` holds Python scalars only. A scalar
evaluation keeps its rows and its g tables (``gap_discounts``) for this;
a batch keeps no g tables and has no one-period changes. The self-checks,
f* against its closed form and usage against the cohort identity, run on
any scalar evaluation, fresh or changed, through :meth:`Evaluation.checked`;
on a change of a checked evaluation the closed form resumes after row t.

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
array's shape (r = 1 against a carried array in ``g`` or ``f*``), and
numpy rule values always take the full expression.

A scalar evaluation in rational mode applies the same rule to the rest of
its arithmetic, where most operands are exact 0s and 1s too. Its payments
(:func:`_exact_payments`) skip the product by a delta_t of 1, the term
``(1 - r) U_{t+1}`` where U_{t+1} is 0, the subtraction of a U_t of 0, and
the division by lambdaB_t of a zero numerator or by a lambdaB_t of 1; the
tests of delta_t and lambdaB_t run once per period. Its revenue and usage
sums drop each product with a 0 and take the other operand of a 1, and
skip ``lambdaS_t *`` at lambdaS_t = 1; they start from the deltas'
``Fraction`` zero, so a sum of no terms has the type of the full one. Its
self-checks take ``1 - r`` at a ``Fraction`` 0 or 1 as the constant it
is, and skip factors of 1, masses of 0 and the cohort identity's terms
whose survival is 1. The checks see the values of the full expressions,
so each passes, or fails with the same message, exactly where it did.
:func:`coordinate_tails` and :meth:`Partition.prefix_integrals` skip
their exact 0s and 1s likewise. Float mode keeps the sums as
``sum(map(mul, ...))`` and its checks as the plain loops: a float
product costs about as little as the test that would skip it, and the
sums run their products in C, where a skipping loop runs in Python.

:func:`evaluate` takes any profile, jumps anywhere in [0, 1], and refines
its partition and rows; a caller that holds rows on one partition already,
as the coordinate ascent does, calls :func:`evaluate_rows` directly, and
:func:`inventory_used` when it needs usage alone: that runs the layer's
presence recursion and usage sum and nothing else.

:func:`coordinate_tails` gives, for exact arithmetic, the affine model of
revenue and usage in one period's rule h = r_t with the other rows fixed:
each tail's value, a suffix sum of the piece coefficients below, and the
base, the revenue and usage at h = 0. The coefficients read presence,
rules, utilities and payments that h does not reach (f*_s for s <= t,
r_s for s != t, U_{t+1} and the payments of s > t), so they are read from
the evaluation of the current rows, as the coordinate ascent holds it,
and the base is that evaluation less the model's value of the current
h, with no evaluation at h = 0. Write w_j
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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import is_not, mul

from .market import Market
from .numeric import RATIONAL
from .stepfn import Partition, StepFunction, segment_refinement


# Rule values of these types are Python scalars, whose exact 0 and 1 skip
# their arithmetic in the formula layer.
_SCALARS = frozenset((int, float, Fraction))
# 1 - r at a Fraction rule of exactly 0 or 1
_ONE, _ZERO = Fraction(1), Fraction(0)


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
    # f* rows 0..t of with_row(t, ...) of a checked evaluation: its own row
    # objects, which passed its closed-form check
    reused_fstar: tuple = field(default=(), compare=False, repr=False)
    passed_checks: bool = field(default=False, init=False, compare=False, repr=False)

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

    def with_row(self, t: int, row) -> "Evaluation":
        """The evaluation of these rows with row ``t`` replaced by ``row``, a
        scalar row or a batch, resumed from these tables: bit for bit a fresh
        evaluation (module docstring). A batch has no one-period changes."""
        if self.gap_discounts is None:
            raise ValueError("a batch evaluation has no one-period changes")
        return _layer(self.market, self.partition, (*self.rows[:t], row, *self.rows[t + 1:]), self, t)

    def checked(self) -> "Evaluation":
        """This evaluation, after its self-checks: f* against its closed
        form, and usage against the cohort identity over every period. A
        batch evaluation has no self-checks (``ValueError``).

        ``with_row(t, ...)`` of an evaluation that passed them takes its f*
        rows 0..t over, as the same row objects; they read only the rules
        before t, which are the same too, so they passed the closed form
        already. The check asserts that they are those objects (``is``)
        and resumes the closed form at row t + 1. Any other evaluation,
        fresh or a change of an unchecked one, checks every row."""
        if self.gap_discounts is None:
            raise ValueError("a batch evaluation has no self-checks")
        market = self.market
        rational = market.mode == RATIONAL
        # keep[i][t] = 1 - r_t at atom i, and mass[i][t] its arrivals
        if rational:
            complements = ([1 - r if type(r) is int else _ONE if r == 0 else _ZERO if r == 1 else 1 - r for r in row]
                           for row in self.r_at)
        else:
            complements = ([1 - r for r in row] for row in self.r_at)
        keep = list(zip(*complements))
        mass = list(zip(*market.mass))
        reused = self.reused_fstar
        if any(map(is_not, reused, self.fstar)):
            raise EvaluatorInternalError("reused f* rows are not the checked evaluation's own")
        _check_fstar_closed_form(market, keep, mass, self.fstar, len(reused))

        # Each cohort is served unless it survives every period from its arrival
        # on; the survival products are suffix products over t.
        used_by_cohort = 0
        if rational:
            for keep_i, mass_i in zip(keep, mass):
                survive = 1
                for k, m in zip(reversed(keep_i), reversed(mass_i)):
                    if k != 1:
                        survive *= k
                    if m and survive != 1:
                        used_by_cohort += m if survive == 0 else (1 - survive) * m
        else:
            for keep_i, mass_i in zip(keep, mass):
                survive = 1
                for k, m in zip(reversed(keep_i), reversed(mass_i)):
                    survive *= k
                    used_by_cohort += (1 - survive) * m
        _require_equal(self.inventory_used, used_by_cohort, market.mode, "inventory accounting")
        self.passed_checks = True
        return self


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
    return _layer(market, partition, R)


def _layer(market: Market, partition: Partition, R, cur: Evaluation | None = None, t=None) -> Evaluation:
    """:func:`formula_layer`, or with ``cur`` the change of its period ``t``
    to ``R[t]``: ``R`` is ``cur``'s rows outside t (:meth:`Evaluation.with_row`)."""
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    atoms = market.atoms
    T = market.T
    atom_pc = [partition.piece_of_point(a) for a in atoms]
    atom_k = [pc // 2 for pc in atom_pc]
    ngaps = len(partition.points) - 1
    if cur is None:
        # every period is recomputed, from the top down and from 0 up
        t = T - 1
        r_at = [[row[pc] for pc in atom_pc] for row in R]
        u_points = [None] * T + [partition.prefix_integrals([0] * ngaps)]
        gaps = [None] * T + [[delta[0] * 0] * ngaps]
        u_at_later, payments_later = [[u_points[T][k] for k in atom_k]], []
        fstar, first = [list(market.mass[0])], 0
        reused = ()
    else:
        r_at = list(cur.r_at)
        r_at[t] = [R[t][pc] for pc in atom_pc]
        u_points, gaps = list(cur.u_points), list(cur.gap_discounts)
        u_at_later, payments_later = cur.u_at[t + 1:], cur.payments[t + 1:]
        fstar, first = cur.fstar[:t + 1], t
        reused = tuple(fstar) if cur.passed_checks else ()
    plain = [_plain(row) for row in r_at]
    scalar = all(_plain(row) for row in R)  # a batch keeps no g tables

    # g_s and U_s for s <= t, resumed from g_{t+1}
    for s, g in effective_discounts(delta, [r[1::2] for r in R[:t + 1]], t, gaps[t + 1]):
        if scalar:
            gaps[s] = g
        u_points[s] = partition.prefix_integrals(g)
    u_at = [[u[k] for k in atom_k] for u in u_points[:t + 1]] + u_at_later

    # f*_{s+1} for s >= first: f*_0..f*_first do not read row t
    _extend_presence(market, r_at, plain, fstar, first)

    # payments of s <= t; later ones read neither row t nor U_t
    exact = scalar and market.mode == RATIONAL
    zero = delta[0] * 0
    payments = []
    for d, lb, r_row, plain_r, u_next, u_now in zip(delta[:t + 1], lam_b, r_at, plain, u_at[1:], u_at):
        terms = zip(atoms, r_row, u_next, u_now)
        if exact:
            payments.append(_exact_payments(d, lb, terms, zero))
        elif plain_r:
            payments.append(
                [((d * a if r == 1 else x if r == 0 else d * a * r + (1 - r) * x) - u) / lb for a, r, x, u in terms]
            )
        else:
            payments.append([(d * a * r + (1 - r) * x - u) / lb for a, r, x, u in terms])
    payments += payments_later
    if exact:
        revenue = zero
        for ls, p_row, f_row in zip(lam_s, payments, fstar):
            period = _exact_dot(p_row, f_row, zero)
            if period:
                revenue += period if ls == 1 else ls * period
    else:
        revenue = sum(ls * sum(map(mul, p_row, f_row)) for ls, p_row, f_row in zip(lam_s, payments, fstar))
    used = _usage(r_at, fstar, zero, exact)
    gaps = gaps if scalar else None
    return Evaluation(market, partition, u_points, r_at, u_at, fstar, payments, revenue, used, R, gaps, reused)


def _exact_payments(d, lb, terms, zero) -> list:
    """One period's payments ``(d a r + (1 - r) x - u) / lb`` from the
    ``(a, r, x, u)`` of its atoms, x = U_{t+1} and u = U_t, without the
    operations on an exact 0 or 1 (module docstring). Every payment is a
    ``Fraction``: a zero numerator gives ``zero``, the deltas' Fraction 0,
    and a nonzero one is a Fraction already, since the only int among the
    operands is the 0 that U is at the point 0."""
    unit_d, unit_b = d == 1, lb == 1
    paid = []
    for a, r, x, u in terms:
        if r == 1:
            v = a if unit_d else d * a
        elif r == 0:
            v = x
        else:
            v = (a if unit_d else d * a) * r
            if x:
                v += (1 - r) * x
        if u:
            v -= u
        paid.append(zero if not v else v if unit_b else v / lb)
    return paid


def _extend_presence(market: Market, r_at, plain, fstar, first: int):
    """Append f*_{s+1} to ``fstar``, which holds f*_0..f*_first, for every s >= ``first``."""
    whole = True  # f* so far holds Python scalars
    for m_row, r_row, plain_r in zip(market.mass[first + 1:], r_at[first:], plain[first:]):
        carry = zip(m_row, fstar[-1], r_row)
        if plain_r:
            fstar.append([m + f if r == 0 else m if r == 1 and whole else m + f * (1 - r) for m, f, r in carry])
        else:
            whole = False
            fstar.append([m + f * (1 - r) for m, f, r in carry])


def _usage(r_at, fstar, zero, exact: bool):
    r_all, f_all = chain.from_iterable(r_at), chain.from_iterable(fstar)
    return _exact_dot(r_all, f_all, zero) if exact else sum(map(mul, r_all, f_all), zero)


def _exact_dot(xs, ys, zero):
    """``sum(map(mul, xs, ys), zero)`` of exact scalars and a ``Fraction``
    ``zero``, without the products that have an exact 0 or 1 operand."""
    total = zero
    for x, y in zip(xs, ys):
        if x and y:
            total += y if x == 1 else x if y == 1 else x * y
    return total


def inventory_used(market: Market, partition: Partition, R):
    """``formula_layer(market, partition, R).inventory_used``, bit for bit.

    Usage reads the rules at the atoms and the presence f* only, so this
    runs the layer's presence recursion and usage sum, with the same
    expressions, and nothing else.
    """
    atom_pc = [partition.piece_of_point(a) for a in market.atoms]
    r_at = [[row[pc] for pc in atom_pc] for row in R]
    plain = [_plain(row) for row in r_at]
    fstar = [list(market.mass[0])]
    _extend_presence(market, r_at, plain, fstar, 0)
    return _usage(r_at, fstar, market.discounts.delta[0] * 0, market.mode == RATIONAL and all(plain))


def row_value(row, tails):
    """(revenue, usage) change of ``row`` in an affine model of tails.

    A row is its first value times ``tails[0]`` plus each step up times the
    tail that starts there. A first value or a step of exactly 1 takes the
    tail as it is, and a zero tail adds nothing.
    """
    j, g = tails[0] if row[0] == 1 else (row[0] * x for x in tails[0])
    for f in range(1, len(row)):
        if row[f] != row[f - 1]:
            step = row[f] - row[f - 1]
            tj, tg = tails[f]
            if tj:
                j += tj if step == 1 else step * tj
            if tg:
                g += tg if step == 1 else step * tg
    return j, g


def coordinate_tails(cur: Evaluation, t: int):
    """``(base_revenue, base_used, tails)`` of period ``t``'s exact affine model.

    ``cur`` is the scalar evaluation of the current rows (``ValueError``
    for a batch). ``tails[f]`` is the (revenue, usage) change when row
    ``t`` is one on the pieces ``>= f`` instead of zero: the sum from piece
    f up of the coefficients derived in the module
    docstring, which read only tables that row t does not reach, so they
    are read from ``cur``. The base, revenue and usage with row ``t`` zero,
    is ``cur``'s less the model's value of ``cur``'s row ``t``. O(T (n + P))
    operations for n atoms and P pieces; exact in rational mode only.
    """
    if cur.gap_discounts is None:
        raise ValueError("a batch evaluation has no one-period changes")
    market, partition = cur.market, cur.partition
    T, atoms = market.T, market.atoms
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    zero = delta[0] * 0
    R, fstar, r_at = cur.rows, cur.fstar, cur.r_at
    atom_k = [partition.piece_of_point(a) // 2 for a in atoms]
    points = partition.points
    ngaps = len(points) - 1

    def above_gaps(values):
        # [j] the sum of values[i] over the atoms above gap j
        sums, run, i = [zero] * ngaps, zero, len(atoms) - 1
        for j in range(ngaps - 1, -1, -1):
            while i >= 0 and atom_k[i] > j:
                if values[i]:
                    run += values[i]
                i -= 1
            sums[j] = run
        return sums

    # Gap j: a unit of h there moves U_s(x) above it by reach[j] times D_j,
    # the integral of delta_t - g_{t+1} over the gap, where reach[j] is
    # P_s[j]; total[j] gathers the revenue change per unit of D_j.
    kappa = lam_s[t] / lam_b[t]
    total = [x if not x else -x if kappa == 1 else -kappa * x for x in above_gaps(fstar[t])]
    reach = [1] * ngaps
    for s in range(t - 1, -1, -1):
        if not any(reach):
            break
        kappa_s = lam_s[s] / lam_b[s]
        above = above_gaps(fstar[s])
        stay = above_gaps([f if r == 0 else zero if r == 1 else f * (1 - r) for f, r in zip(fstar[s], r_at[s])])
        for j, (later, r) in enumerate(zip(reach, R[s][1::2])):
            if later:
                reach[j] = now = later if r == 0 else 0 if r == 1 else (1 - r) * later
                # later * stay[j] - now * above[j]
                change = stay[j] if later == 1 else later * stay[j]
                if now:
                    change -= above[j] if now == 1 else now * above[j]
                if change:
                    total[j] += change if kappa_s == 1 else kappa_s * change
    u_next = cur.u_points[t + 1]
    gaps = [
        (x * (delta[t] * (b - a) - (ub - ua)) if x else x, zero)
        for x, a, b, ua, ub in zip(total, points, points[1:], u_next, u_next[1:])
    ]

    # Atom i: its own payment and usage at t, then the f* it leaves to later
    # periods, d f*_{t+1} = -f*_t and d f*_{s+1} = (1 - r_s) d f*_s. An atom
    # without presence at t has no coefficient.
    at_point = [(zero, zero)] * len(points)
    for i, (a, k, f) in enumerate(zip(atoms, atom_k, fstar[t])):
        if not f:
            continue
        u = cur.u_at[t + 1][i]
        rev = f * (delta[t] * a - u if u else delta[t] * a)
        if kappa != 1:
            rev *= kappa
        used = f
        moved = -f
        for s in range(t + 1, T):
            r, p = r_at[s][i], cur.payments[s][i]
            if p:
                rev += p * moved if lam_s[s] == 1 else lam_s[s] * p * moved
            if r == 1:
                used += moved
                break
            if r:
                used += r * moved
                moved *= 1 - r
        at_point[k] = (rev, used)

    coefficients = [at_point[0]]
    for gap, point in zip(gaps, at_point[1:]):
        coefficients += (gap, point)
    rev = used = zero
    tails = []
    for j, g in reversed(coefficients):
        if j:
            rev += j
        if g:
            used += g
        tails.append((rev, used))
    tails = tuple(reversed(tails))
    rev, used = row_value(R[t], tails)
    return cur.revenue - rev, cur.inventory_used - used, tails


def evaluate(market: Market, profile: AllocationProfile) -> Evaluation:
    """Run the full formula layer on any profile; pure and deterministic."""
    if profile.T != market.T:
        raise ValueError(f"profile has {profile.T} periods, market has {market.T}")
    partition = segment_refinement(profile.steps, market.atoms)
    return evaluate_rows(market, partition, [partition.values(r) for r in profile.steps])


def evaluate_rows(market: Market, partition: Partition, R) -> Evaluation:
    """:func:`evaluate` of the rules whose piece values on ``partition`` are ``R[t]``."""
    return formula_layer(market, partition, R).checked()


def _check_fstar_closed_form(market: Market, keep, mass, fstar, first: int = 0):
    # f*_t(v) must equal sum_j f_j(v) prod_{j <= k < t} (1 - r_k(v)); walking
    # j down from t extends the product by one factor per term. Once the
    # product is an exact 0 it stays 0, and adding m * 0 to the nonnegative
    # total leaves it as it is, so the walk stops there. In rational mode
    # factors of 1 and masses of 0 take no arithmetic either. Rows before
    # ``first`` are not checked.
    if market.mode == RATIONAL:
        for t, row in enumerate(fstar[first:], first):
            earlier = range(t - 1, -1, -1)
            for f, keep_i, mass_i in zip(row, keep, mass):
                total, survive = mass_i[t], 1
                for j in earlier:
                    k = keep_i[j]
                    if k != 1:
                        survive *= k
                        if survive == 0:
                            break
                    m = mass_i[j]
                    if m:
                        total += m if survive == 1 else m * survive
                if f != total:
                    _require_equal(f, total, market.mode, f"fstar closed form at t={t}")
        return
    for t, row in enumerate(fstar[first:], first):
        earlier = range(t - 1, -1, -1)
        for f, keep_i, mass_i in zip(row, keep, mass):
            total, survive = mass_i[t], 1
            for j in earlier:
                survive *= keep_i[j]
                if survive == 0:
                    break
                total += mass_i[j] * survive
            if f != total and not abs(f - total) <= 1e-9 * max(1.0, abs(f), abs(total)):
                _require_equal(f, total, market.mode, f"fstar closed form at t={t}")


def _require_equal(a, b, mode, what):
    tol = 0 if mode == RATIONAL else 1e-9 * max(1.0, abs(a), abs(b))
    if not abs(a - b) <= tol:
        raise EvaluatorInternalError(f"{what}: {a} != {b}")

