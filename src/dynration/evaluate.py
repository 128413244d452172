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

:func:`evaluate` takes any profile, jumps anywhere in [0, 1], and refines
its partition and rows; a caller that holds rows on one partition already,
as the coordinate ascent does, calls :func:`evaluate_rows` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .market import Market
from .stepfn import Partition, StepFunction, segment_refinement


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
        noise = 0 if self.market.mode == "rational" else 1e-12
        return [
            (t, i, p)
            for t, row in enumerate(self.payments)
            for i, p in enumerate(row)
            if p < -noise
        ]


def effective_discounts(delta, R):
    """Yield ``(t, g_t)`` for t = T-1 down to 0, one value per entry of ``R[t]``.

    ``g_t = delta_t r_t + (1 - r_t) g_{t+1}`` with ``g_T = 0`` is the
    expected discount of the eventual purchase of a buyer present at t,
    and the slope of ``U_t``.
    """
    g = [0] * len(R[0])
    for t in range(len(R) - 1, -1, -1):
        rt = R[t]
        d = delta[t]
        g = [d * rt[p] + (1 - rt[p]) * g[p] for p in range(len(g))]
        yield t, g


def formula_layer(market: Market, partition: Partition, R) -> Evaluation:
    """Presence, utilities, payments, revenue and usage of per-piece rules.

    ``R[t][p]`` is period t's rule on piece p of ``partition``; the market's
    numbers must be of the same kind as the entries (float with numpy
    arrays). ``R[t]`` may be an ndarray with the pieces on axis 0, and the
    periods' arrays may have different shapes that broadcast against each
    other. The operation order is fixed, so every array entry is bit for
    bit the value that its own float scalars give.
    """
    T = market.T
    n = market.num_atoms
    delta = market.discounts.delta
    lam_s = market.discounts.lambda_s
    lam_b = market.discounts.lambda_b
    atom_pc = [partition.piece_of_point(a) for a in market.atoms]
    r_at = [[R[t][pc] for pc in atom_pc] for t in range(T)]

    u_points = [None] * T + [partition.prefix_integrals([0] * (len(partition.points) - 1))]
    for t, g in effective_discounts(delta, [r[1::2] for r in R]):
        u_points[t] = partition.prefix_integrals(g)
    u_at = [[u_points[t][pc // 2] for pc in atom_pc] for t in range(T + 1)]

    fstar = [list(market.mass[0])]
    for t in range(1, T):
        fstar.append([market.mass[t][i] + fstar[t - 1][i] * (1 - r_at[t - 1][i]) for i in range(n)])

    payments = [
        [
            (delta[t] * market.atoms[i] * r_at[t][i] + (1 - r_at[t][i]) * u_at[t + 1][i] - u_at[t][i])
            / lam_b[t]
            for i in range(n)
        ]
        for t in range(T)
    ]
    revenue = sum(lam_s[t] * sum(payments[t][i] * fstar[t][i] for i in range(n)) for t in range(T))
    used = sum(r_at[t][i] * fstar[t][i] for t in range(T) for i in range(n))
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
    r_at = ev.r_at
    _check_fstar_closed_form(market, r_at, ev.fstar)

    # Each cohort is served unless it survives every period from its arrival
    # on; the survival products are suffix products over t.
    used_by_cohort = 0
    for i in range(market.num_atoms):
        survive = 1
        for t in range(market.T - 1, -1, -1):
            survive *= 1 - r_at[t][i]
            used_by_cohort += (1 - survive) * market.mass[t][i]
    _require_equal(ev.inventory_used, used_by_cohort, market.mode, "inventory accounting")
    return ev


def _check_fstar_closed_form(market: Market, r_at, fstar):
    # f*_t(v) must equal sum_j f_j(v) prod_{j <= k < t} (1 - r_k(v)); walking
    # j down from t extends the product by one factor per term.
    mass = market.mass
    for t in range(market.T):
        for i in range(market.num_atoms):
            total, survive = mass[t][i], 1
            for j in range(t - 1, -1, -1):
                survive *= 1 - r_at[j][i]
                total += mass[j][i] * survive
            _require_equal(fstar[t][i], total, market.mode, f"fstar closed form at t={t}")


def _require_equal(a, b, mode, what):
    tol = 0 if mode == "rational" else 1e-9 * max(1.0, abs(a), abs(b))
    if abs(a - b) > tol:
        raise EvaluatorInternalError(f"{what}: {a} != {b}")

