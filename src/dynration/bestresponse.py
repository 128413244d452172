"""Independent incentive check: backward-induction best responses.

Given only the market and a menu, this simulates every atom type's optimal
plan by backward induction, then runs the population flows forward to get
lottery demand, realized sales, and realized (seller-discounted) revenue.
It never looks at the formula layer, which is the point: simulated
utilities agreeing with the closed-form curves is the central cross-check
between two independent computations.

Tie-breaking at exact indifference is the seller-preferred equilibrium
selection shared with the extractor: a type belonging to a tier (by
threshold and inclusion flag) takes that tier's action when it ties with
the best alternative, so earlier purchases win ties and a type excluded by
an open threshold stays out. Service probabilities are taken from the
menu as posted; each lottery's residual ``quantity - prob * demand`` on the
simulated demand reports how consistent they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluate import AllocationProfile, Evaluation, evaluate
from .market import Market
from .mechanism import PricedMechanism
from .numeric import RATIONAL, default_tol

BUY_HIGH = "buyHigh"
ENTER_LOTTERY = "enterLottery"
WAIT = "wait"


@dataclass
class EquilibriumReport:
    plan: list                 # [t][i] chosen action
    utility: list              # [t][i] continuation utility, t = 0..T
    ic_slack: list             # [t][i] chosen minus best alternative
    demand: list               # [t] mass entering the period-t lottery
    service_residual: list     # [t] quantity - service_prob * demand, None without lottery
    realized_revenue: object
    realized_sales: object


@dataclass
class VerificationResult:
    violations: list
    report: EquilibriumReport

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_tol(market: Market, tol):
    """``tol`` if given; by default 0 in rational mode, where every check is
    exact, and the mode's tolerance in float mode."""
    return tol if tol is not None else 0 if market.mode == RATIONAL else default_tol(market.mode)


def _in_tier(v, threshold, inclusive: bool) -> bool:
    return v > threshold or (v == threshold and bool(inclusive))


def best_response(market: Market, mech: PricedMechanism, *, tol=None) -> EquilibriumReport:
    """Simulate truthful buyers facing the menu; pure backward induction.

    A tier's own action wins ties within ``tol``, always 0 in rational mode.
    """
    if mech.T != market.T:
        raise ValueError("mechanism and market disagree on the horizon")
    tol = 0 if market.mode == RATIONAL else _check_tol(market, tol)
    T, atoms = market.T, market.atoms
    delta = market.discounts.delta
    lam_b = market.discounts.lambda_b
    lam_s = market.discounts.lambda_s
    n = len(atoms)

    utility = [[0] * n for _ in range(T + 1)]
    plan = [[WAIT] * n for _ in range(T)]
    slack = [[0] * n for _ in range(T)]
    for t in range(T - 1, -1, -1):
        menu = mech.periods[t]
        for i, v in enumerate(atoms):
            cont = utility[t + 1][i]
            options = {WAIT: cont}
            if menu.has_posted:
                options[BUY_HIGH] = delta[t] * v - lam_b[t] * menu.p_high
            if menu.has_lottery:
                options[ENTER_LOTTERY] = (
                    menu.service_prob * (delta[t] * v - lam_b[t] * menu.per_winner_price)
                    + (1 - menu.service_prob) * cont
                )
            best_u = max(options.values())
            if menu.has_posted and _in_tier(v, menu.q_high, menu.q_high_inclusive):
                designated = BUY_HIGH
            elif menu.has_lottery and _in_tier(v, menu.q_low, menu.q_low_inclusive):
                designated = ENTER_LOTTERY
            else:
                designated = WAIT
            if options[designated] >= best_u - tol:
                # the tier's own action wins its ties: earlier purchases
                # beat waiting, types excluded by an open threshold stay out
                choice = designated
            else:
                order = (BUY_HIGH, ENTER_LOTTERY, WAIT)
                choice = next(a for a in order if options.get(a) == best_u)
            utility[t][i] = options[choice]
            others = [u for a, u in options.items() if a != choice]
            slack[t][i] = options[choice] - max(others) if others else 0
            plan[t][i] = choice

    present = list(market.mass[0])  # [i] mass present when period t opens
    demand = [0] * T
    residual = [None] * T
    revenue = sales = delta[0] * 0
    for t in range(T):
        menu = mech.periods[t]
        lottery_mass = 0
        for i in range(n):
            mass = present[i]
            action = plan[t][i]
            if action == BUY_HIGH:
                revenue += lam_s[t] * menu.p_high * mass
                sales += mass
                carry = 0
            elif action == ENTER_LOTTERY:
                lottery_mass += mass
                served = menu.service_prob * mass
                revenue += lam_s[t] * menu.per_winner_price * served
                sales += served
                carry = mass - served
            else:
                carry = mass
            present[i] = carry + (market.mass[t + 1][i] if t + 1 < T else 0)
        demand[t] = lottery_mass
        if menu.has_lottery:
            residual[t] = menu.lottery_quantity - menu.service_prob * lottery_mass

    return EquilibriumReport(
        plan=plan,
        utility=utility,
        ic_slack=slack,
        demand=demand,
        service_residual=residual,
        realized_revenue=revenue,
        realized_sales=sales,
    )


def menu_violations(market: Market, report: EquilibriumReport, *, tol=None) -> list:
    """Checks that need only the menu's simulated outcome, not a profile.

    Each posted lottery quantity must equal its service probability times
    the simulated demand, and sales must respect the inventory. Every check
    here and in :func:`verify` passes only on a comparison that holds, so a
    NaN fails it.
    """
    tol = _check_tol(market, tol)
    violations = [
        f"ServiceResidual: t={t + 1} residual {res}"
        for t, res in enumerate(report.service_residual)
        if res is not None and not abs(res) <= tol
    ]
    if not market.unbounded and not report.realized_sales <= market.inventory + tol:
        violations.append(f"Oversold: {report.realized_sales} beyond inventory {market.inventory}")
    return violations


def verify(
    market: Market,
    profile: AllocationProfile,
    mech: PricedMechanism,
    *,
    tol=None,
    evaluation: Evaluation | None = None,
) -> VerificationResult:
    """Round-trip and consistency checks; returns violations, never raises.

    Passes iff (1) the simulated plan reproduces the allocation table
    ``r_at`` at every atom, (2) the menu checks of :func:`menu_violations`
    pass (service probabilities match quantity over simulated demand, sales
    respect the inventory), (3) realized revenue equals formula revenue,
    (4) no type prefers a deviation, and (5) simulated utilities equal the
    formula layer's ``u_at`` at every atom.
    """
    tol = _check_tol(market, tol)
    ev = evaluation if evaluation is not None else evaluate(market, profile)
    report = best_response(market, mech, tol=tol)
    violations = []

    implied = {BUY_HIGH: lambda menu: 1, ENTER_LOTTERY: lambda menu: menu.service_prob, WAIT: lambda menu: 0}
    for t in range(market.T):
        menu = mech.periods[t]
        for i, v in enumerate(market.atoms):
            want = ev.r_at[t][i]
            got = implied[report.plan[t][i]](menu)
            if not abs(want - (got or 0)) <= tol:
                violations.append(
                    f"PlanMismatch: t={t + 1} v={v}: plan {report.plan[t][i]} gives {got}, allocation says {want}"
                )
    violations += menu_violations(market, report, tol=tol)
    if not abs(report.realized_revenue - ev.revenue) <= tol:
        violations.append(
            f"RevenueMismatch: simulated {report.realized_revenue}, formula {ev.revenue}"
        )
    for t in range(market.T):
        for i in range(market.num_atoms):
            if not report.ic_slack[t][i] >= -tol:
                violations.append(
                    f"ICViolation: t={t + 1} v={market.atoms[i]} slack {report.ic_slack[t][i]}"
                )
            if not report.utility[t][i] >= -tol:
                violations.append(
                    f"NegativeUtility: t={t + 1} v={market.atoms[i]}"
                )
            formula_u = ev.u_at[t][i]
            if not abs(report.utility[t][i] - formula_u) <= tol:
                violations.append(
                    f"UtilityMismatch: t={t + 1} v={market.atoms[i]}: "
                    f"simulated {report.utility[t][i]}, formula {formula_u}"
                )
    return VerificationResult(violations, report)
