"""Menu extraction: allocation profiles into posted prices plus one lottery.

A solver profile has at most two jumps per period, and that is exactly what
a per-period menu of one posted price and at most one rationed lottery can
implement:

* single jump to level one at ``q``: posted price
  ``p = delta_t q - U_{t+1}(q)`` makes type ``q`` indifferent between
  buying and waiting and leaves richer types strictly buying;
* single jump to a fractional level ``r``: a lottery with per-winner price
  ``delta_t q - U_{t+1}(q)`` and service probability ``r``; the posted tier
  is pushed above every valuation (threshold 1 plus an offset) and marked
  unreachable;
* two jumps ``q_low < q_high`` (top level one): the lottery as above plus a
  posted price set so type ``q_high`` is indifferent between the sure thing
  and the lottery. The two thresholds may coincide with a closed/open flag
  pair, in which case both tiers carry the same price and only the
  threshold type enters the lottery.

The lottery quantity is the service probability times the mass of buyers
present at the low tier, so that quantity / demand reproduces the intended
probability. Under buyer money discounting every charged price is the
value-unit price divided by ``lambdaB_t``. Prices must come out
nonnegative; a negative price is a hard error, never a warning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .evaluate import AllocationProfile, Evaluation, evaluate
from .market import Market, ParseError, load_json, read_number, require_array, require_bool, require_keys
from .numeric import FLOAT, json_number

CLOSED_MODE = "closed"
POSTED = "posted"
LOTTERY_ONLY = "lottery-only"
POSTED_LOTTERY = "posted+lottery"
MENU_MODES = (CLOSED_MODE, POSTED, LOTTERY_ONLY, POSTED_LOTTERY)

# Threshold stored for an unreachable posted tier: above the value range by
# a unit offset, so no bid can ever land in the tier.
UNREACHABLE_THRESHOLD = 2


class TooManySteps(ValueError):
    """An allocation rule has more tiers than a price-plus-lottery menu."""


class NegativePriceError(ValueError):
    """Extraction produced a negative price; the profile is not chargeable."""


@dataclass(frozen=True)
class PeriodMenu:
    """One period's offer; fields are None when the tier is absent."""

    mode: str
    q_high: object = None
    q_high_inclusive: bool | None = None
    p_high: object = None
    q_low: object = None
    q_low_inclusive: bool | None = None
    service_prob: object = None
    per_winner_price: object = None
    lottery_quantity: object = None

    @property
    def has_posted(self) -> bool:
        return self.p_high is not None

    @property
    def has_lottery(self) -> bool:
        return self.service_prob is not None


@dataclass(frozen=True)
class PricedMechanism:
    periods: tuple

    @property
    def T(self) -> int:
        return len(self.periods)

    def lottery_periods(self) -> list[int]:
        return [t for t, menu in enumerate(self.periods) if menu.has_lottery]


def _tier_structure(step):
    """Split a <= 2-jump monotone rule into (low tier, high tier) specs.

    Returns ``(q_low, low_incl, r_low, q_high, high_incl)`` where either
    side may be ``None``. Raises TooManySteps when the rule needs more than
    one fractional tier plus one sure tier.
    """
    levels, jumps = step.levels, step.jumps
    if len(jumps) > 2:
        raise TooManySteps(f"{len(jumps)} jumps; menus implement at most 2")
    if levels[0] != 0:
        # Constant base level: a lottery open to every bid, threshold 0.
        base = levels[0]
        if base == 1:
            return None, None, None, 0, True
        if len(jumps) == 0:
            return 0, True, base, None, None
        if len(jumps) == 1 and levels[1] == 1:
            return 0, True, base, jumps[0].at, jumps[0].closed
        raise TooManySteps("two fractional tiers cannot be priced as one lottery")
    if len(jumps) == 0:
        return None, None, None, None, None  # identically zero
    if len(jumps) == 1:
        lvl = levels[1]
        if lvl == 1:
            return None, None, None, jumps[0].at, jumps[0].closed
        return jumps[0].at, jumps[0].closed, lvl, None, None
    if levels[2] != 1:
        raise TooManySteps("a two-jump rule must reach one at the top")
    return jumps[0].at, jumps[0].closed, levels[1], jumps[1].at, jumps[1].closed


def extract(market: Market, profile: AllocationProfile, evaluation: Evaluation | None = None) -> PricedMechanism:
    """Build the per-period menu whose best responses reproduce ``profile``."""
    ev = evaluation if evaluation is not None else evaluate(market, profile)
    delta = market.discounts.delta
    lam_b = market.discounts.lambda_b
    menus = []
    for t in range(market.T):
        step = profile.steps[t]
        q_low, low_incl, r_low, q_high, high_incl = _tier_structure(step)
        u_next = ev.u_points[t + 1]
        if q_low is None and q_high is None:
            menus.append(PeriodMenu(mode=CLOSED_MODE))
            continue

        def threshold_price(q):
            # makes type q indifferent between a sure item now and waiting
            # q is 0 or a jump of the rule, so a point of the partition
            return (delta[t] * q - u_next[ev.partition.piece_of_point(q) // 2]) / lam_b[t]

        menu_kwargs = {}
        if q_low is not None:
            per_winner = threshold_price(q_low)
            menu_kwargs.update(
                q_low=q_low,
                q_low_inclusive=low_incl,
                service_prob=r_low,
                per_winner_price=per_winner,
                lottery_quantity=r_low * _lottery_demand(market, ev, t, r_low),
            )
        if q_high is not None:
            if q_low is None:
                p_high = threshold_price(q_high)
            else:
                # type q_high is indifferent between the sure item and the
                # lottery; written around per_winner so that a closed/open
                # pair at one location gives exactly p_high == per_winner
                p_high = per_winner + (1 - r_low) * (threshold_price(q_high) - per_winner)
                if market.mode == FLOAT and per_winner > p_high and per_winner - p_high <= 1e-12 * abs(per_winner):
                    # float rounding only: the tiers tie, as at a shared location
                    p_high = per_winner
            menu_kwargs.update(q_high=q_high, q_high_inclusive=high_incl, p_high=p_high)
            mode = POSTED_LOTTERY if q_low is not None else POSTED
        else:
            menu_kwargs.update(q_high=UNREACHABLE_THRESHOLD, q_high_inclusive=True)
            mode = LOTTERY_ONLY

        menu = PeriodMenu(mode=mode, **menu_kwargs)
        for price in (menu.p_high, menu.per_winner_price):
            if price is not None and price < 0:
                raise NegativePriceError(f"period {t + 1}: price {price} < 0")
        if menu.has_posted and menu.has_lottery and not menu.per_winner_price <= menu.p_high:
            raise NegativePriceError(
                f"period {t + 1}: lottery price {menu.per_winner_price} above posted {menu.p_high}"
            )
        menus.append(menu)
    return PricedMechanism(tuple(menus))


def _lottery_demand(market: Market, ev: Evaluation, t: int, prob):
    """Mass present at t on the atoms that period t serves with ``prob``."""
    return sum(ev.fstar[t][i] for i in range(market.num_atoms) if ev.r_at[t][i] == prob)


# -- files ------------------------------------------------------------------

_JSON_KEYS = {
    "q_high": "qHigh",
    "q_high_inclusive": "qHighInclusive",
    "p_high": "pHigh",
    "q_low": "qLow",
    "q_low_inclusive": "qLowInclusive",
    "service_prob": "serviceProb",
    "per_winner_price": "perWinnerPrice",
    "lottery_quantity": "lotteryQuantity",
}

# The keys that extract writes for each menu mode, besides "mode" itself.
_POSTED_KEYS = ("qHigh", "qHighInclusive", "pHigh")
_LOTTERY_KEYS = ("qLow", "qLowInclusive", "serviceProb", "perWinnerPrice", "lotteryQuantity")
_MODE_KEYS = {
    CLOSED_MODE: (),
    POSTED: _POSTED_KEYS,
    LOTTERY_ONLY: ("qHigh", "qHighInclusive") + _LOTTERY_KEYS,
    POSTED_LOTTERY: _POSTED_KEYS + _LOTTERY_KEYS,
}


def mechanism_to_json(mech: PricedMechanism) -> str:
    doc = []
    for menu in mech.periods:
        entry = {"mode": menu.mode}
        for f in fields(menu):
            if f.name == "mode":
                continue
            value = getattr(menu, f.name)
            if value is None:
                continue
            entry[_JSON_KEYS[f.name]] = json_number(value)
        doc.append(entry)
    return json.dumps(doc, indent=2) + "\n"


def mechanism_from_json(text: str, mode: str) -> PricedMechanism:
    menus = []
    inverse = {v: k for k, v in _JSON_KEYS.items()}
    for t, entry in enumerate(require_array(load_json(text), "mechanism")):
        where = f"mechanism period {t + 1}"
        require_keys(entry, where, ("mode",), inverse)
        if entry["mode"] not in MENU_MODES:
            raise ParseError(f"{where}: unknown mode {entry['mode']!r}")
        expected = {"mode", *_MODE_KEYS[entry["mode"]]}
        if set(entry) != expected:
            raise ParseError(f"{where}: a {entry['mode']!r} menu takes exactly the keys {sorted(expected)}")
        kwargs = {"mode": entry["mode"]}
        for key, value in entry.items():
            if key == "mode":
                continue
            name = inverse[key]
            if name.endswith("inclusive"):
                kwargs[name] = require_bool(value, f"{where} {key}")
            else:
                kwargs[name] = read_number(value, f"{where} {key}", mode)
        menu = PeriodMenu(**kwargs)
        # the bounds that extract guarantees for its own menus
        for name in ("p_high", "per_winner_price", "lottery_quantity"):
            value = getattr(menu, name)
            if value is not None and value < 0:
                raise ParseError(f"{where}: {_JSON_KEYS[name]} must be nonnegative")
        if menu.has_lottery and not 0 <= menu.service_prob <= 1:
            raise ParseError(f"{where}: serviceProb must lie in [0, 1]")
        if menu.has_posted and menu.has_lottery and menu.per_winner_price > menu.p_high:
            raise ParseError(f"{where}: perWinnerPrice above pHigh")
        menus.append(menu)
    return PricedMechanism(tuple(menus))
