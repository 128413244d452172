"""Multi-period market instances and their on-disk format.

A market is a horizon ``T``, a sorted list of valuation atoms in [0, 1],
per-period arrival masses on those atoms, a supply cap (or unbounded
supply), and three non-increasing discount schedules: ``delta`` on buyer
valuations, ``lambdaS`` on the seller's cash flows, and ``lambdaB`` on the
buyers' payments. All-ones ``lambdaS``/``lambdaB`` recover the undiscounted
payment model.

Valuation distributions are restricted to finitely many atoms (the measure
is counting measure on the atom list), which keeps every quantity in the
pipeline exactly computable. Per-period mass is not forced to 1;
normalization is the caller's business. Unbounded supply is ``None``,
never a sentinel float.

:func:`make_market` is the one builder of a :class:`Market`, for files and
callers alike, and :func:`validate_market` holds every invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .numeric import FLOAT, MODES, RATIONAL, NumberParseError, json_number, parse_number


class ParseError(ValueError):
    """Market document malformed; message carries the offending field."""


class MarketError(ValueError):
    """A market violates its invariants."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(f"{v.code}: {v.detail}" for v in violations))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class DiscountSchedule:
    """Per-period discounts, each non-increasing and in (0, 1]."""

    delta: tuple
    lambda_s: tuple
    lambda_b: tuple


@dataclass(frozen=True)
class Market:
    """Validated inputs of the revenue-maximization problem.

    Attributes:
        T: number of periods, at least 1.
        atoms: strictly increasing valuation atoms in [0, 1].
        mass: ``mass[t][i]`` is the buyer mass of value ``atoms[i]``
            arriving in period ``t`` (0-based periods throughout the code;
            reports print 1-based).
        inventory: supply cap, or ``None`` for unbounded supply.
        discounts: the three schedules.
        mode: arithmetic mode of every numeric field.
    """

    T: int
    atoms: tuple
    mass: tuple
    inventory: object
    discounts: DiscountSchedule
    mode: str = RATIONAL

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def unbounded(self) -> bool:
        return self.inventory is None

    @property
    def inventory_never_binds(self) -> bool:
        """Whether supply is unbounded or at least the total arrival mass,
        which no usage exceeds (the cohort identity)."""
        return self.unbounded or self.inventory >= sum(x for row in self.mass for x in row)


def make_market(
    T: int,
    atoms: Sequence,
    mass: Sequence[Sequence],
    inventory=None,
    delta: Sequence | None = None,
    lambda_s: Sequence | None = None,
    lambda_b: Sequence | None = None,
    mode: str = RATIONAL,
) -> Market:
    """Build and validate a market, reading every number into ``mode``.

    The one builder of a Market: a bad number or a non-array raises
    ParseError naming its field, as does a ``T`` that is not an int (a bool
    is none), a violated invariant MarketError. An omitted schedule is all
    ones, one per mass row, since ``T`` bounds nothing.
    """
    if not isinstance(T, int) or isinstance(T, bool):
        raise ParseError("T: must be an integer")
    atoms = read_numbers(atoms, "atoms", mode)
    mass = tuple(read_numbers(row, f"mass[{t}]", mode) for t, row in enumerate(require_array(mass, "mass")))
    inventory = None if inventory is None else read_number(inventory, "inventory", mode)
    ones = (parse_number(1, mode),) * len(mass)
    schedules = (("delta", delta), ("lambdaS", lambda_s), ("lambdaB", lambda_b))
    discounts = DiscountSchedule(*(ones if raw is None else read_numbers(raw, key, mode) for key, raw in schedules))
    market = Market(T, atoms, mass, inventory, discounts, mode)
    violations = validate_market(market)
    if violations:
        raise MarketError(violations)
    return market


def validate_market(m: Market) -> list[Violation]:
    """Check every type invariant; an empty list means the market is valid."""
    out: list[Violation] = []
    if m.T < 1:
        out.append(Violation("BadPeriodCount", f"T={m.T}"))
    for i, a in enumerate(m.atoms):
        if a < 0 or a > 1:
            out.append(Violation("AtomOutOfRange", f"atoms[{i}]={a}"))
    for lo, hi in zip(m.atoms, m.atoms[1:]):
        if not lo < hi:
            out.append(Violation("AtomsNotIncreasing", f"{lo} !< {hi}"))
            break
    if len(m.mass) != m.T:
        out.append(Violation("MassShapeMismatch", f"{len(m.mass)} rows for T={m.T}"))
    else:
        for t, row in enumerate(m.mass):
            if len(row) != len(m.atoms):
                out.append(Violation("MassShapeMismatch", f"row {t} has {len(row)} entries"))
                continue
            for i, x in enumerate(row):
                if x < 0:
                    out.append(Violation("NegativeMass", f"mass[{t}][{i}]={x}"))
    if m.inventory is not None and m.inventory < 0:
        out.append(Violation("NegativeInventory", f"inventory={m.inventory}"))
    for name, seq in (
        ("delta", m.discounts.delta),
        ("lambdaS", m.discounts.lambda_s),
        ("lambdaB", m.discounts.lambda_b),
    ):
        if len(seq) != m.T:
            out.append(Violation("DiscountShapeMismatch", f"{name} has {len(seq)} entries"))
            continue
        for t, x in enumerate(seq):
            if not 0 < x <= 1:
                out.append(Violation("DiscountOutOfRange", f"{name}[{t}]={x}"))
        for a, b in zip(seq, seq[1:]):
            if b > a:
                out.append(Violation("NonMonotoneDiscount", f"{name} increases: {a} -> {b}"))
                break
    if m.mode == FLOAT and not out:
        # No value the formulas form exceeds T (n + 1) max(1, total mass)
        # max_t 1 / lambdaB_t: a payment as charged is at most 1 / lambdaB_t
        # per unit, and so is the seller's weight lambdaS_t / lambdaB_t on
        # it. Past 1e300 a sum or a difference of such values could reach
        # inf or nan.
        total = sum(x for row in m.mass for x in row)
        bound = m.T * (len(m.atoms) + 1) * max(1.0, total) / min(m.discounts.lambda_b)
        if not bound <= 1e300:
            detail = f"T (n + 1) max(1, total mass) / min lambdaB = {bound:.3g} exceeds 1e300"
            out.append(Violation("BeyondFloatRange", detail))
    return out


# -- file format ----------------------------------------------------------
#
# UTF-8 JSON object with keys:
#   T          int
#   atoms      array of numbers (decimals, or exact fractions as strings)
#   mass       array of T arrays of length len(atoms)
#   inventory  number, or the string "inf" for unbounded supply
#   delta      array of T numbers
#   lambdaS    array of T numbers   (optional, defaults to all ones)
#   lambdaB    array of T numbers   (optional, defaults to all ones)
#
# parse_market checks only what the format adds (the keys, "inf", no null);
# make_market checks that T is an integer and reads the numbers, and
# validate_market checks every shape, order and range.

_REQUIRED = ("T", "atoms", "mass", "inventory", "delta")
_OPTIONAL = ("lambdaS", "lambdaB")


def load_json(text: str):
    """Decode a JSON document; a syntax error becomes a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def require_array(raw, where: str):
    """``raw`` must be a JSON array; tuples pass too, as a market's own fields."""
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{where}: must be an array")
    return raw


def require_bool(raw, where: str) -> bool:
    if not isinstance(raw, bool):
        raise ParseError(f"{where}: must be true or false")
    return raw


def require_keys(raw, where: str, required, optional=()) -> dict:
    """``raw`` must be an object with every required key and no unknown one."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: must be a JSON object")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{where}: unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ParseError(f"{where}: missing key {key!r}")
    return raw


def read_number(raw, where: str, mode: str):
    """:func:`parse_number`, with a bad value a ParseError naming ``where``."""
    try:
        return parse_number(raw, mode)
    except NumberParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def read_numbers(raw, where: str, mode: str) -> tuple:
    return tuple(read_number(x, f"{where}[{i}]", mode) for i, x in enumerate(require_array(raw, where)))


def parse_market(text: str, mode: str = RATIONAL) -> Market:
    """Parse a market-spec document; fractions given as strings stay exact."""
    if mode not in MODES:
        raise ParseError(f"unknown numeric mode {mode!r}")
    doc = require_keys(load_json(text), "top level", _REQUIRED, _OPTIONAL)
    # make_market reads None as omitted; in a file, null is a bad value
    inventory = doc["inventory"]
    if inventory is None:
        raise ParseError("inventory: not a number: None")
    for key in ("delta", *_OPTIONAL):
        if key in doc and doc[key] is None:
            raise ParseError(f"{key}: must be an array")
    inventory = None if inventory == "inf" else inventory
    return make_market(
        doc["T"], doc["atoms"], doc["mass"], inventory, doc["delta"], doc.get("lambdaS"), doc.get("lambdaB"), mode
    )


def serialize_market(m: Market) -> str:
    """Inverse of :func:`parse_market` on validated markets, bit-exact."""
    doc = {
        "T": m.T,
        "atoms": [json_number(a) for a in m.atoms],
        "mass": [[json_number(x) for x in row] for row in m.mass],
        "inventory": "inf" if m.inventory is None else json_number(m.inventory),
        "delta": [json_number(x) for x in m.discounts.delta],
        "lambdaS": [json_number(x) for x in m.discounts.lambda_s],
        "lambdaB": [json_number(x) for x in m.discounts.lambda_b],
    }
    return json.dumps(doc, indent=2) + "\n"


def ex_ration(mode: str = RATIONAL) -> Market:
    """Two generations, limited supply 3/2; rationing strictly beats prices."""
    return make_market(
        T=2,
        atoms=["2/3", 1],
        mass=[[0, 1], [1, 0]],
        inventory="3/2",
        mode=mode,
    )


def ex_twogen(mode: str = RATIONAL) -> Market:
    """Two generations, unbounded supply; posted prices are optimal."""
    return make_market(
        T=2,
        atoms=["1/2", 1],
        mass=[[0, 1], [1, 0]],
        inventory=None,
        mode=mode,
    )
