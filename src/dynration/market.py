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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .numeric import MODES, RATIONAL, NumberParseError, format_number, json_number, parse_number


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

    @classmethod
    def flat(cls, periods: int, mode: str = RATIONAL) -> "DiscountSchedule":
        one = parse_number(1, mode)
        ones = (one,) * periods
        return cls(ones, ones, ones)

    def is_flat_money(self) -> bool:
        """True when lambdaS and lambdaB are identically one (base model)."""
        return all(x == 1 for x in self.lambda_s) and all(x == 1 for x in self.lambda_b)


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

    def atom_index(self, v) -> int:
        return self.atoms.index(v)

    def total_mass(self):
        return sum(sum(row) for row in self.mass)

    def validated(self) -> "Market":
        violations = validate_market(self)
        if violations:
            raise MarketError(violations)
        return self


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
    """Build and validate a market, coercing every number into ``mode``."""
    num = lambda x: parse_number(x, mode)
    sched = DiscountSchedule(
        tuple(num(x) for x in delta) if delta is not None else (num(1),) * T,
        tuple(num(x) for x in lambda_s) if lambda_s is not None else (num(1),) * T,
        tuple(num(x) for x in lambda_b) if lambda_b is not None else (num(1),) * T,
    )
    return Market(
        T=int(T),
        atoms=tuple(num(a) for a in atoms),
        mass=tuple(tuple(num(x) for x in row) for row in mass),
        inventory=None if inventory is None else num(inventory),
        discounts=sched,
        mode=mode,
    ).validated()


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

_REQUIRED = ("T", "atoms", "mass", "inventory", "delta")
_OPTIONAL = ("lambdaS", "lambdaB")


def load_json(text: str):
    """Decode a JSON document; a syntax error becomes a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def require_array(raw, where: str) -> list:
    if not isinstance(raw, list):
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


def parse_market(text: str, mode: str = RATIONAL) -> Market:
    """Parse a market-spec document; fractions given as strings stay exact."""
    if mode not in MODES:
        raise ParseError(f"unknown numeric mode {mode!r}")
    doc = require_keys(load_json(text), "top level", _REQUIRED, _OPTIONAL)

    def num(raw, where):
        try:
            return parse_number(raw, mode)
        except NumberParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    if not isinstance(doc["T"], int) or isinstance(doc["T"], bool):
        raise ParseError("T: must be an integer")
    T = doc["T"]

    def numeric_list(key, raw, expect=None):
        require_array(raw, key)
        if expect is not None and len(raw) != expect:
            raise ParseError(f"{key}: expected {expect} entries, got {len(raw)}")
        return [num(x, f"{key}[{i}]") for i, x in enumerate(raw)]

    atoms = numeric_list("atoms", doc["atoms"])
    for lo, hi in zip(atoms, atoms[1:]):
        if not lo < hi:
            raise ParseError(f"atoms: not strictly increasing at {format_number(hi)}")
    if not isinstance(doc["mass"], list) or len(doc["mass"]) != T:
        raise ParseError(f"mass: expected {T} rows")
    mass = [numeric_list(f"mass[{t}]", row, expect=len(atoms)) for t, row in enumerate(doc["mass"])]
    if doc["inventory"] == "inf":
        inventory = None
    else:
        inventory = num(doc["inventory"], "inventory")
    delta = numeric_list("delta", doc["delta"], expect=T)
    lam_s = numeric_list("lambdaS", doc["lambdaS"], expect=T) if "lambdaS" in doc else None
    lam_b = numeric_list("lambdaB", doc["lambdaB"], expect=T) if "lambdaB" in doc else None

    market = Market(
        T=T,
        atoms=tuple(atoms),
        mass=tuple(tuple(row) for row in mass),
        inventory=inventory,
        discounts=DiscountSchedule(
            tuple(delta),
            tuple(lam_s) if lam_s is not None else tuple(num(1, "lambdaS") for _ in range(T)),
            tuple(lam_b) if lam_b is not None else tuple(num(1, "lambdaB") for _ in range(T)),
        ),
        mode=mode,
    )
    return market.validated()


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
