"""Scalar arithmetic shared by the exact and floating-point build modes.

Every market carries one arithmetic mode. In ``rational`` mode all numbers
are :class:`fractions.Fraction` and equalities are exact; in ``float`` mode
everything is binary floating point and comparisons go through a tolerance.
Plain ints interoperate with both, so 0 and 1 literals are safe everywhere.

Reading a float-mode number takes a native route for the common spellings
and gives the same float as ``float(Fraction(raw))``, bit for bit:

* a finite float is its own value (-0.0 reads as 0.0, as the rational
  route gives);
* an int is ``float(raw)``;
* a string in Fraction's integer/ratio grammar, ``"p"`` or ``"p/q"``
  (sign, surrounding whitespace, underscores and leading zeros allowed),
  is ``int(p) / int(q)``. Python's int true division rounds correctly, and
  so does ``float(Fraction(p, q))``: both are the nearest float to the same
  rational, so the two agree whether or not p/q is in lowest terms. A zero
  q, an overflowing quotient and a part past Python's int-string digit
  limit raise as the rational route does.

Every other spelling goes through ``Fraction``: decimals and exponents
(``float("-0.0")`` is -0.0 and ``float("1e400")`` is inf, where the
rational route gives 0.0 and an error), non-finite floats, bools,
``Fraction`` instances, and everything in rational mode.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

MODES = (RATIONAL, FLOAT)

# Improvement / equality tolerances per mode (ascent acceptance, binding
# tests, float verification).  Rational arithmetic is exact, so its tolerance
# only guards against accepting vanishing coordinate improvements; rational
# verification compares exactly.
DEFAULT_TOL = {RATIONAL: Fraction(1, 10**9), FLOAT: 1e-7}


# Fraction's string grammar without decimals or exponents: "p" or "p/q".
_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


class NumberParseError(ValueError):
    """A JSON-level value could not be read as a number."""


def parse_number(raw, mode=RATIONAL):
    """Read a JSON-level value (int, float, or string) as a mode scalar.

    Strings may hold a decimal literal or an exact fraction such as
    ``"2/3"``; both are read exactly in rational mode.
    """
    if mode == FLOAT:
        kind = type(raw)
        if kind is float and math.isfinite(raw):
            return raw or 0.0  # -0.0 reads as 0.0, as through Fraction
        ratio = _RATIO.fullmatch(raw) if kind is str else None
        if kind is int or ratio:
            try:
                return float(raw) if kind is int else int(ratio[1]) / int(ratio[2] or 1)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise NumberParseError(f"bad numeric literal: {raw!r}") from exc
    if mode not in MODES:
        raise ValueError(f"unknown numeric mode: {mode!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str, Fraction)):
        raise NumberParseError(f"not a number: {raw!r}")
    try:
        value = raw if isinstance(raw, Fraction) else Fraction(str(raw) if isinstance(raw, str) else raw)
        return value if mode == RATIONAL else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NumberParseError(f"bad numeric literal: {raw!r}") from exc


def format_number(x):
    """Render a scalar for JSON/CSV so that re-parsing reproduces it exactly."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def json_number(x):
    """JSON value of a scalar: floats and bools as they are, exact numbers
    as integers or fraction strings, so that :func:`parse_number` reads
    them back unchanged."""
    if isinstance(x, (bool, float)):
        return x
    rendered = format_number(x)
    try:
        return int(rendered)
    except ValueError:
        return rendered


def default_tol(mode: str):
    return DEFAULT_TOL[mode]
