"""Scalar arithmetic shared by the exact and floating-point build modes.

Every market carries one arithmetic mode. In ``rational`` mode all numbers
are :class:`fractions.Fraction` and equalities are exact; in ``float`` mode
everything is binary floating point and comparisons go through a tolerance.
Plain ints interoperate with both, so 0 and 1 literals are safe everywhere.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

MODES = (RATIONAL, FLOAT)

# Improvement / equality tolerances per mode (ascent acceptance, binding
# tests, verification).  Rational arithmetic is exact, so its tolerance only
# guards against accepting vanishing coordinate improvements.
DEFAULT_TOL = {RATIONAL: Fraction(1, 10**9), FLOAT: 1e-7}


class NumberParseError(ValueError):
    """A JSON-level value could not be read as a number."""


def parse_number(raw, mode=RATIONAL):
    """Read a JSON-level value (int, float, or string) as a mode scalar.

    Strings may hold a decimal literal or an exact fraction such as
    ``"2/3"``; both are read exactly in rational mode.
    """
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
