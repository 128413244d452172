"""Float-mode number reading, the native route against the Fraction route, and the order of float sums."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynration import parse_market
from dynration.numeric import FLOAT, RATIONAL, NumberParseError, ordered_sum, parse_number

from gen import random_market


def _fraction_route(raw, mode):
    # parse_number as it read every value before the float fast path
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str, Fraction)):
        raise NumberParseError(f"not a number: {raw!r}")
    try:
        value = raw if isinstance(raw, Fraction) else Fraction(str(raw) if isinstance(raw, str) else raw)
        return value if mode == RATIONAL else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NumberParseError(f"bad numeric literal: {raw!r}") from exc


def _outcome(read, raw, mode):
    try:
        value = read(raw, mode)
    except NumberParseError:
        return "NumberParseError"
    if mode == FLOAT:
        assert type(value) is float
        return value.hex()
    return type(value), value


def _digits(lengths):
    # digit strings of the drawn length, from a drawn seed: long runs stay cheap
    return st.builds(lambda n, seed: "".join(random.Random(seed).choices("0123456789", k=n)), lengths, st.integers(0, 2**32))


# digit runs: short ones with underscores and leading zeros, 300 digits, and
# lengths around Python's 4,300-digit int-string limit
_SHORT = st.lists(st.text("0123456789", min_size=1, max_size=6), min_size=1, max_size=3).map("_".join)
_PART = st.one_of(_SHORT, _SHORT, st.just("0"), _digits(st.just(300)), _digits(st.integers(4298, 4302)))
_SPACE = st.sampled_from(["", "", " ", "\t", " \n", "\u2003"])
_RATIO = st.builds(
    lambda lead, sign, num, den, trail: f"{lead}{sign}{num}{'' if den is None else '/' + den}{trail}",
    _SPACE,
    st.sampled_from(["", "", "-", "+"]),
    _PART,
    st.one_of(st.none(), _PART, st.sampled_from(["0", "000", "0_0"])),
    _SPACE,
)
# spellings that stay on the Fraction route or are rejected by both
_OTHER = st.one_of(
    st.sampled_from(
        ["1/ 2", " 1 / 2", "1.5", "-0.0", "0.0", "1e400", "-1e-400", "1E3", ".5", "nan", "inf", "-inf",
         "1__0", "_1", "1_", "--1", "/2", "1/", "1/2/3", "1/-2", "", " ", "\u0661\u0662/\u0663", "0x10"]
    ),
    st.text(st.sampled_from("0123456789/_-+. eE"), max_size=8),
)
_INTS = st.one_of(st.integers(), st.integers(-(10**320), 10**320))
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -1e308]))
_VALUES = st.one_of(_INTS, _RATIO, _RATIO, _OTHER, _FLOATS, st.booleans(), st.none(), st.just([1]))


@settings(deadline=None, max_examples=600, derandomize=True)
@given(_VALUES)
def test_float_fast_path_matches_the_fraction_route(raw):
    assert _outcome(parse_number, raw, FLOAT) == _outcome(_fraction_route, raw, FLOAT)
    assert _outcome(parse_number, raw, RATIONAL) == _outcome(_fraction_route, raw, RATIONAL)


@pytest.mark.parametrize(
    "raw",
    [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 2**53 + 1, -(2**1030), "-0", "-0/7", "00_1/0_3",
     " -1/3\n", "1/0", "0/0", "-1/" + "1" + "0" * 400, "1" + "0" * 400 + "/3", "9" * 4300, "9" * 4301,
     "1/" + "9" * 4301, float("nan"), float("inf"), True, Fraction(1, 3)],
)
def test_float_fast_path_edge_values(raw):
    assert _outcome(parse_number, raw, FLOAT) == _outcome(_fraction_route, raw, FLOAT)


def _write(market, number):
    return json.dumps(
        {
            "T": market.T,
            "atoms": [number(a) for a in market.atoms],
            "mass": [[number(x) for x in row] for row in market.mass],
            "inventory": "inf" if market.inventory is None else number(market.inventory),
            "delta": [number(x) for x in market.discounts.delta],
            "lambdaS": [number(x) for x in market.discounts.lambda_s],
            "lambdaB": [number(x) for x in market.discounts.lambda_b],
        }
    )


def test_one_market_written_three_ways_parses_the_same():
    # unreduced "p/q" strings, ints where the value is whole, JSON floats
    rng = random.Random(11)
    for _ in range(40):
        exact = random_market(rng, general_lambda=rng.random() < 0.5)
        ways = (
            lambda x: f"{3 * x.numerator}/{3 * x.denominator}",
            lambda x: x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}",
            float,
        )
        first, *rest = (parse_market(_write(exact, way), FLOAT) for way in ways)
        assert all(m == first for m in rest)
        assert all(type(x) is float for x in first.atoms + first.discounts.delta)
        assert parse_market(_write(exact, ways[0]), RATIONAL) == exact
        assert parse_market(_write(exact, ways[1]), RATIONAL) == exact


def test_accumulate_adds_along_an_axis_in_order():
    # evaluate.column_sums sums with np.add.accumulate along axis 0 and 1;
    # the last entry along the axis must be ordered_sum of the entries, left
    # to right, bit for bit, with one column or several and with +-0.0
    # terms (np.add.reduce does not give this at one column)
    rng = random.Random(3202)
    draw = lambda: rng.choice((0.0, -0.0, 1.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)))
    for _ in range(400):
        n, k = rng.randint(1, 40), rng.choice((1, 1, 2, 3, 8, 17))
        a = np.array([[draw() for _ in range(k)] for _ in range(n)])
        want = [ordered_sum(col[1:], col[0]).hex() for col in zip(*a.tolist())]
        assert [x.hex() for x in np.add.accumulate(a, axis=0)[-1].tolist()] == want
        b = np.array([a, -a])
        assert [x.hex() for x in np.add.accumulate(b, axis=1)[0, -1].tolist()] == want
    # sums of +-0.0 keep the sign that left-to-right addition gives
    for terms, sign in (((-0.0,), -1), ((-0.0, -0.0), -1), ((0.0, -0.0), 1), ((-0.0, 0.0), 1)):
        got = np.add.accumulate(np.array(terms).reshape(-1, 1), axis=0)[-1, 0]
        assert math.copysign(1, got) == sign == math.copysign(1, ordered_sum(terms[1:], terms[0]))
