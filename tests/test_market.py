import dataclasses
import random
from fractions import Fraction as F

import pytest

from dynration.market import (
    DiscountSchedule,
    Market,
    MarketError,
    ParseError,
    ex_ration,
    ex_twogen,
    make_market,
    parse_market,
    serialize_market,
    validate_market,
)
from dynration.numeric import FLOAT, RATIONAL

from gen import random_market


def test_fixtures_are_valid():
    assert validate_market(ex_ration()) == []
    assert validate_market(ex_twogen()) == []
    assert ex_ration().inventory == F(3, 2)
    assert ex_twogen().unbounded


def test_minimal_single_period_instance():
    m = make_market(T=1, atoms=["0.5"], mass=[[2]], inventory=None)
    assert m.atoms == (F(1, 2),)
    assert m.mass == ((2,),)


def test_non_monotone_discount_rejected():
    with pytest.raises(MarketError) as err:
        make_market(T=2, atoms=[1], mass=[[1], [1]], delta=["0.5", "0.9"])
    assert any(v.code == "NonMonotoneDiscount" for v in err.value.violations)


@pytest.mark.parametrize(
    "patch,code",
    [
        (dict(atoms=(F(2, 3), F(3, 2))), "AtomOutOfRange"),
        (dict(atoms=(F(2, 3), F(1, 3))), "AtomsNotIncreasing"),
        (dict(mass=((0, -1), (1, 0))), "NegativeMass"),
        (dict(inventory=F(-1, 2)), "NegativeInventory"),
        (dict(mass=((0, 1),)), "MassShapeMismatch"),
    ],
)
def test_single_field_corruptions_rejected(patch, code):
    m = dataclasses.replace(ex_ration(), **patch)
    assert code in {v.code for v in validate_market(m)}


def test_discount_corruptions_rejected():
    m = ex_ration()
    bad = dataclasses.replace(m, discounts=DiscountSchedule((1, F(3, 2)), (1, 1), (1, 1)))
    assert "DiscountOutOfRange" in {v.code for v in validate_market(bad)}
    bad2 = dataclasses.replace(m, discounts=DiscountSchedule((F(1, 2), 1), (1, 1), (1, 1)))
    assert "NonMonotoneDiscount" in {v.code for v in validate_market(bad2)}
    bad3 = dataclasses.replace(m, discounts=DiscountSchedule((1,), (1, 1), (1, 1)))
    assert "DiscountShapeMismatch" in {v.code for v in validate_market(bad3)}


def test_parse_ration_document():
    text = serialize_market(ex_ration())
    m = parse_market(text)
    assert m == ex_ration()


def test_lambda_defaults_to_ones():
    text = '{"T": 1, "atoms": ["2/3"], "mass": [[1]], "inventory": "inf", "delta": [1]}'
    m = parse_market(text)
    assert m.discounts.lambda_s == (1,)
    assert m.discounts.lambda_b == (1,)


def test_duplicate_atom_is_parse_error():
    text = '{"T": 1, "atoms": ["1/2", "1/2"], "mass": [[1, 1]], "inventory": 1, "delta": [1]}'
    with pytest.raises(ParseError):
        parse_market(text)


def test_parse_diagnostics():
    with pytest.raises(ParseError, match="line"):
        parse_market("{not json")
    with pytest.raises(ParseError, match="delta"):
        parse_market('{"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1}')
    with pytest.raises(ParseError, match=r"mass\[0\]\[0\]"):
        parse_market('{"T": 1, "atoms": [1], "mass": [["x"]], "inventory": 1, "delta": [1]}')
    with pytest.raises(ParseError, match="unknown keys"):
        parse_market('{"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1, "delta": [1], "zzz": 0}')


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_parse_serialize_round_trip(mode):
    rng = random.Random(2024)
    for fixture in (ex_ration(mode), ex_twogen(mode)):
        assert parse_market(serialize_market(fixture), mode) == fixture
    for _ in range(25):
        m = random_market(rng, mode=mode, general_lambda=rng.random() < 0.5)
        assert parse_market(serialize_market(m), mode) == m


def test_fraction_strings_preserved_exactly():
    text = '{"T": 1, "atoms": ["2/3"], "mass": [["1/3"]], "inventory": "7/2", "delta": ["1"]}'
    m = parse_market(text)
    assert m.atoms == (F(2, 3),)
    assert m.mass == ((F(1, 3),),)
    assert m.inventory == F(7, 2)
    assert parse_market(serialize_market(m)) == m


def test_unbounded_inventory_is_explicit():
    m = ex_twogen()
    assert m.inventory is None
    assert '"inf"' in serialize_market(m)


def test_mode_conversion_to_float():
    m = ex_ration(mode=FLOAT)
    assert isinstance(m.atoms[0], float)
    assert m.inventory == 1.5
