import copy
import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from dynration.cli import main
from dynration.market import (
    DiscountSchedule,
    Market,
    MarketError,
    ParseError,
    ex_ration,
    ex_twogen,
    load_json,
    make_market,
    parse_market,
    require_array,
    require_keys,
    serialize_market,
    validate_market,
)
from dynration.numeric import FLOAT, MODES, RATIONAL, NumberParseError, format_number, parse_number

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


@pytest.mark.parametrize("mass, lambda_b, ok", [(1e298, 1, True), (1e300, 1, False), (1, 1e-298, True), (1, 1e-300, False)])
def test_float_markets_beyond_the_float_range_are_rejected(mass, lambda_b, ok):
    # T (n + 1) max(1, total mass) / min lambdaB must stay <= 1e300 in float
    # mode: 2e298 passes and 2e300 does not; rational mode has no bound
    args = dict(T=1, atoms=[1], mass=[[mass]], lambda_b=[lambda_b])
    violations = validate_market(make_market(**args, mode=RATIONAL))
    assert violations == []
    if ok:
        assert validate_market(make_market(**args, mode=FLOAT)) == []
    else:
        with pytest.raises(MarketError) as err:
            make_market(**args, mode=FLOAT)
        assert [v.code for v in err.value.violations] == ["BeyondFloatRange"]


def test_parse_ration_document():
    text = serialize_market(ex_ration())
    m = parse_market(text)
    assert m == ex_ration()


def test_lambda_defaults_to_ones():
    text = '{"T": 1, "atoms": ["2/3"], "mass": [[1]], "inventory": "inf", "delta": [1]}'
    m = parse_market(text)
    assert m.discounts.lambda_s == (1,)
    assert m.discounts.lambda_b == (1,)


def test_duplicate_atom_is_rejected():
    text = '{"T": 1, "atoms": ["1/2", "1/2"], "mass": [[1, 1]], "inventory": 1, "delta": [1]}'
    with pytest.raises(MarketError) as err:
        parse_market(text)
    assert [v.code for v in err.value.violations] == ["AtomsNotIncreasing"]


def test_parse_diagnostics():
    with pytest.raises(ParseError, match="line"):
        parse_market("{not json")
    with pytest.raises(ParseError, match="delta"):
        parse_market('{"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1}')
    with pytest.raises(ParseError, match=r"mass\[0\]\[0\]"):
        parse_market('{"T": 1, "atoms": [1], "mass": [["x"]], "inventory": 1, "delta": [1]}')
    with pytest.raises(ParseError, match="unknown keys"):
        parse_market('{"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1, "delta": [1], "zzz": 0}')
    with pytest.raises(ParseError, match="unknown numeric mode 'decimal'"):
        parse_market('{"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1, "delta": [1]}', "decimal")
    with pytest.raises(ValueError, match="unknown numeric mode: 'decimal'"):
        parse_number(1, "decimal")


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


@pytest.mark.parametrize("mode", MODES)
def test_an_inventory_of_every_arrival_never_binds(mode):
    # usage never exceeds the total arrival mass, here 3
    def never_binds(inventory):
        return make_market(T=2, atoms=["1/2", 1], mass=[[1, 1], ["1/2", "1/2"]], inventory=inventory,
                           mode=mode).inventory_never_binds

    assert never_binds(None) and never_binds(3) and never_binds("7/2")
    assert not never_binds("2999/1000") and not never_binds(0)
    if mode == RATIONAL:
        assert never_binds("1e400")


def test_mode_conversion_to_float():
    m = ex_ration(mode=FLOAT)
    assert isinstance(m.atoms[0], float)
    assert m.inventory == 1.5


# -- the parser against its former implementation ---------------------------

_REQUIRED = ("T", "atoms", "mass", "inventory", "delta")
_OPTIONAL = ("lambdaS", "lambdaB")


def _reference_parse_market(text, mode=RATIONAL):
    """The former parse_market, which ran its own number, shape and order
    checks before building the Market itself."""
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
    violations = validate_market(market)
    if violations:
        raise MarketError(violations)
    return market


JUNK = ("x", None, True, [], {}, "1/0", "inf", "1e400", "2.5", -1, 0)


def _valid_doc(rng):
    """A random market document, each number spelled as an int or fraction
    string, a string or, where that is exact, a float, with the lambdas
    sometimes omitted."""
    m = random_market(rng, max_periods=4, max_atoms=4, general_lambda=rng.random() < 0.5)
    doc = json.loads(serialize_market(m))
    for node, key in _slots(doc):
        if not isinstance(node[key], list) and key != "T" and node[key] != "inf":
            x = F(node[key])
            node[key] = rng.choice((node[key], str(x), float(x) if F(float(x)) == x else str(x)))
    for key in _OPTIONAL:
        if rng.random() < 0.4:
            del doc[key]
    return doc


def _slots(node):
    """Every (container, key) of a document, nested arrays included."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, list):
            yield from _slots(value)


def _broken(doc, rng):
    """``doc`` with one fault: a junk value, a dropped or extra key, a dropped
    or repeated array entry, equal or swapped atoms, or a wrong T."""
    doc = copy.deepcopy(doc)
    fault = rng.randrange(6)
    if fault == 0:
        node, key = rng.choice(list(_slots(doc)))
        node[key] = rng.choice(JUNK)
    elif fault == 1:
        del doc[rng.choice(sorted(doc))]
    elif fault == 2:
        doc["zzz"] = 0
    elif fault == 3:
        array = rng.choice([node[key] for node, key in _slots(doc) if isinstance(node[key], list) and node[key]])
        i = rng.randrange(len(array))
        if rng.random() < 0.5:
            del array[i]
        else:
            array.insert(i, copy.deepcopy(array[i]))
    elif fault == 4 and len(doc["atoms"]) > 1:
        atoms, i = doc["atoms"], rng.randrange(len(doc["atoms"]) - 1)
        atoms[i + 1], atoms[i] = atoms[i], atoms[i + 1] if rng.random() < 0.5 else atoms[i]
    else:
        doc["T"] = rng.choice((doc["T"] - 1, doc["T"] + 1, 10**12, True, float(doc["T"]), str(doc["T"])))
    return doc


def _outcome(parse, text, mode):
    try:
        return parse(text, mode)
    except (ParseError, MarketError):
        return None


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_parse_market_agrees_with_the_reference_parser(mode):
    # each parser rejects exactly the documents that the other rejects, and
    # where both read one they build the same Market, number types included
    rng = random.Random(1313)
    rejected = total = 0
    for _ in range(60):
        doc = _valid_doc(rng)
        assert _outcome(parse_market, json.dumps(doc), mode) is not None
        for text in [json.dumps(doc)] + [json.dumps(_broken(doc, rng)) for _ in range(12)]:
            ref, new = _outcome(_reference_parse_market, text, mode), _outcome(parse_market, text, mode)
            assert new == ref and repr(new) == repr(ref), text
            rejected += new is None
            total += 1
    assert 0.5 * total < rejected < 0.95 * total


def test_a_huge_T_is_rejected_without_building_T_long_schedules(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"T": 1000000000000, "atoms": [1], "mass": [[1]], "inventory": 1, "delta": [1]}')
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert "MassShapeMismatch: 1 rows for T=1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["inventory", "delta", "lambdaS", "lambdaB"])
def test_null_inventory_and_schedules_are_rejected(key):
    doc = {"T": 1, "atoms": [1], "mass": [[1]], "inventory": 1, "delta": [1], key: None}
    with pytest.raises(ParseError, match=f"^{key}: "):
        parse_market(json.dumps(doc))


@pytest.mark.parametrize("T", [2.7, 2.0, "2", True, None, F(2)])
def test_make_market_rejects_a_T_that_is_not_an_int(T):
    # a non-integer T is refused by name, never truncated to an int
    with pytest.raises(ParseError, match="^T: must be an integer$"):
        make_market(T=T, atoms=[1], mass=[[1], [1]])
    assert make_market(T=2, atoms=[1], mass=[[1], [1]]).T == 2


@pytest.mark.parametrize("T", ["2.5", "true", '"2"'])
def test_a_file_whose_T_is_not_an_int_exits_2(tmp_path, capsys, T):
    path = tmp_path / "market.json"
    path.write_text(f'{{"T": {T}, "atoms": [1], "mass": [[1], [1]], "inventory": 1, "delta": [1, 1]}}')
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert "error: T: must be an integer" in capsys.readouterr().err
